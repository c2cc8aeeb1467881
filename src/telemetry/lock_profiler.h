// Lock-path contention profiler: per-site attribution of where lock time
// goes (acquire waits, hold times).
//
// Design (docs/OBSERVABILITY.md has the full rationale):
//
//  * Always compiled in. Against a build without it, whole fig9_ramp
//    runs differed by less than run-to-run noise at --threads 1 and 4
//    (docs/OBSERVABILITY.md §3), so there is one build and contention is
//    measured in the binary that ships. The profiler never feeds back
//    into tuning decisions, so golden outputs do not depend on it.
//
//  * Thread-local accumulation. Each thread owns a ProfileSlab (registered
//    once, on first use, under a mutex); all hot-path updates are relaxed
//    atomic stores into that slab, so instrumentation never contends on
//    shared cache lines. Aggregation (CaptureProfile) walks the slab list
//    in a serial region — the tick barrier's serial phase, after a bench's
//    workers joined, or at inspect time.
//
//  * Everything is sampled. 1 in kProfileSamplePeriod guard acquisitions
//    is observed: the acquire is counted, a try_lock-first probe detects
//    contention, and a contended probe times the blocking lock() with two
//    steady_clock reads — all recorded at the sample period's weight, so
//    every profile counter is a population-scale estimate. The other 255
//    of 256 acquisitions execute a TLS load, one tick increment, a
//    predictable branch, and then *exactly* a plain lock(): no counter
//    traffic, no clock read, and no second CAS on a hot mutex line (a
//    failed try_lock steals the line in exclusive state, slowing the
//    holder's unlock). Sampled bumps land before the acquisition, outside
//    the critical section, where a saturated mutex would pay them once
//    per op globally. Hold times ride the same wheel at an offset phase;
//    ProfileTimer stays exact.
//
//  * Single-writer slabs use plain load+store bumps, not fetch_add: a
//    relaxed fetch_add still compiles to a locked RMW on x86 (~20 cycles),
//    which at several bumps per acquire was the dominant instrumentation
//    cost. The owning thread is the only writer, so load+1+store is safe
//    and compiles to a plain add; concurrent aggregation reads are
//    slightly stale statistics, which is fine.
//
// The profiler is process-global: multiple LockManagers in one process
// (tests, benches) share it. That is the right shape for attribution — the
// question is "where does this process's wall-clock go" — and tests that
// need isolation call ResetProfileForTesting().
#ifndef LOCKTUNE_TELEMETRY_LOCK_PROFILER_H_
#define LOCKTUNE_TELEMETRY_LOCK_PROFILER_H_

#include <atomic>
#include <cstdint>

#include "common/mutex.h"
#include "common/thread_annotations.h"

namespace locktune {

class MetricsRegistry;
struct HistogramSnapshot;

// Instrumented contexts (docs/CONCURRENCY.md): kExclusive is the lock
// manager's mutex, held for every Lock/AcquireBatch/ReleaseAll call, and
// kTickBarrier the scenario runner's per-tick worker barriers.
enum class ProfileSite : uint8_t {
  kExclusive = 0,
  kTickBarrier,
};
inline constexpr int kProfileSiteCount = 2;
const char* ProfileSiteName(ProfileSite site);

// Power-of-two nanosecond buckets: bucket 0 is < 256 ns, bucket i covers
// [256·2^(i-1), 256·2^i), and the last bucket is the overflow (~>1 s).
inline constexpr int kProfileHistBuckets = 24;

// 1 in this many guard acquisitions is observed (acquire count, contention
// probe, wait timing); observations are recorded with this weight so all
// profile counters, sums, and histogram totals estimate the full
// population. Power of two, shared with hold sampling (one wheel, offset
// phases). ProfileTimer stays exact.
inline constexpr uint64_t kProfileSamplePeriod = 256;

// --- aggregated (read-side) view ---

struct ProfileHistogramData {
  uint64_t counts[kProfileHistBuckets] = {};
  uint64_t total = 0;
  uint64_t sum_ns = 0;
};

// Counters are sampled, weight-compensated estimates (multiples of
// kProfileSamplePeriod); ProfileTimer sites are exact. `contended` can
// overshoot `acquires` only through weight granularity at tiny counts.
struct SiteProfile {
  uint64_t acquires = 0;
  uint64_t contended = 0;
  ProfileHistogramData wait;  // contended acquire-wait durations (sampled)
  ProfileHistogramData hold;  // sampled critical-section holds
};

struct ProfileSnapshot {
  SiteProfile sites[kProfileSiteCount];
};

// Walks all thread slabs (including those of exited threads). Callers must
// be in a serial region relative to the writers they want a consistent
// view of; concurrent capture is safe but reads a moving target.
ProfileSnapshot CaptureProfile();

// Zeroes every slab. Tests and bench reps only; racing writers tolerated
// (their in-flight increments land in the fresh epoch).
void ResetProfileForTesting();

// Always true: the profiler is part of every build. Kept only for the
// benchmark's build fingerprint, which still prints it.
constexpr bool ProfileCompiledIn() { return true; }

// Converts a profile histogram to the registry snapshot shape, bounds in
// milliseconds (256 ns = 0.000256 ms up through ~1 s, then overflow).
HistogramSnapshot ToHistogramSnapshot(const ProfileHistogramData& h);

// Registers the locktune_profile_* family: per-site acquire/contended
// counters and wait/hold histograms. Opt-in (the sim's --profile-metrics /
// --inspect flags): registering changes the export, and default
// --metrics-out runs must stay byte-identical.
void RegisterProfileMetrics(MetricsRegistry* registry);

namespace profile_internal {

// One thread's accumulator. Fields are relaxed atomics: the owning thread
// is the only writer, aggregation is the only concurrent reader, and the
// values are statistics, not synchronization.
// Single-writer increment: plain add, no locked RMW (see header comment).
inline void Bump(std::atomic<uint64_t>& c, uint64_t n = 1) {
  c.store(c.load(std::memory_order_relaxed) + n, std::memory_order_relaxed);
}

struct ProfileHistogramSlab {
  std::atomic<uint64_t> counts[kProfileHistBuckets];
  std::atomic<uint64_t> total;
  std::atomic<uint64_t> sum_ns;
  void Record(uint64_t ns, uint64_t weight);
};

struct SiteSlab {
  std::atomic<uint64_t> acquires;
  std::atomic<uint64_t> contended;
  ProfileHistogramSlab wait;
  ProfileHistogramSlab hold;
};

struct ProfileSlab {
  SiteSlab sites[kProfileSiteCount];
  // Sampling wheel: owner-thread only, no atomicity needed. One counter
  // drives both wait probing (phase 0) and hold timing (phase 32) so a
  // guard pays a single increment.
  uint64_t sample_tick = 0;
};

// Allocates and registers the calling thread's slab (cold, first use).
ProfileSlab* RegisterTlsSlab();

// The calling thread's slab. Inline so every guard compiles down to a
// TLS load instead of an out-of-line call.
inline ProfileSlab& Tls() {
  thread_local ProfileSlab* slab = RegisterTlsSlab();
  return *slab;
}

uint64_t NowNs();

inline bool SampleWait(uint64_t tick) {
  return (tick & (kProfileSamplePeriod - 1)) == 0;
}

inline bool SampleHold(uint64_t tick) {
  return (tick & (kProfileSamplePeriod - 1)) ==
         kProfileSamplePeriod / 2;
}

inline void RecordContended(ProfileSlab& slab, ProfileSite site,
                            uint64_t weight) {
  Bump(slab.sites[static_cast<int>(site)].contended, weight);
}

// A sampled (weighted) wait observation; the matching RecordContended is
// the caller's responsibility.
inline void RecordWait(ProfileSlab& slab, ProfileSite site, uint64_t wait_ns,
                       uint64_t weight) {
  slab.sites[static_cast<int>(site)].wait.Record(wait_ns, weight);
}

inline void RecordAcquire(ProfileSlab& slab, ProfileSite site,
                          uint64_t weight) {
  Bump(slab.sites[static_cast<int>(site)].acquires, weight);
}

// Cold out-of-line observers (defined in lock_profiler.cc, marked
// noinline there): the sampled 1-in-kProfileSamplePeriod observation —
// acquire count, try_lock contention probe, timed blocking lock — and
// the sampled hold recording. Keeping these out of line keeps the guard
// inline path down to a TLS load, a tick increment, and two predictable
// branches; inlining the probe at every call site bloats the lock
// manager's hot functions enough to show up as real overhead.
void ObserveAcquire(ProfileSlab& slab, Mutex& mu, ProfileSite site)
    LT_ACQUIRE(mu);
void ObserveHold(ProfileSite site, uint64_t held_ns);

}  // namespace profile_internal

// RAII guard over locktune::Mutex with wait/hold attribution. Drop-in
// for MutexLock at instrumented sites.
class LT_SCOPED_CAPABILITY ProfiledMutexGuard {
 public:
  ProfiledMutexGuard(Mutex& mu, ProfileSite site) LT_ACQUIRE(mu)
      : mu_(mu), site_(site) {
    using namespace profile_internal;
    ProfileSlab& slab = Tls();
    const uint64_t tick = slab.sample_tick++;
    if (SampleWait(tick)) [[unlikely]] {
      ObserveAcquire(slab, mu_, site_);
    } else {
      mu_.Lock();
    }
    if (SampleHold(tick)) [[unlikely]] hold_t0_ = NowNs();
  }
  ~ProfiledMutexGuard() LT_RELEASE() {
    if (hold_t0_ != 0) [[unlikely]] {
      const uint64_t held = profile_internal::NowNs() - hold_t0_;
      mu_.Unlock();
      profile_internal::ObserveHold(site_, held);
    } else {
      mu_.Unlock();
    }
  }
  ProfiledMutexGuard(const ProfiledMutexGuard&) = delete;
  ProfiledMutexGuard& operator=(const ProfiledMutexGuard&) = delete;

 private:
  Mutex& mu_;
  ProfileSite site_;
  uint64_t hold_t0_ = 0;
};

// Times an arbitrary region (barrier waits) into a site's wait histogram;
// every timed region counts as a contended acquire of that site.
class ProfileTimer {
 public:
  explicit ProfileTimer(ProfileSite site)
      : site_(site), t0_(profile_internal::NowNs()) {}
  ~ProfileTimer() {
    using namespace profile_internal;
    ProfileSlab& slab = Tls();
    // Barrier waits are cold (per tick), so they are counted and timed
    // exactly (weight 1), unlike the sampled guard probes.
    RecordAcquire(slab, site_, 1);
    RecordContended(slab, site_, 1);
    RecordWait(slab, site_, NowNs() - t0_, 1);
  }
  ProfileTimer(const ProfileTimer&) = delete;
  ProfileTimer& operator=(const ProfileTimer&) = delete;

 private:
  ProfileSite site_;
  uint64_t t0_;
};

}  // namespace locktune

#endif  // LOCKTUNE_TELEMETRY_LOCK_PROFILER_H_
