#include "telemetry/lock_profiler.h"

#include <algorithm>
#include <bit>
#include <chrono>
#include <memory>
#include <string>

#include "telemetry/metrics.h"

namespace locktune {

const char* ProfileSiteName(ProfileSite site) {
  switch (site) {
    case ProfileSite::kExclusive:
      return "exclusive";
    case ProfileSite::kTickBarrier:
      return "tick_barrier";
  }
  return "unknown";
}

HistogramSnapshot ToHistogramSnapshot(const ProfileHistogramData& h) {
  HistogramSnapshot out;
  out.upper_bounds.reserve(kProfileHistBuckets - 1);
  out.counts.reserve(kProfileHistBuckets);
  // Bucket i's upper bound is 256·2^i ns; the last slab bucket doubles as
  // the snapshot's overflow bucket, so it contributes no bound.
  for (int i = 0; i < kProfileHistBuckets - 1; ++i) {
    out.upper_bounds.push_back(static_cast<double>(256ULL << i) / 1e6);
  }
  for (int i = 0; i < kProfileHistBuckets; ++i) {
    out.counts.push_back(static_cast<int64_t>(h.counts[i]));
  }
  out.total = static_cast<int64_t>(h.total);
  out.sum = static_cast<double>(h.sum_ns) / 1e6;
  return out;
}

namespace profile_internal {

void ProfileHistogramSlab::Record(uint64_t ns, uint64_t weight) {
  // bit_width(ns) <= 8 → < 256 ns → bucket 0; each further bit doubles the
  // bucket's range. Values past the last bucket clamp into it (overflow).
  // `weight` scales a sampled observation back to population terms.
  const int width = std::bit_width(ns);
  const int bucket =
      width <= 8 ? 0 : std::min(width - 8, kProfileHistBuckets - 1);
  Bump(counts[bucket], weight);
  Bump(total, weight);
  Bump(sum_ns, ns * weight);
}

namespace {

// Slabs are owned here and never freed: a worker thread's counts must
// survive its exit (bench reps join their pools between measurements).
// Zero-initialized via value-init of the atomics' containing struct.
struct SlabRegistry {
  Mutex mu{kLockRankLeaf, "lock_profiler::mu"};
  std::vector<std::unique_ptr<ProfileSlab>> slabs LT_GUARDED_BY(mu);
};

SlabRegistry& Registry() {
  static SlabRegistry* registry = new SlabRegistry();
  return *registry;
}

}  // namespace

ProfileSlab* RegisterTlsSlab() {
  auto owned = std::make_unique<ProfileSlab>();
  ProfileSlab* raw = owned.get();
  SlabRegistry& reg = Registry();
  MutexLock guard(reg.mu);
  reg.slabs.push_back(std::move(owned));
  return raw;
}

uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// noinline: these are the cold 1-in-kProfileSamplePeriod paths; see the
// declaration comment in lock_profiler.h.
__attribute__((noinline)) void ObserveAcquire(ProfileSlab& slab, Mutex& mu,
                                              ProfileSite site) {
  RecordAcquire(slab, site, kProfileSamplePeriod);
  if (!mu.TryLock()) {
    const uint64_t t0 = NowNs();
    mu.Lock();
    RecordContended(slab, site, kProfileSamplePeriod);
    RecordWait(slab, site, NowNs() - t0, kProfileSamplePeriod);
  }
}

__attribute__((noinline)) void ObserveHold(ProfileSite site,
                                           uint64_t held_ns) {
  Tls().sites[static_cast<int>(site)].hold.Record(held_ns, 1);
}

}  // namespace profile_internal

namespace {

using profile_internal::ProfileHistogramSlab;
using profile_internal::ProfileSlab;
using profile_internal::Registry;

void Accumulate(ProfileHistogramData& into, const ProfileHistogramSlab& h) {
  for (int i = 0; i < kProfileHistBuckets; ++i) {
    into.counts[i] += h.counts[i].load(std::memory_order_relaxed);
  }
  into.total += h.total.load(std::memory_order_relaxed);
  into.sum_ns += h.sum_ns.load(std::memory_order_relaxed);
}

}  // namespace

ProfileSnapshot CaptureProfile() {
  ProfileSnapshot snap;
  auto& reg = Registry();
  MutexLock guard(reg.mu);
  for (const auto& slab : reg.slabs) {
    for (int s = 0; s < kProfileSiteCount; ++s) {
      const auto& site = slab->sites[s];
      snap.sites[s].acquires += site.acquires.load(std::memory_order_relaxed);
      snap.sites[s].contended +=
          site.contended.load(std::memory_order_relaxed);
      Accumulate(snap.sites[s].wait, site.wait);
      Accumulate(snap.sites[s].hold, site.hold);
    }
  }
  return snap;
}

void ResetProfileForTesting() {
  auto& reg = Registry();
  MutexLock guard(reg.mu);
  for (const auto& slab : reg.slabs) {
    for (auto& site : slab->sites) {
      site.acquires.store(0, std::memory_order_relaxed);
      site.contended.store(0, std::memory_order_relaxed);
      for (auto* h : {&site.wait, &site.hold}) {
        for (auto& c : h->counts) c.store(0, std::memory_order_relaxed);
        h->total.store(0, std::memory_order_relaxed);
        h->sum_ns.store(0, std::memory_order_relaxed);
      }
    }
  }
}

void RegisterProfileMetrics(MetricsRegistry* registry) {
  for (int s = 0; s < kProfileSiteCount; ++s) {
    const ProfileSite site = static_cast<ProfileSite>(s);
    const std::string label =
        std::string("{site=\"") + ProfileSiteName(site) + "\"}";
    registry->AddCallbackCounter(
        "locktune_profile_acquires_total" + label,
        "lock acquisitions through this site",
        [s] {
          return static_cast<int64_t>(CaptureProfile().sites[s].acquires);
        });
    registry->AddCallbackCounter(
        "locktune_profile_contended_total" + label,
        "lock acquisitions that had to wait (sampled estimate)",
        [s] {
          return static_cast<int64_t>(CaptureProfile().sites[s].contended);
        });
    registry->AddCallbackHistogram(
        "locktune_profile_wait_ms" + label,
        "contended lock acquire-wait durations (sampled)",
        [s] { return ToHistogramSnapshot(CaptureProfile().sites[s].wait); });
    registry->AddCallbackHistogram(
        "locktune_profile_hold_ms" + label,
        "lock hold durations (sampled)",
        [s] { return ToHistogramSnapshot(CaptureProfile().sites[s].hold); });
  }
}

}  // namespace locktune
