#include "telemetry/lock_profiler.h"

#include <atomic>
#include <chrono>
#include <thread>

#include <gtest/gtest.h>

#include "common/mutex.h"
#include "telemetry/metrics.h"

namespace locktune {
namespace {

constexpr int SiteIdx(ProfileSite site) { return static_cast<int>(site); }

TEST(LockProfilerTest, UncontendedGuardCountsAcquireOnly) {
  ResetProfileForTesting();
  Mutex mu;
  // A fresh thread's sampling wheel starts at tick 0, so one full period
  // of uncontended acquires yields exactly one observation, recorded at
  // population weight — the estimate equals the true count.
  std::thread worker([&] {
    for (uint64_t i = 0; i < kProfileSamplePeriod; ++i) {
      ProfiledMutexGuard guard(mu, ProfileSite::kExclusive);
    }
  });
  worker.join();
  const ProfileSnapshot snap = CaptureProfile();
  EXPECT_EQ(snap.sites[SiteIdx(ProfileSite::kExclusive)].acquires,
            kProfileSamplePeriod);
  EXPECT_EQ(snap.sites[SiteIdx(ProfileSite::kExclusive)].contended, 0u);
  EXPECT_EQ(snap.sites[SiteIdx(ProfileSite::kExclusive)].wait.total, 0u);
  EXPECT_EQ(snap.sites[SiteIdx(ProfileSite::kTickBarrier)].acquires, 0u);
}

TEST(LockProfilerTest, ContendedGuardRecordsWait) {
  ResetProfileForTesting();
  Mutex mu;
  std::atomic<bool> started{false};
  mu.Lock();
  std::thread waiter([&] {
    started.store(true);
    ProfiledMutexGuard guard(mu, ProfileSite::kExclusive);
  });
  while (!started.load()) std::this_thread::yield();
  // Hold long enough that the waiter is past its failed try_lock and
  // blocked in lock() before we release.
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  mu.Unlock();
  waiter.join();
  const ProfileSnapshot snap = CaptureProfile();
  const SiteProfile& site = snap.sites[SiteIdx(ProfileSite::kExclusive)];
  // The waiter is a fresh thread, so its first acquire is the sampled
  // one: the acquire count, the failed try_lock, and the timed wait are
  // all recorded at population weight.
  EXPECT_EQ(site.acquires, kProfileSamplePeriod);
  EXPECT_EQ(site.contended, kProfileSamplePeriod);
  EXPECT_EQ(site.wait.total, kProfileSamplePeriod);
  EXPECT_GT(site.wait.sum_ns, 0u);
}

TEST(LockProfilerTest, ProfileTimerAlwaysRecordsWait) {
  ResetProfileForTesting();
  { ProfileTimer timer(ProfileSite::kTickBarrier); }
  const ProfileSnapshot snap = CaptureProfile();
  const SiteProfile& site = snap.sites[SiteIdx(ProfileSite::kTickBarrier)];
  EXPECT_EQ(site.acquires, 1u);
  EXPECT_EQ(site.contended, 1u);
  EXPECT_EQ(site.wait.total, 1u);
}

TEST(LockProfilerTest, HoldTimingIsSampled) {
  ResetProfileForTesting();
  Mutex mu;
  // Two full wheel periods: wherever this thread's tick currently
  // stands, the window holds exactly two sampled acquires and two
  // sampled holds (the offset phase).
  for (uint64_t i = 0; i < 2 * kProfileSamplePeriod; ++i) {
    ProfiledMutexGuard guard(mu, ProfileSite::kExclusive);
  }
  const ProfileSnapshot snap = CaptureProfile();
  const SiteProfile& site = snap.sites[SiteIdx(ProfileSite::kExclusive)];
  EXPECT_EQ(site.acquires, 2 * kProfileSamplePeriod);
  EXPECT_GE(site.hold.total, 1u);
  EXPECT_LE(site.hold.total, 2u);
}

TEST(LockProfilerTest, ResetClearsEverything) {
  Mutex mu;
  for (uint64_t i = 0; i < kProfileSamplePeriod; ++i) {
    ProfiledMutexGuard guard(mu, ProfileSite::kExclusive);
  }
  { ProfileTimer timer(ProfileSite::kTickBarrier); }
  ResetProfileForTesting();
  const ProfileSnapshot snap = CaptureProfile();
  for (int s = 0; s < kProfileSiteCount; ++s) {
    EXPECT_EQ(snap.sites[s].acquires, 0u) << ProfileSiteName(
        static_cast<ProfileSite>(s));
  }
}

TEST(LockProfilerTest, SiteNamesAreStable) {
  EXPECT_STREQ(ProfileSiteName(ProfileSite::kExclusive), "exclusive");
  EXPECT_STREQ(ProfileSiteName(ProfileSite::kTickBarrier), "tick_barrier");
}

TEST(LockProfilerTest, HistogramBucketEdges) {
  // Bucket 0 is < 256 ns; bucket i covers [256·2^(i-1), 256·2^i); the last
  // bucket absorbs overflow. Probe each edge exactly.
  profile_internal::ProfileHistogramSlab slab{};
  slab.Record(0, 1);
  slab.Record(255, 1);                // last value of bucket 0
  slab.Record(256, 1);                // first value of bucket 1
  slab.Record(511, 1);                // last value of bucket 1
  slab.Record(512, 1);                // first value of bucket 2
  slab.Record(uint64_t{1} << 62, 1);  // far past the last bound: overflow
  EXPECT_EQ(slab.counts[0].load(), 2u);
  EXPECT_EQ(slab.counts[1].load(), 2u);
  EXPECT_EQ(slab.counts[2].load(), 1u);
  EXPECT_EQ(slab.counts[kProfileHistBuckets - 1].load(), 1u);
  EXPECT_EQ(slab.total.load(), 6u);
  EXPECT_EQ(slab.sum_ns.load(),
            0u + 255 + 256 + 511 + 512 + (uint64_t{1} << 62));
  // A weighted (sampled) observation scales counts and sum by the weight.
  slab.Record(300, kProfileSamplePeriod);
  EXPECT_EQ(slab.counts[1].load(), 2u + kProfileSamplePeriod);
  EXPECT_EQ(slab.total.load(), 6u + kProfileSamplePeriod);
}

TEST(LockProfilerTest, ToHistogramSnapshotShapeAndUnits) {
  ProfileHistogramData h;
  h.counts[0] = 4;
  h.counts[1] = 2;
  h.total = 6;
  h.sum_ns = 3'000'000;  // 3 ms
  const HistogramSnapshot snap = ToHistogramSnapshot(h);
  ASSERT_EQ(snap.upper_bounds.size(),
            static_cast<size_t>(kProfileHistBuckets - 1));
  ASSERT_EQ(snap.counts.size(), static_cast<size_t>(kProfileHistBuckets));
  // Bounds are ns-to-ms conversions of 256·2^i.
  EXPECT_DOUBLE_EQ(snap.upper_bounds[0], 0.000256);
  EXPECT_DOUBLE_EQ(snap.upper_bounds[1], 0.000512);
  EXPECT_DOUBLE_EQ(snap.upper_bounds[2], 0.001024);
  EXPECT_EQ(snap.total, 6);
  EXPECT_DOUBLE_EQ(snap.sum, 3.0);
}

TEST(LockProfilerTest, PercentilesAtBucketEdges) {
  // 50 events in bucket 0, 50 in bucket 1: p50 must land exactly on the
  // shared bucket edge, and p95/p99 interpolate inside bucket 1.
  ProfileHistogramData h;
  h.counts[0] = 50;
  h.counts[1] = 50;
  h.total = 100;
  const HistogramSnapshot snap = ToHistogramSnapshot(h);
  const double edge = 0.000256;
  EXPECT_DOUBLE_EQ(SnapshotQuantile(snap, 0.50), edge);
  EXPECT_DOUBLE_EQ(SnapshotQuantile(snap, 0.95), edge + 0.9 * edge);
  EXPECT_DOUBLE_EQ(SnapshotQuantile(snap, 0.99), edge + 0.98 * edge);
  EXPECT_DOUBLE_EQ(SnapshotQuantile(snap, 1.0), 0.000512);
}

TEST(LockProfilerTest, RegisterProfileMetricsExportsFamilies) {
  ResetProfileForTesting();
  Mutex mu;
  std::thread worker([&] {
    for (uint64_t i = 0; i < kProfileSamplePeriod; ++i) {
      ProfiledMutexGuard guard(mu, ProfileSite::kExclusive);
    }
  });
  worker.join();
  MetricsRegistry registry;
  RegisterProfileMetrics(&registry);
  bool saw_site_counter = false, saw_wait_hist = false;
  for (const MetricSample& s : registry.Collect()) {
    if (s.name == "locktune_profile_acquires_total{site=\"exclusive\"}") {
      saw_site_counter = true;
      EXPECT_EQ(s.value, static_cast<double>(kProfileSamplePeriod));
    }
    if (s.name == "locktune_profile_wait_ms{site=\"exclusive\"}") {
      saw_wait_hist = true;
      EXPECT_EQ(s.kind, MetricKind::kHistogram);
    }
  }
  EXPECT_TRUE(saw_site_counter);
  EXPECT_TRUE(saw_wait_hist);
}

}  // namespace
}  // namespace locktune
