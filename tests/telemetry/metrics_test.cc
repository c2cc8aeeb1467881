#include "telemetry/metrics.h"

#include <gtest/gtest.h>

namespace locktune {
namespace {

TEST(MetricsRegistryTest, OwnedCounterRoundTrips) {
  MetricsRegistry reg;
  Counter* c = reg.AddCounter("locktune_test_events_total", "test events");
  c->Increment();
  c->Increment(41);
  ASSERT_TRUE(reg.Has("locktune_test_events_total"));
  const std::vector<MetricSample> samples = reg.Collect();
  ASSERT_EQ(samples.size(), 1u);
  EXPECT_EQ(samples[0].name, "locktune_test_events_total");
  EXPECT_EQ(samples[0].help, "test events");
  EXPECT_EQ(samples[0].kind, MetricKind::kCounter);
  EXPECT_DOUBLE_EQ(samples[0].value, 42.0);
}

TEST(MetricsRegistryTest, OwnedGaugeMovesBothWays) {
  MetricsRegistry reg;
  Gauge* g = reg.AddGauge("locktune_test_level", "test level");
  g->Set(10.0);
  g->Add(-2.5);
  EXPECT_DOUBLE_EQ(reg.Collect()[0].value, 7.5);
}

TEST(MetricsRegistryTest, CallbackMetricsEvaluateAtCollect) {
  MetricsRegistry reg;
  int64_t events = 0;
  double level = 0.0;
  reg.AddCallbackCounter("locktune_test_events_total", "events",
                         [&] { return events; });
  reg.AddCallbackGauge("locktune_test_level", "level", [&] { return level; });
  events = 7;
  level = 1.5;
  const std::vector<MetricSample> samples = reg.Collect();
  ASSERT_EQ(samples.size(), 2u);
  EXPECT_DOUBLE_EQ(samples[0].value, 7.0);
  EXPECT_DOUBLE_EQ(samples[1].value, 1.5);
  events = 9;  // a later Collect sees the new value
  EXPECT_DOUBLE_EQ(reg.Collect()[0].value, 9.0);
}

TEST(MetricsRegistryTest, CollectIsSortedByName) {
  MetricsRegistry reg;
  reg.AddCounter("locktune_z_total", "z");
  reg.AddCounter("locktune_a_total", "a");
  reg.AddGauge("locktune_m", "m");
  const std::vector<MetricSample> samples = reg.Collect();
  ASSERT_EQ(samples.size(), 3u);
  EXPECT_EQ(samples[0].name, "locktune_a_total");
  EXPECT_EQ(samples[1].name, "locktune_m");
  EXPECT_EQ(samples[2].name, "locktune_z_total");
}

TEST(MetricsRegistryTest, ReRegistrationReplacesLastWins) {
  MetricsRegistry reg;
  Counter* first = reg.AddCounter("locktune_test_total", "v1");
  first->Increment(5);
  reg.AddCallbackCounter("locktune_test_total", "v2", [] { return 99; });
  const std::vector<MetricSample> samples = reg.Collect();
  ASSERT_EQ(samples.size(), 1u);
  EXPECT_EQ(samples[0].help, "v2");
  EXPECT_DOUBLE_EQ(samples[0].value, 99.0);
  EXPECT_EQ(reg.size(), 1u);
}

TEST(MetricsRegistryTest, OwnedHistogramSnapshot) {
  MetricsRegistry reg;
  HistogramMetric* h = reg.AddHistogram("locktune_test_latency_ms", "latency",
                                        {1.0, 10.0, 100.0});
  h->Observe(0.5);
  h->Observe(5.0);
  h->Observe(5.0);
  h->Observe(500.0);  // overflow
  const std::vector<MetricSample> samples = reg.Collect();
  ASSERT_EQ(samples.size(), 1u);
  EXPECT_EQ(samples[0].kind, MetricKind::kHistogram);
  const HistogramSnapshot& snap = samples[0].histogram;
  ASSERT_EQ(snap.upper_bounds.size(), 3u);
  ASSERT_EQ(snap.counts.size(), 4u);
  EXPECT_EQ(snap.counts[0], 1);
  EXPECT_EQ(snap.counts[1], 2);
  EXPECT_EQ(snap.counts[2], 0);
  EXPECT_EQ(snap.counts[3], 1);
  EXPECT_EQ(snap.total, 4);
  EXPECT_DOUBLE_EQ(snap.sum, 510.5);
}

TEST(MetricsRegistryTest, CallbackHistogram) {
  MetricsRegistry reg;
  Histogram live({2.0, 4.0});
  reg.AddCallbackHistogram("locktune_test_dist", "dist",
                           [&] { return SnapshotOf(live); });
  live.Add(1.0);
  live.Add(3.0);
  const HistogramSnapshot snap = reg.Collect()[0].histogram;
  EXPECT_EQ(snap.total, 2);
  ASSERT_EQ(snap.counts.size(), 3u);
  EXPECT_EQ(snap.counts[0], 1);
  EXPECT_EQ(snap.counts[1], 1);
}

TEST(SnapshotQuantileTest, EmptyIsZero) {
  Histogram h({1.0, 2.0});
  EXPECT_EQ(SnapshotQuantile(SnapshotOf(h), 0.5), 0.0);
}

TEST(SnapshotQuantileTest, Monotone) {
  Histogram h({1, 2, 4, 8, 16, 32});
  for (int i = 0; i < 1000; ++i) h.Add(static_cast<double>(i % 30));
  const double p50 = SnapshotQuantile(SnapshotOf(h), 0.5);
  const double p90 = SnapshotQuantile(SnapshotOf(h), 0.9);
  const double p99 = SnapshotQuantile(SnapshotOf(h), 0.99);
  EXPECT_LE(p50, p90);
  EXPECT_LE(p90, p99);
  EXPECT_GT(p50, 0.0);
}

TEST(SnapshotQuantileTest, AtExtremes) {
  Histogram h({1.0, 10.0, 100.0});
  h.Add(5.0);
  h.Add(50.0);
  // q=0 is the lower edge of the first occupied bucket; q=1 the upper edge
  // of the last.
  EXPECT_DOUBLE_EQ(SnapshotQuantile(SnapshotOf(h), 0.0), 1.0);
  EXPECT_DOUBLE_EQ(SnapshotQuantile(SnapshotOf(h), 1.0), 100.0);
}

TEST(SnapshotQuantileTest, AllMassInOverflow) {
  Histogram h({10.0});
  for (int i = 0; i < 4; ++i) h.Add(1000.0);
  // The overflow bucket spans [last_bound, last_bound*2+1): the estimate
  // stays finite even though every sample exceeded the last bound.
  EXPECT_DOUBLE_EQ(SnapshotQuantile(SnapshotOf(h), 0.0), 10.0);
  EXPECT_DOUBLE_EQ(SnapshotQuantile(SnapshotOf(h), 0.5), 15.5);
  EXPECT_DOUBLE_EQ(SnapshotQuantile(SnapshotOf(h), 1.0), 21.0);
}

TEST(SnapshotQuantileTest, ClampsArgument) {
  Histogram h({10.0});
  h.Add(5.0);
  EXPECT_GE(SnapshotQuantile(SnapshotOf(h), -1.0), 0.0);
  EXPECT_LE(SnapshotQuantile(SnapshotOf(h), 2.0), 10.0);
}

TEST(SnapshotQuantileTest, EmptyAndClamped) {
  HistogramSnapshot empty;
  empty.upper_bounds = {1.0, 2.0};
  empty.counts = {0, 0, 0};
  EXPECT_EQ(SnapshotQuantile(empty, 0.5), 0.0);

  Histogram h({10.0});
  h.Add(5.0);
  const HistogramSnapshot snap = SnapshotOf(h);
  EXPECT_GE(SnapshotQuantile(snap, -1.0), 0.0);
  EXPECT_LE(SnapshotQuantile(snap, 2.0), 10.0);
}

TEST(MetricFamilyTest, StripsLabelSuffix) {
  EXPECT_EQ(MetricFamily("locktune_memory_heap_bytes{heap=\"sort\"}"),
            "locktune_memory_heap_bytes");
  EXPECT_EQ(MetricFamily("locktune_lock_waits_total"),
            "locktune_lock_waits_total");
  EXPECT_EQ(MetricFamily(""), "");
}

}  // namespace
}  // namespace locktune
