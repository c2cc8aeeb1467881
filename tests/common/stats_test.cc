#include "common/stats.h"

#include <gtest/gtest.h>

namespace locktune {
namespace {

TEST(SummaryStatsTest, EmptyDefaults) {
  SummaryStats s;
  EXPECT_EQ(s.count(), 0);
  EXPECT_EQ(s.min(), 0.0);
  EXPECT_EQ(s.max(), 0.0);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.variance(), 0.0);
}

TEST(SummaryStatsTest, SingleValue) {
  SummaryStats s;
  s.Add(4.0);
  EXPECT_EQ(s.count(), 1);
  EXPECT_EQ(s.min(), 4.0);
  EXPECT_EQ(s.max(), 4.0);
  EXPECT_EQ(s.mean(), 4.0);
  EXPECT_EQ(s.variance(), 0.0);
}

TEST(SummaryStatsTest, KnownSeries) {
  SummaryStats s;
  for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.Add(v);
  EXPECT_EQ(s.count(), 8);
  EXPECT_EQ(s.min(), 2.0);
  EXPECT_EQ(s.max(), 9.0);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_DOUBLE_EQ(s.variance(), 4.0);  // classic population-variance example
  EXPECT_DOUBLE_EQ(s.stddev(), 2.0);
  EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(SummaryStatsTest, NegativeValues) {
  SummaryStats s;
  s.Add(-5.0);
  s.Add(5.0);
  EXPECT_EQ(s.min(), -5.0);
  EXPECT_EQ(s.max(), 5.0);
  EXPECT_EQ(s.mean(), 0.0);
}

TEST(HistogramTest, BucketsByUpperBound) {
  Histogram h({1.0, 10.0, 100.0});
  h.Add(0.5);    // bucket 0 (≤ 1)
  h.Add(1.0);    // bucket 0 (lower_bound: 1.0 ≤ 1.0)
  h.Add(5.0);    // bucket 1
  h.Add(50.0);   // bucket 2
  h.Add(500.0);  // overflow
  ASSERT_EQ(h.counts().size(), 4u);
  EXPECT_EQ(h.counts()[0], 2);
  EXPECT_EQ(h.counts()[1], 1);
  EXPECT_EQ(h.counts()[2], 1);
  EXPECT_EQ(h.counts()[3], 1);
  EXPECT_EQ(h.total_count(), 5);
}

}  // namespace
}  // namespace locktune
