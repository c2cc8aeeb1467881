#include "common/stats.h"

#include <gtest/gtest.h>

namespace locktune {
namespace {

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
