#include "common/random.h"

#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

namespace locktune {
namespace {

TEST(RngTest, DeterministicForSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.Next() == b.Next()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(RngTest, NextBelowStaysInRange) {
  Rng rng(7);
  for (int i = 0; i < 10'000; ++i) {
    EXPECT_LT(rng.NextBelow(17), 17u);
  }
}

TEST(RngTest, NextBelowCoversRange) {
  Rng rng(11);
  std::vector<int> seen(10, 0);
  for (int i = 0; i < 10'000; ++i) ++seen[rng.NextBelow(10)];
  for (int count : seen) EXPECT_GT(count, 0);
}

TEST(RngTest, NextInRangeInclusiveBounds) {
  Rng rng(5);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 10'000; ++i) {
    const int64_t v = rng.NextInRange(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    saw_lo |= v == -3;
    saw_hi |= v == 3;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(RngTest, NextInRangeSingleton) {
  Rng rng(9);
  EXPECT_EQ(rng.NextInRange(4, 4), 4);
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(13);
  double sum = 0.0;
  for (int i = 0; i < 10'000; ++i) {
    const double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
    sum += d;
  }
  // Mean of U(0,1) ≈ 0.5.
  EXPECT_NEAR(sum / 10'000.0, 0.5, 0.02);
}

TEST(RngTest, NextBoolRespectsProbability) {
  Rng rng(17);
  int hits = 0;
  for (int i = 0; i < 10'000; ++i) hits += rng.NextBool(0.3) ? 1 : 0;
  EXPECT_NEAR(hits / 10'000.0, 0.3, 0.03);
  EXPECT_FALSE(rng.NextBool(0.0));
  EXPECT_TRUE(rng.NextBool(1.0));
}

TEST(ZipfTest, UniformWhenThetaZero) {
  Rng rng(3);
  ZipfGenerator zipf(100, 0.0);
  std::vector<int> counts(100, 0);
  for (int i = 0; i < 100'000; ++i) ++counts[zipf.Next(rng)];
  for (int c : counts) {
    EXPECT_GT(c, 500);
    EXPECT_LT(c, 1500);
  }
}

TEST(ZipfTest, OutputInRange) {
  Rng rng(21);
  ZipfGenerator zipf(1000, 0.8);
  for (int i = 0; i < 50'000; ++i) {
    EXPECT_LT(zipf.Next(rng), 1000u);
  }
}

TEST(ZipfTest, SkewConcentratesOnLowRanks) {
  Rng rng(31);
  ZipfGenerator zipf(10'000, 0.9);
  int low = 0;
  const int draws = 50'000;
  for (int i = 0; i < draws; ++i) {
    if (zipf.Next(rng) < 100) ++low;
  }
  // Under uniform, ranks < 100 get 1 % of draws; theta = 0.9 gives far more.
  EXPECT_GT(low, draws / 10);
}

TEST(ZipfTest, HigherThetaMoreSkew) {
  Rng rng_a(41), rng_b(41);
  ZipfGenerator mild(10'000, 0.2), steep(10'000, 0.9);
  int64_t mild_low = 0, steep_low = 0;
  for (int i = 0; i < 20'000; ++i) {
    if (mild.Next(rng_a) < 10) ++mild_low;
    if (steep.Next(rng_b) < 10) ++steep_low;
  }
  EXPECT_GT(steep_low, mild_low);
}

TEST(ZipfTest, SingleElementDomain) {
  Rng rng(51);
  ZipfGenerator zipf(1, 0.5);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(zipf.Next(rng), 0u);
}

TEST(ZipfTest, SharedPassMatchesOneDomainGenerators) {
  // Unsorted, with a duplicate (tpcc has three 300k-row tables), 1- and
  // 2-row domains, and one past the 2^24-term exact prefix: each generator
  // of the shared pass draws exactly what a generator of its own draws.
  const std::vector<uint64_t> domains = {300'000, 2,          1'000, 300'000,
                                         1,       20'000'000, 100};
  const std::vector<ZipfGenerator> shared =
      ZipfGenerator::ForDomains(domains, 0.5);
  ASSERT_EQ(shared.size(), domains.size());
  for (size_t k = 0; k < domains.size(); ++k) {
    const ZipfGenerator alone(domains[k], 0.5);
    EXPECT_EQ(shared[k].n(), domains[k]);
    Rng rng_shared(71 + k), rng_alone(71 + k);
    for (int i = 0; i < 10'000; ++i) {
      ASSERT_EQ(shared[k].Next(rng_shared), alone.Next(rng_alone))
          << "domain " << domains[k] << ", draw " << i;
    }
  }
}

TEST(ZipfTest, BillionRowDomainIsCheapAndConsistent) {
  // Above 2^24 ranks the zeta normalizer switches from exact summation to
  // a midpoint-integral tail (population-scaled catalogs in scale_sweep
  // reach billions of rows — docs/SCALE.md). The constructor must be
  // O(threshold), the draws in range, and the skew must line up with an
  // exactly-summed generator: the fraction of draws landing in the first
  // 0.1 % of ranks is scale-free for fixed theta, so a billion-row
  // generator must match a 1 M-row one closely.
  Rng rng_big(61), rng_small(61);
  ZipfGenerator big(3'000'000'000ull, 0.4);   // approximate tail
  ZipfGenerator small(1'000'000, 0.4);        // exact summation
  const int draws = 50'000;
  int big_low = 0, small_low = 0;
  for (int i = 0; i < draws; ++i) {
    const uint64_t b = big.Next(rng_big);
    ASSERT_LT(b, 3'000'000'000ull);
    if (b < 3'000'000) ++big_low;
    if (small.Next(rng_small) < 1'000) ++small_low;
  }
  EXPECT_NEAR(static_cast<double>(big_low) / draws,
              static_cast<double>(small_low) / draws, 0.01);
}

}  // namespace
}  // namespace locktune
