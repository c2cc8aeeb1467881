#include "core/lock_memory_tuner.h"

#include <algorithm>
#include <string>

#include <gtest/gtest.h>

namespace locktune {
namespace {

TuningParams BigParams() {
  TuningParams p;
  p.database_memory = kGiB;  // maxLockMemory = 204.8 MB
  return p;
}

LockTunerInputs In(Bytes allocated, Bytes used, int napps = 10,
                   int64_t escalations = 0, bool constrained = false) {
  LockTunerInputs in;
  in.allocated = allocated;
  in.used = used;
  in.num_applications = napps;
  in.escalations_in_interval = escalations;
  in.growth_was_constrained = constrained;
  return in;
}

TEST(LockMemoryTunerTest, GrowRestoresMinFreeObjective) {
  LockMemoryTuner tuner(BigParams());
  // 100 MB allocated, 80 MB used: only 20 % free < minFree (50 %).
  const LockTunerDecision d = tuner.Tune(In(100 * kMiB, 80 * kMiB));
  EXPECT_EQ(d.action, LockTunerAction::kGrow);
  // Target makes used exactly (1 − 0.5) of the new size: 160 MB.
  EXPECT_EQ(d.target, RoundUpToBlocks(160 * kMiB));
}

TEST(LockMemoryTunerTest, DeadBandKeepsCurrentAllocation) {
  LockMemoryTuner tuner(BigParams());
  // §3.3's dead band means "no change": the target is the current
  // allocation, even after synchronous growth moved it past the last
  // pass's target.
  // 55 % free: inside the [50 %, 60 %] band.
  const LockTunerDecision d = tuner.Tune(In(100 * kMiB, 45 * kMiB));
  EXPECT_EQ(d.action, LockTunerAction::kNone);
  EXPECT_EQ(d.target, 100 * kMiB);
}

TEST(LockMemoryTunerTest, ShrinkByDeltaReduce) {
  LockMemoryTuner tuner(BigParams());
  // 100 MB allocated, 10 MB used: 90 % free > maxFree (60 %).
  const LockTunerDecision d = tuner.Tune(In(100 * kMiB, 10 * kMiB));
  EXPECT_EQ(d.action, LockTunerAction::kShrink);
  // δ_reduce = 5 % of 100 MB = 5 MB (block-rounded).
  EXPECT_EQ(d.target, 100 * kMiB - RoundToBlocks(5 * kMiB));
}

TEST(LockMemoryTunerTest, ShrinkStopsAtMaxFreeFloor) {
  LockMemoryTuner tuner(BigParams());
  // 100 MB allocated, 41 MB used: 59 % free is inside the band → none.
  EXPECT_EQ(tuner.Tune(In(100 * kMiB, 41 * kMiB)).action,
            LockTunerAction::kNone);
  // 100 MB allocated, 39.9 MB used → 60.1 % free, shrink, but the floor
  // used/(1−0.6) ≈ 99.75 MB limits the step to less than δ_reduce.
  const LockTunerDecision d = tuner.Tune(In(100 * kMiB, 39'900 * kKiB));
  EXPECT_EQ(d.action, LockTunerAction::kShrink);
  EXPECT_GE(d.target, RoundToBlocks(Bytes(39'900 * kKiB / 0.4)) -
                          kLockBlockSize);
  EXPECT_LT(d.target, 100 * kMiB);
}

TEST(LockMemoryTunerTest, RepeatedShrinkDecaysGeometrically) {
  LockMemoryTuner tuner(BigParams());
  Bytes allocated = 100 * kMiB;
  for (int i = 0; i < 10; ++i) {
    const LockTunerDecision d = tuner.Tune(In(allocated, 0, /*napps=*/0));
    EXPECT_LE(d.target, allocated);
    allocated = d.target;
  }
  // 0.95^10 ≈ 0.6 of the original, down to the 2 MB floor eventually.
  EXPECT_NEAR(static_cast<double>(allocated) / (100.0 * kMiB), 0.6, 0.05);
}

TEST(LockMemoryTunerTest, EscalationsUnderConstraintDouble) {
  LockMemoryTuner tuner(BigParams());
  const LockTunerDecision d =
      tuner.Tune(In(10 * kMiB, 10 * kMiB, 10, /*escalations=*/3,
                    /*constrained=*/true));
  EXPECT_EQ(d.action, LockTunerAction::kDouble);
  EXPECT_EQ(d.target, 20 * kMiB);
}

TEST(LockMemoryTunerTest, EscalationsWithoutConstraintDoNotDouble) {
  // A quota escalation under ample memory must not inflate the heap.
  LockMemoryTuner tuner(BigParams());
  const LockTunerDecision d =
      tuner.Tune(In(10 * kMiB, 2 * kMiB, 10, /*escalations=*/3,
                    /*constrained=*/false));
  EXPECT_NE(d.action, LockTunerAction::kDouble);
}

TEST(LockMemoryTunerTest, DoublingClampsAtMaxLockMemory) {
  TuningParams p = BigParams();
  LockMemoryTuner tuner(p);
  const Bytes near_max = p.MaxLockMemory() - kLockBlockSize;
  const LockTunerDecision d =
      tuner.Tune(In(near_max, near_max, 10, 5, true));
  EXPECT_EQ(d.target, p.MaxLockMemory());
}

TEST(LockMemoryTunerTest, GrowthClampsAtMaxLockMemory) {
  TuningParams p = BigParams();
  LockMemoryTuner tuner(p);
  const LockTunerDecision d =
      tuner.Tune(In(p.MaxLockMemory(), p.MaxLockMemory()));
  EXPECT_LE(d.target, p.MaxLockMemory());
}

TEST(LockMemoryTunerTest, ShrinkClampsAtMinLockMemory) {
  TuningParams p = BigParams();
  LockMemoryTuner tuner(p);
  // Empty lock memory with 130 connections: min = ~4 MiB, not 2 MB.
  Bytes allocated = 8 * kMiB;
  for (int i = 0; i < 50; ++i) {
    allocated = tuner.Tune(In(allocated, 0, /*napps=*/130)).target;
  }
  EXPECT_EQ(allocated, p.MinLockMemory(130));
}

TEST(LockMemoryTunerTest, MinimumTracksApplicationCount) {
  TuningParams p = BigParams();
  LockMemoryTuner tuner(p);
  // Few apps: decays to the 2 MB floor.
  Bytes allocated = 8 * kMiB;
  for (int i = 0; i < 60; ++i) {
    allocated = tuner.Tune(In(allocated, 0, /*napps=*/1)).target;
  }
  EXPECT_EQ(allocated, 2 * kMiB);
  // Connection surge to 500 apps: the clamp alone forces growth.
  const LockTunerDecision d = tuner.Tune(In(allocated, 0, /*napps=*/500));
  EXPECT_EQ(d.target, p.MinLockMemory(500));
}

// Past the crossing, 5,000 applications need minLockMemory = 152.6 MB in a
// 512 MB database whose maxLockMemory is 102.4 MB. The heap cannot grow
// beyond maxLockMemory, so neither may the target, and the pass's why says
// so instead of claiming the minFree rule chose the size.
TEST(LockMemoryTunerTest, CrossingCapsTargetAtMaxLockMemory) {
  TuningParams p;
  p.database_memory = 512 * kMiB;
  ASSERT_GT(p.MinLockMemory(5000), p.MaxLockMemory());
  LockMemoryTuner tuner(p);
  // 40 MiB allocated, 28 MiB used: minFree alone asks for 56 MiB.
  const LockTunerInputs in = In(40 * kMiB, 28 * kMiB, /*napps=*/5000);
  const LockTunerDecision d = tuner.Tune(in);
  EXPECT_EQ(d.action, LockTunerAction::kGrow);
  EXPECT_EQ(d.target, p.MaxLockMemory());
  const std::string why = ExplainDecision(in, d, p);
  EXPECT_NE(why.find("crosses maxLockMemory"), std::string::npos) << why;
}

TEST(LockMemoryTunerTest, TargetsAreBlockMultiples) {
  LockMemoryTuner tuner(BigParams());
  for (Bytes used : {0L, 1000L, 777'777L, 5'000'000L, 50'000'000L}) {
    const LockTunerDecision d = tuner.Tune(In(64 * kMiB, used));
    EXPECT_EQ(d.target % kLockBlockSize, 0) << used;
  }
}

TEST(LockMemoryTunerTest, ZeroAllocationTreatedAsOneBlock) {
  LockMemoryTuner tuner(BigParams());
  const LockTunerDecision d = tuner.Tune(In(0, 0));
  EXPECT_GE(d.target, 2 * kMiB);  // clamped to the floor
}

// Property sweep: for any (allocated, used) state the decision target stays
// inside [minLockMemory, maxLockMemory] and is a block multiple; past the
// crossing (10,000 applications here) it is maxLockMemory.
class TunerPropertyTest
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(TunerPropertyTest, TargetAlwaysBoundedAndAligned) {
  const auto [alloc_mb, used_permille] = GetParam();
  TuningParams p = BigParams();
  LockMemoryTuner tuner(p);
  const Bytes allocated = static_cast<Bytes>(alloc_mb) * kMiB;
  const Bytes used = allocated * used_permille / 1000;
  for (int napps : {0, 1, 50, 130, 1000, 10'000}) {
    const LockTunerDecision d = tuner.Tune(In(allocated, used, napps));
    EXPECT_GE(d.target, std::min(p.MinLockMemory(napps), p.MaxLockMemory()));
    EXPECT_LE(d.target, p.MaxLockMemory());
    EXPECT_EQ(d.target % kLockBlockSize, 0);
  }
}

INSTANTIATE_TEST_SUITE_P(
    States, TunerPropertyTest,
    ::testing::Combine(::testing::Values(1, 4, 16, 64, 128, 200),
                       ::testing::Values(0, 100, 400, 500, 600, 900, 1000)));

}  // namespace
}  // namespace locktune
