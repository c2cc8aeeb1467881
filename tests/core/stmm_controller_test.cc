#include "core/stmm_controller.h"

#include <memory>

#include <gtest/gtest.h>

namespace locktune {
namespace {

constexpr TableId kTable = 1;

// Wires a miniature STMM stack: 256 MB database, buffer pool + sort PMCs,
// a lock heap and lock manager, and the controller under test.
class StmmControllerTest : public ::testing::Test {
 protected:
  void Build(TuningParams params) {
    params_ = params;
    ASSERT_TRUE(params_.Validate().ok());
    memory_ = std::make_unique<DatabaseMemory>(params_.database_memory,
                                               params_.OverflowGoal());
    bp_ = memory_
              ->RegisterHeap("bp", ConsumerClass::kPerformance,
                             params_.database_memory / 2,
                             params_.database_memory / 16,
                             params_.database_memory)
              .value();
    sort_ = memory_
                ->RegisterHeap("sort", ConsumerClass::kPerformance,
                               params_.database_memory / 8,
                               params_.database_memory / 64,
                               params_.database_memory)
                .value();
    pmcs_.AddConsumer(bp_, 3.0e18);
    pmcs_.AddConsumer(sort_, 6.0e17);
    lock_heap_ = memory_
                     ->RegisterHeap("locklist", ConsumerClass::kFunctional,
                                    params_.InitialLockMemory(),
                                    kLockBlockSize, params_.MaxLockMemory())
                     .value();
    policy_ = std::make_unique<AdaptiveMaxlocksPolicy>();
    LockManagerOptions lmo;
    lmo.initial_blocks = BytesToBlocks(params_.InitialLockMemory());
    lmo.max_lock_memory = params_.MaxLockMemory();
    lmo.database_memory = params_.database_memory;
    lmo.policy = policy_.get();
    lmo.grow_callback = [this](int64_t blocks) {
      return stmm_->GrantSynchronousGrowth(blocks);
    };
    locks_ = std::make_unique<LockManager>(std::move(lmo));
    stmm_ = std::make_unique<StmmController>(
        params_, &clock_, memory_.get(), lock_heap_, locks_.get(), &pmcs_,
        [this] { return napps_; });
  }

  // Occupies `n` lock structures via row locks from one app.
  void HoldRows(AppId app, int64_t n, int64_t offset = 0) {
    for (int64_t i = 0; i < n; ++i) {
      ASSERT_EQ(
          locks_->Lock(app, RowResource(kTable, offset + i), LockMode::kS)
              .outcome,
          LockOutcome::kGranted);
    }
  }

  TuningParams params_;
  SimClock clock_;
  std::unique_ptr<DatabaseMemory> memory_;
  MemoryHeap* bp_ = nullptr;
  MemoryHeap* sort_ = nullptr;
  MemoryHeap* lock_heap_ = nullptr;
  PmcModel pmcs_;
  std::unique_ptr<AdaptiveMaxlocksPolicy> policy_;
  std::unique_ptr<LockManager> locks_;
  std::unique_ptr<StmmController> stmm_;
  int napps_ = 1;
};

TuningParams SmallParams() {
  TuningParams p;
  p.database_memory = 256 * kMiB;
  return p;
}

TEST_F(StmmControllerTest, LmocStartsAtInitialLockList) {
  Build(SmallParams());
  EXPECT_EQ(stmm_->lmoc(), params_.InitialLockMemory());
  EXPECT_EQ(stmm_->lmo(), 0);
}

TEST_F(StmmControllerTest, CompilerViewIsTenPercentAndStable) {
  Build(SmallParams());
  const Bytes view = stmm_->CompilerLockMemoryView();
  EXPECT_EQ(view, params_.database_memory / 10);
  // Stays fixed across growth (§3.6: a stable estimate, not instantaneous).
  HoldRows(1, 5000);
  stmm_->RunTuningPass();
  EXPECT_EQ(stmm_->CompilerLockMemoryView(), view);
}

TEST_F(StmmControllerTest, PollRunsOnePassPerInterval) {
  Build(SmallParams());
  clock_.Advance(params_.tuning_interval - 1);
  stmm_->Poll();
  EXPECT_TRUE(stmm_->history().empty());
  clock_.Advance(1);
  stmm_->Poll();
  EXPECT_EQ(stmm_->history().size(), 1u);
  clock_.Advance(3 * params_.tuning_interval);
  stmm_->Poll();
  EXPECT_EQ(stmm_->history().size(), 4u);
}

TEST_F(StmmControllerTest, SynchronousGrowthTakesOverflowAndRecordsLmo) {
  Build(SmallParams());
  const Bytes overflow_before = memory_->overflow_bytes();
  EXPECT_TRUE(stmm_->GrantSynchronousGrowth(2));
  EXPECT_EQ(stmm_->lmo(), 2 * kLockBlockSize);
  EXPECT_EQ(lock_heap_->size(),
            params_.InitialLockMemory() + 2 * kLockBlockSize);
  EXPECT_EQ(memory_->overflow_bytes(),
            overflow_before - 2 * kLockBlockSize);
}

TEST_F(StmmControllerTest, SynchronousGrowthDeniedAtMaxLockMemory) {
  Build(SmallParams());
  const int64_t blocks_to_max =
      BytesToBlocks(params_.MaxLockMemory() - lock_heap_->size());
  EXPECT_FALSE(stmm_->GrantSynchronousGrowth(blocks_to_max + 1));
  EXPECT_TRUE(stmm_->growth_was_constrained());
}

TEST_F(StmmControllerTest, SynchronousGrowthDeniedAtLmoMax) {
  Build(SmallParams());
  // LMOmax = C1·(overflow + LMO): a request for more than C1 of the entire
  // overflow must be denied even though overflow could cover it.
  const Bytes overflow = memory_->overflow_bytes();
  const int64_t too_many =
      BytesToBlocks(static_cast<Bytes>(0.70 * static_cast<double>(overflow)));
  EXPECT_FALSE(stmm_->GrantSynchronousGrowth(too_many));
  EXPECT_TRUE(stmm_->growth_was_constrained());
  // But a request inside the cap is fine.
  EXPECT_TRUE(stmm_->GrantSynchronousGrowth(1));
}

TEST_F(StmmControllerTest, TuningPassGrowsTowardMinFree) {
  Build(SmallParams());
  // Use ~90 % of the initial allocation.
  const int64_t slots = BytesToBlocks(params_.InitialLockMemory()) *
                        kLocksPerBlock * 9 / 10;
  HoldRows(1, slots - 1);
  stmm_->RunTuningPass();
  // After the pass at least half the lock memory is free.
  const Bytes allocated = locks_->allocated_bytes();
  const Bytes used = locks_->used_bytes();
  EXPECT_GE(allocated - used, allocated / 2 - kLockBlockSize);
  EXPECT_EQ(stmm_->lmoc(), allocated);
  EXPECT_EQ(stmm_->history().back().action, LockTunerAction::kGrow);
}

TEST_F(StmmControllerTest, TuningPassShrinksWhenOverFree) {
  Build(SmallParams());
  locks_->AddBlocks(64);
  ASSERT_TRUE(memory_->GrowHeap(lock_heap_, 64 * kLockBlockSize).ok());
  const Bytes before = locks_->allocated_bytes();
  stmm_->RunTuningPass();
  EXPECT_LT(locks_->allocated_bytes(), before);
  EXPECT_EQ(stmm_->history().back().action, LockTunerAction::kShrink);
  // Shrink proceeds ~5 % per interval, not all at once.
  EXPECT_GT(locks_->allocated_bytes(), before / 2);
}

TEST_F(StmmControllerTest, RepeatedPassesSettleIntoDeadBand) {
  Build(SmallParams());
  // Enough demand that the settled target exceeds minLockMemory (otherwise
  // the minimum clamp, not the free band, decides the size).
  HoldRows(1, 20'000);
  for (int i = 0; i < 60; ++i) stmm_->RunTuningPass();
  const Bytes allocated = locks_->allocated_bytes();
  const Bytes used = locks_->used_bytes();
  const double free_frac = static_cast<double>(allocated - used) /
                           static_cast<double>(allocated);
  // Inside (or at the block-rounded edge of) the [minFree, maxFree] band.
  EXPECT_GE(free_frac, params_.min_free_fraction - 0.05);
  EXPECT_LE(free_frac, params_.max_free_fraction + 0.05);
  // And the last passes did nothing (stable).
  EXPECT_EQ(stmm_->history().back().action, LockTunerAction::kNone);
}

TEST_F(StmmControllerTest, PassRegularizesLmoIntoLmoc) {
  Build(SmallParams());
  HoldRows(1, 10000);  // forces synchronous growth past the initial 4 blocks
  EXPECT_GT(stmm_->lmo(), 0);
  stmm_->RunTuningPass();
  EXPECT_EQ(stmm_->lmo(), 0);
  EXPECT_EQ(stmm_->lmoc(), lock_heap_->size());
}

TEST_F(StmmControllerTest, PassRestoresOverflowGoal) {
  Build(SmallParams());
  HoldRows(1, 3000);
  stmm_->RunTuningPass();
  EXPECT_NEAR(static_cast<double>(memory_->overflow_bytes()),
              static_cast<double>(params_.OverflowGoal()),
              static_cast<double>(2 * kLockBlockSize));
}

TEST_F(StmmControllerTest, SurplusOverflowGoesToPmcs) {
  Build(SmallParams());
  // Free a lot of lock memory: after shrink the surplus lands in PMCs, not
  // in overflow.
  locks_->AddBlocks(128);
  ASSERT_TRUE(memory_->GrowHeap(lock_heap_, 128 * kLockBlockSize).ok());
  const Bytes pmc_before = bp_->size() + sort_->size();
  for (int i = 0; i < 80; ++i) stmm_->RunTuningPass();
  EXPECT_GT(bp_->size() + sort_->size(), pmc_before);
  EXPECT_NEAR(static_cast<double>(memory_->overflow_bytes()),
              static_cast<double>(params_.OverflowGoal()),
              static_cast<double>(2 * kLockBlockSize));
}

TEST_F(StmmControllerTest, PmcsShrinkToFeedLockGrowth) {
  Build(SmallParams());
  // Drain overflow into the buffer pool so lock growth must displace PMCs.
  const Bytes overflow = memory_->overflow_bytes();
  ASSERT_TRUE(memory_->GrowHeap(bp_, overflow).ok());
  ASSERT_EQ(memory_->overflow_bytes(), 0);
  const Bytes bp_before = bp_->size();
  HoldRows(1, 6000);  // demand beyond the initial blocks
  stmm_->RunTuningPass();
  EXPECT_LT(bp_->size(), bp_before);
  EXPECT_GT(locks_->allocated_bytes(), params_.InitialLockMemory());
}

TEST_F(StmmControllerTest, EscalationUnderConstraintDoublesNextPass) {
  TuningParams p = SmallParams();
  Build(p);
  // Exhaust overflow so synchronous growth is denied.
  ASSERT_TRUE(memory_->GrowHeap(bp_, memory_->overflow_bytes()).ok());
  // Make PMCs unable to donate (min = current size is not settable, so
  // instead verify the doubling signal path directly).
  const int64_t capacity = BytesToBlocks(params_.InitialLockMemory()) *
                           kLocksPerBlock;
  HoldRows(1, capacity + 10);  // forces escalation (growth denied)
  EXPECT_GE(locks_->stats().escalations, 1);
  EXPECT_TRUE(stmm_->growth_was_constrained());
  const Bytes before = locks_->allocated_bytes();
  stmm_->RunTuningPass();
  const StmmIntervalRecord& rec = stmm_->history().back();
  EXPECT_EQ(rec.action, LockTunerAction::kDouble);
  // The pass displaced PMC memory to fund the doubling.
  EXPECT_GE(locks_->allocated_bytes(), before);
}

TEST_F(StmmControllerTest, HistoryRecordsFields) {
  Build(SmallParams());
  napps_ = 42;
  HoldRows(1, 100);
  clock_.Advance(params_.tuning_interval);
  stmm_->Poll();
  ASSERT_EQ(stmm_->history().size(), 1u);
  const StmmIntervalRecord& rec = stmm_->history().front();
  EXPECT_EQ(rec.time, clock_.now());
  EXPECT_EQ(rec.lock_allocated, locks_->allocated_bytes());
  EXPECT_EQ(rec.lock_used, locks_->used_bytes());
  EXPECT_EQ(rec.lmoc, stmm_->lmoc());
  EXPECT_GT(rec.maxlocks_percent, 0.0);
}

TEST_F(StmmControllerTest, MinLockMemoryReevaluatedWithConnections) {
  Build(SmallParams());
  napps_ = 130;
  stmm_->RunTuningPass();
  // minLockMemory(130) ≈ 4 MiB: the clamp grows the allocation.
  EXPECT_GE(locks_->allocated_bytes(), params_.MinLockMemory(130));
}

// 5,000 connections in a 512 MB database ask for minLockMemory = 152.6 MB,
// past maxLockMemory (102.4 MB). The pass grows the heap to maxLockMemory
// and configures exactly that: LMOC never names a size the heap cannot
// reach.
TEST_F(StmmControllerTest, LmocCappedAtMaxLockMemoryPastTheCrossing) {
  TuningParams p;
  p.database_memory = 512 * kMiB;
  Build(p);
  napps_ = 5000;
  ASSERT_GT(params_.MinLockMemory(napps_), params_.MaxLockMemory());
  HoldRows(1, 1000);
  stmm_->RunTuningPass();
  EXPECT_EQ(stmm_->lmoc(), params_.MaxLockMemory());
  EXPECT_EQ(locks_->allocated_bytes(), params_.MaxLockMemory());
  EXPECT_TRUE(stmm_->CheckConsistency().ok());
}

}  // namespace
}  // namespace locktune
