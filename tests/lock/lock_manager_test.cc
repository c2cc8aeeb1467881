#include "lock/lock_manager.h"

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/units.h"
#include "telemetry/metrics.h"
#include "telemetry/trace.h"

namespace locktune {
namespace {

constexpr TableId kOrders = 1;
constexpr TableId kStock = 2;

class LockManagerTest : public ::testing::Test {
 protected:
  // Builds a manager with `blocks` blocks, a fixed `maxlocks_percent`, and
  // optionally a growth callback that always grants.
  void Make(int64_t blocks, double maxlocks_percent, bool allow_growth) {
    policy_ = std::make_unique<FixedMaxlocksPolicy>(maxlocks_percent);
    LockManagerOptions opts;
    opts.initial_blocks = blocks;
    opts.max_lock_memory = 64 * kMiB;
    opts.database_memory = kGiB;
    opts.policy = policy_.get();
    if (allow_growth) {
      opts.grow_callback = [this](int64_t n) {
        grow_calls_ += n;
        return true;
      };
    }
    lm_ = std::make_unique<LockManager>(std::move(opts));
  }

  std::unique_ptr<EscalationPolicy> policy_;
  std::unique_ptr<LockManager> lm_;
  int64_t grow_calls_ = 0;
};

TEST_F(LockManagerTest, RowLockTakesIntentTableLock) {
  Make(4, 90.0, false);
  const LockResult r = lm_->Lock(1, RowResource(kOrders, 10), LockMode::kS);
  EXPECT_EQ(r.outcome, LockOutcome::kGranted);
  EXPECT_EQ(lm_->HeldMode(1, RowResource(kOrders, 10)), LockMode::kS);
  EXPECT_EQ(lm_->HeldMode(1, TableResource(kOrders)), LockMode::kIS);
  // Two structures: the row lock and the intent lock.
  EXPECT_EQ(lm_->HeldStructures(1), 2);
}

TEST_F(LockManagerTest, ExclusiveRowTakesIXIntent) {
  Make(4, 90.0, false);
  ASSERT_EQ(lm_->Lock(1, RowResource(kOrders, 1), LockMode::kX).outcome,
            LockOutcome::kGranted);
  EXPECT_EQ(lm_->HeldMode(1, TableResource(kOrders)), LockMode::kIX);
}

TEST_F(LockManagerTest, SharedRowLockJoinsGroup) {
  Make(4, 90.0, false);
  EXPECT_EQ(lm_->Lock(1, RowResource(kOrders, 5), LockMode::kS).outcome,
            LockOutcome::kGranted);
  EXPECT_EQ(lm_->Lock(2, RowResource(kOrders, 5), LockMode::kS).outcome,
            LockOutcome::kGranted);
  EXPECT_EQ(lm_->HeldMode(2, RowResource(kOrders, 5)), LockMode::kS);
}

TEST_F(LockManagerTest, ConflictingRequestWaits) {
  Make(4, 90.0, false);
  ASSERT_EQ(lm_->Lock(1, RowResource(kOrders, 5), LockMode::kX).outcome,
            LockOutcome::kGranted);
  EXPECT_EQ(lm_->Lock(2, RowResource(kOrders, 5), LockMode::kS).outcome,
            LockOutcome::kWaiting);
  EXPECT_TRUE(lm_->IsBlocked(2));
  EXPECT_EQ(lm_->waiting_app_count(), 1);
  EXPECT_EQ(lm_->stats().lock_waits, 1);
}

TEST_F(LockManagerTest, ReleaseGrantsWaiterFifo) {
  Make(4, 90.0, false);
  ASSERT_EQ(lm_->Lock(1, RowResource(kOrders, 5), LockMode::kX).outcome,
            LockOutcome::kGranted);
  ASSERT_EQ(lm_->Lock(2, RowResource(kOrders, 5), LockMode::kS).outcome,
            LockOutcome::kWaiting);
  ASSERT_EQ(lm_->Lock(3, RowResource(kOrders, 5), LockMode::kS).outcome,
            LockOutcome::kWaiting);
  lm_->ReleaseAll(1);
  // Both compatible share waiters drain in order.
  EXPECT_FALSE(lm_->IsBlocked(2));
  EXPECT_FALSE(lm_->IsBlocked(3));
  EXPECT_EQ(lm_->HeldMode(2, RowResource(kOrders, 5)), LockMode::kS);
  EXPECT_EQ(lm_->HeldMode(3, RowResource(kOrders, 5)), LockMode::kS);
}

TEST_F(LockManagerTest, NewRequestCannotOvertakeQueue) {
  Make(4, 90.0, false);
  ASSERT_EQ(lm_->Lock(1, RowResource(kOrders, 5), LockMode::kS).outcome,
            LockOutcome::kGranted);
  ASSERT_EQ(lm_->Lock(2, RowResource(kOrders, 5), LockMode::kX).outcome,
            LockOutcome::kWaiting);
  // S would be compatible with the S holder, but app 2 queued first.
  EXPECT_EQ(lm_->Lock(3, RowResource(kOrders, 5), LockMode::kS).outcome,
            LockOutcome::kWaiting);
  lm_->ReleaseAll(1);
  // App 2 (X) goes first; app 3 still waits behind it.
  EXPECT_FALSE(lm_->IsBlocked(2));
  EXPECT_TRUE(lm_->IsBlocked(3));
  lm_->ReleaseAll(2);
  EXPECT_FALSE(lm_->IsBlocked(3));
}

TEST_F(LockManagerTest, ReacquireIsIdempotent) {
  Make(4, 90.0, false);
  ASSERT_EQ(lm_->Lock(1, RowResource(kOrders, 5), LockMode::kS).outcome,
            LockOutcome::kGranted);
  const int64_t before = lm_->HeldStructures(1);
  EXPECT_EQ(lm_->Lock(1, RowResource(kOrders, 5), LockMode::kS).outcome,
            LockOutcome::kGranted);
  EXPECT_EQ(lm_->HeldStructures(1), before);  // no extra structure
}

TEST_F(LockManagerTest, SoleHolderConvertsImmediately) {
  Make(4, 90.0, false);
  ASSERT_EQ(lm_->Lock(1, RowResource(kOrders, 5), LockMode::kS).outcome,
            LockOutcome::kGranted);
  EXPECT_EQ(lm_->Lock(1, RowResource(kOrders, 5), LockMode::kX).outcome,
            LockOutcome::kGranted);
  EXPECT_EQ(lm_->HeldMode(1, RowResource(kOrders, 5)), LockMode::kX);
  // Intent strengthened to IX as well.
  EXPECT_EQ(lm_->HeldMode(1, TableResource(kOrders)), LockMode::kIX);
}

TEST_F(LockManagerTest, ConversionWaitsForOtherHolder) {
  Make(4, 90.0, false);
  ASSERT_EQ(lm_->Lock(1, RowResource(kOrders, 5), LockMode::kS).outcome,
            LockOutcome::kGranted);
  ASSERT_EQ(lm_->Lock(2, RowResource(kOrders, 5), LockMode::kS).outcome,
            LockOutcome::kGranted);
  EXPECT_EQ(lm_->Lock(1, RowResource(kOrders, 5), LockMode::kX).outcome,
            LockOutcome::kWaiting);
  lm_->ReleaseAll(2);
  EXPECT_FALSE(lm_->IsBlocked(1));
  EXPECT_EQ(lm_->HeldMode(1, RowResource(kOrders, 5)), LockMode::kX);
}

TEST_F(LockManagerTest, ConversionJumpsAheadOfNewWaiters) {
  Make(4, 90.0, false);
  ASSERT_EQ(lm_->Lock(1, RowResource(kOrders, 5), LockMode::kS).outcome,
            LockOutcome::kGranted);
  ASSERT_EQ(lm_->Lock(2, RowResource(kOrders, 5), LockMode::kS).outcome,
            LockOutcome::kGranted);
  ASSERT_EQ(lm_->Lock(3, RowResource(kOrders, 5), LockMode::kX).outcome,
            LockOutcome::kWaiting);
  // App 1's conversion queues ahead of app 3's new X request.
  ASSERT_EQ(lm_->Lock(1, RowResource(kOrders, 5), LockMode::kX).outcome,
            LockOutcome::kWaiting);
  lm_->ReleaseAll(2);
  EXPECT_FALSE(lm_->IsBlocked(1));
  EXPECT_EQ(lm_->HeldMode(1, RowResource(kOrders, 5)), LockMode::kX);
  EXPECT_TRUE(lm_->IsBlocked(3));
}

TEST_F(LockManagerTest, ReleaseAllFreesEverything) {
  Make(4, 90.0, false);
  for (int64_t row = 0; row < 50; ++row) {
    ASSERT_EQ(lm_->Lock(1, RowResource(kOrders, row), LockMode::kS).outcome,
              LockOutcome::kGranted);
  }
  EXPECT_EQ(lm_->HeldStructures(1), 51);
  EXPECT_EQ(lm_->used_bytes(), 51 * kLockStructSize);
  lm_->ReleaseAll(1);
  EXPECT_EQ(lm_->HeldStructures(1), 0);
  EXPECT_EQ(lm_->used_bytes(), 0);
  EXPECT_TRUE(lm_->CheckConsistency().ok());

  // Disjoint writers share the table's intent head: each holds its rows
  // plus its own IX structure, nobody waits, and once every application
  // has released, every head is gone.
  constexpr int64_t kRows = 200;
  for (AppId app = 1; app <= 4; ++app) {
    for (int64_t row = app * 100'000; row < app * 100'000 + kRows; ++row) {
      ASSERT_EQ(lm_->Lock(app, RowResource(kOrders, row), LockMode::kX)
                    .outcome,
                LockOutcome::kGranted);
    }
  }
  for (AppId app = 1; app <= 4; ++app) {
    EXPECT_EQ(lm_->HeldStructures(app), kRows + 1);
  }
  EXPECT_EQ(lm_->stats().lock_waits, 0);
  for (AppId app = 1; app <= 4; ++app) lm_->ReleaseAll(app);
  EXPECT_EQ(lm_->used_bytes(), 0);
  EXPECT_EQ(lm_->lock_table_size(), 0);
  EXPECT_TRUE(lm_->CheckConsistency().ok());
}

TEST_F(LockManagerTest, ReleaseSingleResource) {
  Make(4, 90.0, false);
  ASSERT_EQ(lm_->Lock(1, RowResource(kOrders, 1), LockMode::kS).outcome,
            LockOutcome::kGranted);
  EXPECT_TRUE(lm_->Release(1, RowResource(kOrders, 1)).ok());
  EXPECT_EQ(lm_->HeldMode(1, RowResource(kOrders, 1)), LockMode::kNone);
  // Releasing again reports NOT_FOUND.
  EXPECT_EQ(lm_->Release(1, RowResource(kOrders, 1)).code(),
            StatusCode::kNotFound);
}

TEST_F(LockManagerTest, ReleaseAllOfWaiterRemovesQueueEntry) {
  Make(4, 90.0, false);
  ASSERT_EQ(lm_->Lock(1, RowResource(kOrders, 5), LockMode::kX).outcome,
            LockOutcome::kGranted);
  ASSERT_EQ(lm_->Lock(2, RowResource(kOrders, 5), LockMode::kX).outcome,
            LockOutcome::kWaiting);
  ASSERT_EQ(lm_->Lock(3, RowResource(kOrders, 5), LockMode::kX).outcome,
            LockOutcome::kWaiting);
  lm_->ReleaseAll(2);  // abort the first waiter
  EXPECT_FALSE(lm_->IsBlocked(2));
  lm_->ReleaseAll(1);
  // App 3 moves up and gets the lock.
  EXPECT_FALSE(lm_->IsBlocked(3));
  EXPECT_EQ(lm_->HeldMode(3, RowResource(kOrders, 5)), LockMode::kX);
}

// --- escalation ---

TEST_F(LockManagerTest, QuotaEscalationToShareTableLock) {
  // 1 block = 2048 slots; 10 % quota = 204 structures.
  Make(1, 10.0, false);
  LockResult last;
  int64_t rows = 0;
  for (; rows < 300; ++rows) {
    last = lm_->Lock(1, RowResource(kOrders, rows), LockMode::kS);
    ASSERT_EQ(last.outcome, LockOutcome::kGranted);
    if (last.escalated) break;
  }
  ASSERT_TRUE(last.escalated) << "quota escalation never triggered";
  EXPECT_EQ(rows, 203);  // 203 rows + 1 intent = 204 structures held
  EXPECT_EQ(lm_->stats().escalations, 1);
  EXPECT_EQ(lm_->stats().exclusive_escalations, 0);
  // The table lock is S; the row locks are gone.
  EXPECT_EQ(lm_->HeldMode(1, TableResource(kOrders)), LockMode::kS);
  EXPECT_EQ(lm_->HeldMode(1, RowResource(kOrders, 0)), LockMode::kNone);
  // Only the table lock remains (the escalating request is covered by it).
  EXPECT_EQ(lm_->HeldStructures(1), 1);
}

TEST_F(LockManagerTest, EscalationWithWritesTakesXTableLock) {
  Make(1, 10.0, false);
  LockResult last;
  for (int64_t rows = 0; rows < 300; ++rows) {
    last = lm_->Lock(1, RowResource(kOrders, rows), LockMode::kX);
    ASSERT_EQ(last.outcome, LockOutcome::kGranted);
    if (last.escalated) break;
  }
  ASSERT_TRUE(last.escalated);
  EXPECT_EQ(lm_->stats().exclusive_escalations, 1);
  EXPECT_EQ(lm_->HeldMode(1, TableResource(kOrders)), LockMode::kX);
}

TEST_F(LockManagerTest, PostEscalationRowLocksAreFree) {
  Make(1, 10.0, false);
  LockResult last;
  int64_t rows = 0;
  for (; rows < 300; ++rows) {
    last = lm_->Lock(1, RowResource(kOrders, rows), LockMode::kS);
    if (last.escalated) break;
  }
  ASSERT_TRUE(last.escalated);
  const int64_t structures = lm_->HeldStructures(1);
  // Further row reads on the escalated table consume no lock memory.
  for (int64_t more = 0; more < 1000; ++more) {
    ASSERT_EQ(
        lm_->Lock(1, RowResource(kOrders, 10'000 + more), LockMode::kS)
            .outcome,
        LockOutcome::kGranted);
  }
  EXPECT_EQ(lm_->HeldStructures(1), structures);
}

TEST_F(LockManagerTest, EscalationPicksMostLockedTable) {
  Make(1, 10.0, false);
  // 150 rows on kStock, then push past the quota on kOrders rows; kStock
  // has more rows at escalation time... build the opposite: more on kStock.
  for (int64_t r = 0; r < 150; ++r) {
    ASSERT_EQ(lm_->Lock(1, RowResource(kStock, r), LockMode::kS).outcome,
              LockOutcome::kGranted);
  }
  LockResult last;
  for (int64_t r = 0; r < 100; ++r) {
    last = lm_->Lock(1, RowResource(kOrders, r), LockMode::kS);
    ASSERT_EQ(last.outcome, LockOutcome::kGranted);
    if (last.escalated) break;
  }
  ASSERT_TRUE(last.escalated);
  // kStock had 150 row locks vs ~52 on kOrders: kStock escalates.
  EXPECT_EQ(lm_->HeldMode(1, TableResource(kStock)), LockMode::kS);
  EXPECT_EQ(lm_->HeldMode(1, RowResource(kStock, 0)), LockMode::kNone);
  // kOrders row locks survive.
  EXPECT_EQ(lm_->HeldMode(1, RowResource(kOrders, 0)), LockMode::kS);
}

TEST_F(LockManagerTest, EscalationKeepsSurvivingLocksInGrantOrder) {
  Make(1, 10.0, false);
  // Grant order: a kStock row, kOrders row 0, more kStock rows, kOrders
  // row 1, then kStock rows until kStock escalates. The two kOrders rows
  // survive, and must stay in grant order: commit releases in that order,
  // so it decides which waiter behind them is granted first.
  ASSERT_EQ(lm_->Lock(1, RowResource(kStock, 0), LockMode::kS).outcome,
            LockOutcome::kGranted);
  ASSERT_EQ(lm_->Lock(1, RowResource(kOrders, 0), LockMode::kS).outcome,
            LockOutcome::kGranted);
  for (int64_t r = 1; r < 50; ++r) {
    ASSERT_EQ(lm_->Lock(1, RowResource(kStock, r), LockMode::kS).outcome,
              LockOutcome::kGranted);
  }
  ASSERT_EQ(lm_->Lock(1, RowResource(kOrders, 1), LockMode::kS).outcome,
            LockOutcome::kGranted);
  LockResult last;
  for (int64_t r = 50; r < 300 && !last.escalated; ++r) {
    last = lm_->Lock(1, RowResource(kStock, r), LockMode::kS);
    ASSERT_EQ(last.outcome, LockOutcome::kGranted);
  }
  ASSERT_TRUE(last.escalated);
  ASSERT_EQ(lm_->HeldMode(1, TableResource(kStock)), LockMode::kS);
  ASSERT_EQ(lm_->Lock(2, RowResource(kOrders, 0), LockMode::kX).outcome,
            LockOutcome::kWaiting);
  ASSERT_EQ(lm_->Lock(3, RowResource(kOrders, 1), LockMode::kX).outcome,
            LockOutcome::kWaiting);
  MemoryTraceSink sink;
  lm_->set_trace_sink(&sink);
  lm_->ReleaseAll(1);
  ASSERT_EQ(sink.records().size(), 2u);  // the two WAIT_ENDs
  EXPECT_EQ(*sink.records()[0].Find("app"), "2");
  EXPECT_EQ(*sink.records()[1].Find("app"), "3");
  EXPECT_TRUE(lm_->CheckConsistency().ok());
}

TEST_F(LockManagerTest, EscalationConversionWaitsForConflicts) {
  Make(1, 10.0, false);
  // App 2 holds a row X on kOrders (hence IX on the table): app 1's S
  // escalation on kOrders must wait for it.
  ASSERT_EQ(lm_->Lock(2, RowResource(kOrders, 9999), LockMode::kX).outcome,
            LockOutcome::kGranted);
  LockResult last;
  int64_t rows = 0;
  for (; rows < 300; ++rows) {
    last = lm_->Lock(1, RowResource(kOrders, rows), LockMode::kS);
    if (last.outcome != LockOutcome::kGranted) break;
  }
  EXPECT_EQ(last.outcome, LockOutcome::kWaiting);
  EXPECT_TRUE(last.escalated);
  EXPECT_TRUE(lm_->IsBlocked(1));
  // Row locks are still held while the escalation waits.
  EXPECT_EQ(lm_->HeldMode(1, RowResource(kOrders, 0)), LockMode::kS);
  // App 2 commits: escalation completes and the pending request resumes.
  lm_->ReleaseAll(2);
  EXPECT_FALSE(lm_->IsBlocked(1));
  EXPECT_EQ(lm_->HeldMode(1, TableResource(kOrders)), LockMode::kS);
  EXPECT_EQ(lm_->HeldMode(1, RowResource(kOrders, 0)), LockMode::kNone);
  EXPECT_EQ(lm_->stats().escalations, 1);
  EXPECT_TRUE(lm_->CheckConsistency().ok());
}

// --- memory growth ---

TEST_F(LockManagerTest, SynchronousGrowthOnExhaustion) {
  // Split the demand across two applications so neither hits the per-app
  // quota (which always trails the capacity) before the block exhausts.
  Make(1, 100.0, /*allow_growth=*/true);
  for (int64_t r = 0; r < (kLocksPerBlock + 100) / 2; ++r) {
    ASSERT_EQ(lm_->Lock(1, RowResource(kOrders, r), LockMode::kS).outcome,
              LockOutcome::kGranted);
    ASSERT_EQ(lm_->Lock(2, RowResource(kStock, r), LockMode::kS).outcome,
              LockOutcome::kGranted);
  }
  EXPECT_GE(grow_calls_, 1);
  EXPECT_EQ(lm_->stats().sync_growth_blocks, grow_calls_);
  EXPECT_EQ(lm_->block_count(), 1 + grow_calls_);
  EXPECT_TRUE(lm_->CheckConsistency().ok());
}

TEST_F(LockManagerTest, GrowthDeniedSelfEscalates) {
  // 100 % quota: only genuine slot exhaustion can force escalation.
  Make(1, 100.0, /*allow_growth=*/false);
  LockResult last;
  int64_t granted_rows = 0;
  for (int64_t r = 0; r < kLocksPerBlock + 100; ++r) {
    last = lm_->Lock(1, RowResource(kOrders, r), LockMode::kS);
    if (last.outcome != LockOutcome::kGranted || last.escalated) break;
    ++granted_rows;
  }
  // The sole application escalates itself rather than failing.
  EXPECT_TRUE(last.escalated);
  EXPECT_EQ(last.outcome, LockOutcome::kGranted);
  EXPECT_EQ(lm_->HeldMode(1, TableResource(kOrders)), LockMode::kS);
  EXPECT_GT(granted_rows, 2000);
  EXPECT_EQ(lm_->stats().out_of_memory_failures, 0);
}

TEST_F(LockManagerTest, MemoryEscalationPrefersImmediateVictim) {
  Make(1, 100.0, false);
  // App 1 fills most of the block with S row locks on kStock (escalatable
  // immediately since nobody conflicts with S on that table).
  for (int64_t r = 0; r < kLocksPerBlock - 10; ++r) {
    ASSERT_EQ(lm_->Lock(1, RowResource(kStock, r), LockMode::kS).outcome,
              LockOutcome::kGranted);
  }
  // App 2 needs structures; app 1 is the victim with the most row locks.
  LockResult last;
  for (int64_t r = 0; r < 100; ++r) {
    last = lm_->Lock(2, RowResource(kOrders, r), LockMode::kS);
    ASSERT_EQ(last.outcome, LockOutcome::kGranted);
    if (last.escalated) break;
  }
  EXPECT_TRUE(last.escalated);
  EXPECT_EQ(lm_->HeldMode(1, TableResource(kStock)), LockMode::kS);
  EXPECT_GE(lm_->stats().escalations, 1);
  EXPECT_TRUE(lm_->CheckConsistency().ok());
}

TEST_F(LockManagerTest, OutOfMemoryWhenNothingEscalatable) {
  // Table locks only (no row locks anywhere): nothing to escalate.
  Make(1, 98.0, false);
  for (int64_t t = 0; t < kLocksPerBlock; ++t) {
    ASSERT_EQ(
        lm_->Lock(1, TableResource(static_cast<TableId>(t)), LockMode::kIS)
            .outcome,
        LockOutcome::kGranted);
  }
  const LockResult r =
      lm_->Lock(1, TableResource(99'999), LockMode::kIS);
  EXPECT_EQ(r.outcome, LockOutcome::kOutOfMemory);
  EXPECT_GE(lm_->stats().out_of_memory_failures, 1);
}

// --- tuning interface ---

TEST_F(LockManagerTest, AddAndRemoveBlocks) {
  Make(2, 90.0, false);
  lm_->AddBlocks(3);
  EXPECT_EQ(lm_->block_count(), 5);
  EXPECT_EQ(lm_->allocated_bytes(), 5 * kLockBlockSize);
  EXPECT_TRUE(lm_->TryRemoveBlocks(4).ok());
  EXPECT_EQ(lm_->block_count(), 1);
  // The remaining block is entirely free; removing it is legal too.
  EXPECT_TRUE(lm_->TryRemoveBlocks(1).ok());
  EXPECT_EQ(lm_->block_count(), 0);
}

TEST_F(LockManagerTest, RemoveBlocksFailsWhenInUse) {
  Make(2, 90.0, false);
  for (int64_t r = 0; r < kLocksPerBlock + 10; ++r) {
    ASSERT_EQ(lm_->Lock(1, RowResource(kOrders, r), LockMode::kS).outcome,
              LockOutcome::kGranted);
  }
  EXPECT_FALSE(lm_->TryRemoveBlocks(1).ok());
  lm_->ReleaseAll(1);
  EXPECT_TRUE(lm_->TryRemoveBlocks(1).ok());
}

TEST_F(LockManagerTest, MemoryStateSnapshot) {
  Make(2, 90.0, false);
  ASSERT_EQ(lm_->Lock(1, RowResource(kOrders, 1), LockMode::kS).outcome,
            LockOutcome::kGranted);
  const LockMemoryState s = lm_->MemoryState();
  EXPECT_EQ(s.allocated, 2 * kLockBlockSize);
  EXPECT_EQ(s.used, 2 * kLockStructSize);
  EXPECT_EQ(s.capacity_slots, 2 * kLocksPerBlock);
  EXPECT_EQ(s.slots_in_use, 2);
  EXPECT_EQ(s.max_lock_memory, 64 * kMiB);
  EXPECT_EQ(s.database_memory, kGiB);
}

TEST_F(LockManagerTest, SetMaxLockMemory) {
  Make(2, 90.0, false);
  lm_->set_max_lock_memory(128 * kMiB);
  EXPECT_EQ(lm_->MemoryState().max_lock_memory, 128 * kMiB);
}

// The largest table id and row number the packed key holds are ordinary
// resources: they lock, report their mode and release like any other.
TEST_F(LockManagerTest, PackedKeyExtremesLockAndRelease) {
  Make(4, 90.0, false);
  const TableId max_table = static_cast<TableId>(kMaxPackedTables - 1);
  const ResourceId far_row = RowResource(max_table, kMaxPackedRows - 1);
  ASSERT_EQ(lm_->Lock(1, far_row, LockMode::kX).outcome,
            LockOutcome::kGranted);
  ASSERT_EQ(lm_->Lock(1, RowResource(max_table, 0), LockMode::kS).outcome,
            LockOutcome::kGranted);
  EXPECT_EQ(lm_->HeldMode(1, far_row), LockMode::kX);
  EXPECT_EQ(lm_->HeldMode(1, TableResource(max_table)), LockMode::kIX);
  EXPECT_EQ(lm_->CheckConsistency(), Status::Ok());
  ASSERT_TRUE(lm_->Release(1, far_row).ok());
  EXPECT_EQ(lm_->HeldMode(1, far_row), LockMode::kNone);
  lm_->ReleaseAll(1);
  EXPECT_EQ(lm_->lock_table_size(), 0);
}

// The inspector-only directory gauge reports the lock table's slot count:
// 16 slots once the first head exists, doubling past 3/4 occupancy.
TEST_F(LockManagerTest, DirectorySlotsGaugeTracksTheDirectory) {
  Make(4, 90.0, false);
  MetricsRegistry registry;
  lm_->RegisterInternalMetrics(&registry);
  const auto directory_slots = [&registry]() -> std::optional<double> {
    for (const MetricSample& sample : registry.Collect()) {
      if (sample.name == "locktune_lock_table_directory_slots") {
        return sample.value;
      }
    }
    return std::nullopt;
  };
  ASSERT_EQ(directory_slots(), 0.0);
  ASSERT_EQ(lm_->Lock(1, RowResource(kOrders, 1), LockMode::kS).outcome,
            LockOutcome::kGranted);
  EXPECT_EQ(directory_slots(), 16.0);
  for (int64_t r = 2; r <= 12; ++r) {
    ASSERT_EQ(lm_->Lock(1, RowResource(kOrders, r), LockMode::kS).outcome,
              LockOutcome::kGranted);
  }
  // 12 rows + 1 intent head pass 3/4 of 16 slots.
  EXPECT_EQ(lm_->lock_table_size(), 13);
  EXPECT_EQ(directory_slots(), 32.0);
  EXPECT_EQ(lm_->lock_table_directory_slots(), 32);
}

TEST_F(LockManagerTest, StatsCountRequestsAndGrants) {
  Make(4, 90.0, false);
  ASSERT_EQ(lm_->Lock(1, RowResource(kOrders, 1), LockMode::kS).outcome,
            LockOutcome::kGranted);
  ASSERT_EQ(lm_->Lock(1, RowResource(kOrders, 2), LockMode::kS).outcome,
            LockOutcome::kGranted);
  EXPECT_EQ(lm_->stats().lock_requests, 2);
  // Grants include the implicit intent lock: 1 intent + 2 rows.
  EXPECT_EQ(lm_->stats().grants, 3);
}

// A resource reaches the lock table as one packed key word (24 table bits,
// 1 kind bit, 39 row bits), so every entry point CHECKs the ranges before
// packing: an out-of-range id would otherwise alias another resource.
TEST(LockManagerDeathTest, OutOfRangeResourcesAreRejectedBeforePacking) {
  FixedMaxlocksPolicy policy(90.0);
  LockManagerOptions opts;
  opts.initial_blocks = 1;
  opts.max_lock_memory = 64 * kMiB;
  opts.policy = &policy;
  LockManager lm(std::move(opts));
  const TableId too_many = static_cast<TableId>(kMaxPackedTables);
  const char* kMessage = "CHECK failed: FitsPackedKey";
  EXPECT_DEATH(lm.Lock(1, TableResource(too_many), LockMode::kS), kMessage);
  EXPECT_DEATH(lm.Lock(1, TableResource(-1), LockMode::kS), kMessage);
  EXPECT_DEATH(lm.Lock(1, RowResource(1, kMaxPackedRows), LockMode::kS),
               kMessage);
  EXPECT_DEATH(lm.Lock(1, RowResource(1, -1), LockMode::kS), kMessage);
  EXPECT_DEATH((void)lm.Release(1, RowResource(1, kMaxPackedRows)), kMessage);
  EXPECT_DEATH((void)lm.HeldMode(1, TableResource(too_many)), kMessage);
  // Nothing leaked into the parent's manager.
  EXPECT_EQ(lm.lock_table_size(), 0);
}

}  // namespace
}  // namespace locktune
