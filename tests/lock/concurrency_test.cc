// Thread-safety stress for LockManager: concurrent clients from real
// threads, each running acquire/release transactions, with invariants
// verified afterwards. `locktune_sim --threads N` drives the manager the
// same way: its worker threads call Lock/AcquireBatch/ReleaseAll
// concurrently, and every call serializes on the manager's mutex. The
// `paranoid_lock_table_concurrency` ctest entry reruns this file with
// LOCKTUNE_PARANOID=1 (runtime lock-rank checks on every acquisition); the
// TSan CI leg runs it for data races.
#include <atomic>
#include <memory>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "common/units.h"
#include "lock/lock_manager.h"

namespace locktune {
namespace {

class ConcurrencyTest : public ::testing::Test {
 protected:
  ConcurrencyTest() {
    Make(/*maxlocks_percent=*/90.0, /*initial_blocks=*/64,
         /*allow_growth=*/true);
  }

  void Make(double maxlocks_percent, int64_t initial_blocks,
            bool allow_growth) {
    lm_.reset();  // the old manager borrows the old policy
    policy_ = std::make_unique<FixedMaxlocksPolicy>(maxlocks_percent);
    LockManagerOptions opts;
    opts.initial_blocks = initial_blocks;
    opts.max_lock_memory = 64 * kMiB;
    opts.database_memory = kGiB;
    opts.policy = policy_.get();
    if (allow_growth) {
      opts.grow_callback = [](int64_t) { return true; };
    }
    lm_ = std::make_unique<LockManager>(std::move(opts));
  }

  std::unique_ptr<EscalationPolicy> policy_;
  std::unique_ptr<LockManager> lm_;
};

TEST_F(ConcurrencyTest, ParallelDisjointTransactions) {
  constexpr int kThreads = 4;
  constexpr int kTxnsPerThread = 200;
  constexpr int kLocksPerTxn = 50;
  std::vector<std::thread> threads;
  std::atomic<int64_t> granted{0};
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      const AppId app = t + 1;
      // Disjoint tables per thread: no waits, pure throughput.
      for (int txn = 0; txn < kTxnsPerThread; ++txn) {
        for (int64_t r = 0; r < kLocksPerTxn; ++r) {
          const LockResult res = lm_->Lock(
              app, RowResource(t, txn * kLocksPerTxn + r), LockMode::kX);
          if (res.outcome == LockOutcome::kGranted) {
            granted.fetch_add(1, std::memory_order_relaxed);
          }
        }
        lm_->ReleaseAll(app);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(granted.load(), kThreads * kTxnsPerThread * kLocksPerTxn);
  EXPECT_EQ(lm_->used_bytes(), 0);
  EXPECT_TRUE(lm_->CheckConsistency().ok());
}

TEST_F(ConcurrencyTest, ParallelContendedRows) {
  constexpr int kThreads = 4;
  constexpr int kOps = 50'000;
  std::vector<std::thread> threads;
  std::atomic<int64_t> waits{0};
  std::atomic<int> ready{0};
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      const AppId app = t + 1;
      Rng rng(static_cast<uint64_t>(t) + 1);
      // Start barrier: all threads begin the contended phase together.
      ready.fetch_add(1);
      while (ready.load() < kThreads) std::this_thread::yield();
      for (int i = 0; i < kOps; ++i) {
        // Shared 64-row hot set: real contention across threads.
        const int64_t row = static_cast<int64_t>(rng.NextBelow(64));
        const LockResult res =
            lm_->Lock(app, RowResource(9, row),
                      rng.NextBool(0.5) ? LockMode::kX : LockMode::kS);
        if (res.outcome == LockOutcome::kWaiting) {
          waits.fetch_add(1, std::memory_order_relaxed);
          // A waiting thread cannot issue more requests; roll back, as an
          // impatient application would.
          lm_->ReleaseAll(app);
        } else if (rng.NextBool(0.3)) {
          lm_->ReleaseAll(app);
        }
      }
      lm_->ReleaseAll(app);
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(lm_->used_bytes(), 0);
  EXPECT_EQ(lm_->waiting_app_count(), 0);
  EXPECT_TRUE(lm_->CheckConsistency().ok());
  // The accounting invariants above are the assertion; on a single-core
  // machine the scheduler may serialize the threads so coarsely that no
  // conflict materializes, so `waits` is informational only.
}

TEST_F(ConcurrencyTest, StatsReadableWhileRunning) {
  std::atomic<bool> stop{false};
  std::thread worker([&] {
    AppId app = 1;
    int64_t row = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      (void)lm_->Lock(app, RowResource(1, row++ % 10'000), LockMode::kS);
      if (row % 100 == 0) lm_->ReleaseAll(app);
    }
    lm_->ReleaseAll(app);
  });
  // Concurrent introspection must not crash or deadlock.
  for (int i = 0; i < 1000; ++i) {
    (void)lm_->MemoryState();
    (void)lm_->allocated_bytes();
    (void)lm_->waiting_app_count();
    (void)lm_->CurrentMaxlocksPercent();
  }
  stop.store(true);
  worker.join();
  EXPECT_TRUE(lm_->CheckConsistency().ok());
}

// Disjoint tables per thread at 8 threads: every request is grantable, and
// after the last commit the lock table is empty again (every head erased,
// every structure back on the block list).
TEST_F(ConcurrencyTest, DisjointDrainLeavesEmptyTable) {
  constexpr int kThreads = 8;
  constexpr int kTxns = 300;
  constexpr int64_t kLocksPerTxn = 40;
  std::atomic<int64_t> granted{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      const AppId app = t + 1;
      for (int txn = 0; txn < kTxns; ++txn) {
        for (int64_t r = 0; r < kLocksPerTxn; ++r) {
          const LockResult res = lm_->Lock(
              app, RowResource(t, txn * kLocksPerTxn + r), LockMode::kX);
          if (res.outcome == LockOutcome::kGranted) {
            granted.fetch_add(1, std::memory_order_relaxed);
          }
        }
        lm_->ReleaseAll(app);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(granted.load(), kThreads * kTxns * kLocksPerTxn);
  EXPECT_EQ(lm_->used_bytes(), 0);
  EXPECT_EQ(lm_->lock_table_size(), 0);
  EXPECT_TRUE(lm_->CheckConsistency().ok());
}

// Hot-row mix at 8 threads: every thread hammers the same 64 rows, so
// grants, conversions, waits, and grant cascades on release interleave
// across threads on the same heads.
TEST_F(ConcurrencyTest, HotRowContentionStaysConsistent) {
  constexpr int kThreads = 8;
  constexpr int kOps = 30'000;
  std::atomic<int> ready{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      const AppId app = t + 1;
      Rng rng(static_cast<uint64_t>(t) + 17);
      ready.fetch_add(1);
      while (ready.load() < kThreads) std::this_thread::yield();
      for (int i = 0; i < kOps; ++i) {
        const int64_t row = static_cast<int64_t>(rng.NextBelow(64));
        const LockResult res =
            lm_->Lock(app, RowResource(9, row),
                      rng.NextBool(0.5) ? LockMode::kX : LockMode::kS);
        if (res.outcome == LockOutcome::kWaiting) {
          // A waiting app cannot issue further requests; roll back like an
          // impatient client.
          lm_->ReleaseAll(app);
        } else if (rng.NextBool(0.3)) {
          lm_->ReleaseAll(app);
        }
      }
      lm_->ReleaseAll(app);
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(lm_->used_bytes(), 0);
  EXPECT_EQ(lm_->waiting_app_count(), 0);
  EXPECT_TRUE(lm_->CheckConsistency().ok());
}

// Escalation churn: a 1% quota with no growth forces constant escalation
// while other threads keep requesting and releasing.
TEST_F(ConcurrencyTest, EscalationUnderThreads) {
  Make(/*maxlocks_percent=*/1.0, /*initial_blocks=*/1,
       /*allow_growth=*/false);
  constexpr int kThreads = 4;
  constexpr int kTxns = 200;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      const AppId app = t + 1;
      for (int txn = 0; txn < kTxns; ++txn) {
        for (int64_t r = 0; r < 64; ++r) {
          (void)lm_->Lock(app, RowResource(t, r), LockMode::kX);
        }
        lm_->ReleaseAll(app);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_GT(lm_->stats().escalations, 0);
  EXPECT_EQ(lm_->used_bytes(), 0);
  EXPECT_TRUE(lm_->CheckConsistency().ok());
}

}  // namespace
}  // namespace locktune
