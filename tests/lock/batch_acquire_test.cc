// AcquireBatch contract tests: a batch must be observationally identical
// to the equivalent one-Lock()-per-item loop (conservation), must consume
// its source lazily (no draws past a blocked item), must carry escalation
// through and keep going, and concurrent batches from many threads must
// each grant in full (run under TSan via the chaos label).
#include "lock/lock_manager.h"

#include <memory>
#include <optional>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/units.h"

namespace locktune {
namespace {

constexpr TableId kOrders = 1;

// Source backed by a fixed vector, instrumented to count how many items
// the batch actually drew.
class VectorSource final : public LockRequestSource {
 public:
  explicit VectorSource(std::vector<BatchItem> items)
      : items_(std::move(items)) {}

  std::optional<BatchItem> Next() override {
    if (pos_ >= items_.size()) return std::nullopt;
    return items_[pos_++];
  }

  int64_t consumed() const { return static_cast<int64_t>(pos_); }

 private:
  std::vector<BatchItem> items_;
  size_t pos_ = 0;
};

std::vector<BatchItem> RowRange(TableId table, int64_t first, int64_t count,
                                LockMode mode = LockMode::kS) {
  std::vector<BatchItem> items;
  items.reserve(static_cast<size_t>(count));
  for (int64_t r = first; r < first + count; ++r) {
    items.push_back({RowResource(table, r), mode});
  }
  return items;
}

class BatchAcquireTest : public ::testing::Test {
 protected:
  struct Manager {
    std::unique_ptr<EscalationPolicy> policy;
    std::unique_ptr<LockManager> lm;
  };

  // Same configuration shape as lock_manager_test.cc's Make().
  static Manager Make(int64_t blocks, double maxlocks_percent) {
    Manager m;
    m.policy = std::make_unique<FixedMaxlocksPolicy>(maxlocks_percent);
    LockManagerOptions opts;
    opts.initial_blocks = blocks;
    opts.max_lock_memory = 64 * kMiB;
    opts.database_memory = kGiB;
    opts.policy = m.policy.get();
    m.lm = std::make_unique<LockManager>(std::move(opts));
    return m;
  }
};

// Conservation: one AcquireBatch leaves the manager in exactly the state
// the per-item Lock() loop does — same structures, same modes, same
// counters.
TEST_F(BatchAcquireTest, SerialBatchMatchesPerItemLoop) {
  Manager batched = Make(4, 90.0);
  Manager looped = Make(4, 90.0);
  const std::vector<BatchItem> items = RowRange(kOrders, 0, 50);

  VectorSource source(items);
  const BatchResult r = batched.lm->AcquireBatch(1, source);
  EXPECT_EQ(r.outcome, LockOutcome::kGranted);
  EXPECT_EQ(r.granted, 50);
  EXPECT_FALSE(r.escalated);

  for (const BatchItem& item : items) {
    ASSERT_EQ(looped.lm->Lock(1, item.resource, item.mode).outcome,
              LockOutcome::kGranted);
  }

  EXPECT_EQ(batched.lm->HeldStructures(1), looped.lm->HeldStructures(1));
  for (const BatchItem& item : items) {
    EXPECT_EQ(batched.lm->HeldMode(1, item.resource),
              looped.lm->HeldMode(1, item.resource));
  }
  EXPECT_EQ(batched.lm->HeldMode(1, TableResource(kOrders)),
            looped.lm->HeldMode(1, TableResource(kOrders)));
  const LockManagerStats bs = batched.lm->stats();
  const LockManagerStats ls = looped.lm->stats();
  EXPECT_EQ(bs.lock_requests, ls.lock_requests);
  EXPECT_EQ(bs.grants, ls.grants);
  EXPECT_EQ(bs.escalations, ls.escalations);
  EXPECT_EQ(bs.lock_waits, ls.lock_waits);
}

// A blocked item ends the batch: earlier grants stick, the blocked request
// queues, and the source is never drawn past the blocked item (the lazy
// contract that keeps RNG-backed sources replayable).
TEST_F(BatchAcquireTest, BatchStopsAtConflictWithoutDrawingFurther) {
  Manager m = Make(4, 90.0);
  ASSERT_EQ(m.lm->Lock(1, RowResource(kOrders, 5), LockMode::kX).outcome,
            LockOutcome::kGranted);

  VectorSource source(RowRange(kOrders, 4, 3));  // rows 4, 5, 6
  const BatchResult r = m.lm->AcquireBatch(2, source);
  EXPECT_EQ(r.outcome, LockOutcome::kWaiting);
  EXPECT_EQ(r.granted, 1);  // row 4 only
  EXPECT_TRUE(m.lm->IsBlocked(2));
  EXPECT_EQ(source.consumed(), 2);  // row 6 never drawn
  EXPECT_EQ(m.lm->HeldMode(2, RowResource(kOrders, 4)), LockMode::kS);

  // The queued request resumes like any Lock() wait.
  m.lm->ReleaseAll(1);
  EXPECT_FALSE(m.lm->IsBlocked(2));
  EXPECT_EQ(m.lm->HeldMode(2, RowResource(kOrders, 5)), LockMode::kS);
}

// Escalation mid-batch is not an error: the batch reports it and keeps
// granting (post-escalation row locks are covered by the table lock).
TEST_F(BatchAcquireTest, SerialBatchEscalatesAndContinues) {
  Manager m = Make(1, 10.0);  // quota: 204 structures, like the unit tests
  VectorSource source(RowRange(kOrders, 0, 250));
  const BatchResult r = m.lm->AcquireBatch(1, source);
  EXPECT_EQ(r.outcome, LockOutcome::kGranted);
  EXPECT_EQ(r.granted, 250);
  EXPECT_TRUE(r.escalated);
  EXPECT_EQ(m.lm->stats().escalations, 1);
  EXPECT_EQ(m.lm->HeldMode(1, TableResource(kOrders)), LockMode::kS);
  EXPECT_EQ(m.lm->HeldStructures(1), 1);  // just the table lock
}

TEST_F(BatchAcquireTest, EmptyBatchGrantsNothing) {
  Manager m = Make(4, 90.0);
  VectorSource source({});
  const BatchResult r = m.lm->AcquireBatch(1, source);
  EXPECT_EQ(r.outcome, LockOutcome::kGranted);
  EXPECT_EQ(r.granted, 0);
  EXPECT_EQ(m.lm->HeldStructures(1), 0);
}

// Many threads batching disjoint row ranges on one table: every batch
// grants fully, per-application footprints are exact, and TSan sees no
// races between batches that share the table's intent-lock head.
TEST_F(BatchAcquireTest, ConcurrentDisjointBatchesAllGrant) {
  constexpr int kThreads = 4;
  constexpr int64_t kRowsPerApp = 200;
  Manager m = Make(8, 90.0);

  std::vector<BatchResult> results(kThreads);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      VectorSource source(RowRange(kOrders, t * 100'000, kRowsPerApp));
      results[static_cast<size_t>(t)] =
          m.lm->AcquireBatch(static_cast<AppId>(t + 1), source);
    });
  }
  for (std::thread& th : threads) th.join();

  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(results[static_cast<size_t>(t)].outcome, LockOutcome::kGranted);
    EXPECT_EQ(results[static_cast<size_t>(t)].granted, kRowsPerApp);
    // Row locks plus the shared intent lock on the table.
    EXPECT_EQ(m.lm->HeldStructures(t + 1), kRowsPerApp + 1);
  }
  EXPECT_EQ(m.lm->stats().lock_waits, 0);
  for (int t = 0; t < kThreads; ++t) m.lm->ReleaseAll(t + 1);
  EXPECT_EQ(m.lm->used_bytes(), 0);
}

}  // namespace
}  // namespace locktune
