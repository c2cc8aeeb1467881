#include "engine/query_compiler.h"

#include <memory>

#include <gtest/gtest.h>

#include "engine/database.h"
#include "workload/app_store.h"
#include "workload/workload.h"

namespace locktune {
namespace {

TEST(QueryCompilerTest, RowPlanWhenEstimateFits) {
  QueryCompiler compiler([] { return Bytes{kMiB}; });
  // 1 MiB view = 16384 lock structures.
  EXPECT_EQ(compiler.ChooseGranularity(1000), LockGranularity::kRow);
  EXPECT_EQ(compiler.ChooseGranularity(16384), LockGranularity::kRow);
}

TEST(QueryCompilerTest, TablePlanWhenEstimateExceedsView) {
  QueryCompiler compiler([] { return Bytes{kMiB}; });
  EXPECT_EQ(compiler.ChooseGranularity(16385), LockGranularity::kTable);
  EXPECT_EQ(compiler.ChooseGranularity(1'000'000), LockGranularity::kTable);
}

TEST(QueryCompilerTest, SafetyFactorDiscountsView) {
  QueryCompiler tight([] { return Bytes{kMiB}; }, /*safety_factor=*/0.5);
  EXPECT_EQ(tight.ChooseGranularity(10'000), LockGranularity::kTable);
  EXPECT_EQ(tight.ChooseGranularity(8'000), LockGranularity::kRow);
}

TEST(QueryCompilerTest, CountsCompilations) {
  QueryCompiler compiler([] { return Bytes{kMiB}; });
  (void)compiler.ChooseGranularity(10);
  (void)compiler.ChooseGranularity(1'000'000);
  (void)compiler.ChooseGranularity(2'000'000);
  EXPECT_EQ(compiler.compiled_statements(), 3);
  EXPECT_EQ(compiler.table_lock_plans(), 2);
}

TEST(QueryCompilerTest, ViewIsReevaluatedPerStatement) {
  Bytes view = kMiB;
  QueryCompiler compiler([&view] { return view; });
  EXPECT_EQ(compiler.ChooseGranularity(20'000), LockGranularity::kTable);
  view = 4 * kMiB;
  EXPECT_EQ(compiler.ChooseGranularity(20'000), LockGranularity::kRow);
}

// --- integration with the application state machine (AppStore) ---

// A 50 000-row scan: needs 3.2 MB of lock structures — more than the
// initial 0.5 MB LOCKLIST, far less than the stable 25.6 MB compiler view.
class BigScanWorkload : public Workload {
 public:
  TransactionProfile NextTransaction(Rng&) override {
    TransactionProfile p;
    p.total_locks = 50'000;
    p.locks_per_tick = 5000;
    p.think_time = 200;
    return p;
  }
  RowAccess NextAccess(Rng&) override {
    return {/*table=*/2, next_row_++, LockMode::kS};
  }

 private:
  int64_t next_row_ = 0;
};

// Drives `store` through one full scheduler cycle (wheel advance, sweep,
// reconcile) — the per-tick protocol ScenarioRunner uses.
void TickStore(AppStore& store) {
  for (const uint32_t i : store.CollectRunnable()) store.Tick(i);
  store.FinishSweep();
}

class CompilerIntegrationTest : public ::testing::Test {
 protected:
  CompilerIntegrationTest() {
    DatabaseOptions o;
    o.params.database_memory = 256 * kMiB;
    db_ = Database::Open(o).value();
  }
  std::unique_ptr<Database> db_;
};

TEST_F(CompilerIntegrationTest, StableViewKeepsRowPlans) {
  // The stable §3.6 view: 10 % of database memory — far more than the scan
  // needs, so plans stay row-level even though the instantaneous lock
  // memory starts tiny.
  QueryCompiler compiler(
      [this] { return db_->stmm()->CompilerLockMemoryView(); });
  BigScanWorkload scan;
  AppStore store(db_.get(), 100);
  const uint32_t app = store.Add(1, &scan, /*seed=*/1);
  store.set_compiler(app, &compiler);
  store.Connect(app);
  for (int i = 0; i < 100; ++i) {
    TickStore(store);
    db_->Tick(100);
  }
  EXPECT_GT(store.stats(app).commits, 0);
  EXPECT_EQ(store.stats(app).table_plan_txns, 0);
  EXPECT_EQ(compiler.table_lock_plans(), 0);
}

TEST_F(CompilerIntegrationTest, InstantaneousViewBakesInTableLocks) {
  // The hazard §3.6 fixes: compiling against the live allocation — 0.5 MB
  // at the start — bakes a table-locking plan into the statement even
  // though the self-tuner would have grown the memory at runtime.
  QueryCompiler compiler(
      [this] { return db_->locks().allocated_bytes(); });
  BigScanWorkload scan;
  AppStore store(db_.get(), 100);
  const uint32_t app = store.Add(1, &scan, /*seed=*/1);
  store.set_compiler(app, &compiler);
  store.Connect(app);
  for (int i = 0; i < 30; ++i) {
    TickStore(store);
    db_->Tick(100);
  }
  EXPECT_GT(compiler.table_lock_plans(), 0);
  EXPECT_GT(store.stats(app).table_plan_txns, 0);
  // The coarse plan pre-empted growth: lock memory never expanded.
  EXPECT_EQ(db_->locks().allocated_bytes(),
            db_->options().params.InitialLockMemory());
}

TEST_F(CompilerIntegrationTest, TablePlanLocksTablesNotRows) {
  // Force table plans with a zero view.
  QueryCompiler compiler([] { return Bytes{0}; });
  BigScanWorkload scan;
  AppStore store(db_.get(), 100);
  const uint32_t app = store.Add(1, &scan, /*seed=*/1);
  store.set_compiler(app, &compiler);
  store.Connect(app);
  for (int i = 0; i < 5 && store.stats(app).commits == 0; ++i) {
    TickStore(store);
    db_->Tick(100);
  }
  EXPECT_GT(store.stats(app).table_plan_txns, 0);
  // Table plans consume (at most) one lock structure per table, not one
  // per row: after ~1000-row transactions the lock memory shows no growth.
  EXPECT_EQ(db_->locks().allocated_bytes(),
            db_->options().params.InitialLockMemory());
}

}  // namespace
}  // namespace locktune
