// Per-site error-path tests for the fault-injection layer: every injection
// site (heap-growth refusal, async resize denial, mid-transaction kill)
// must degrade gracefully and leave lock-table and memory accounting
// conserved after recovery.
#include <algorithm>
#include <memory>
#include <string>

#include <gtest/gtest.h>

#include "core/stmm_controller.h"
#include "fault/degradation_ledger.h"
#include "fault/fault_plan.h"
#include "telemetry/trace.h"
#include "workload/app_store.h"
#include "workload/workload.h"

namespace locktune {
namespace {

FaultWindowSpec DenyWindow(const std::string& heap, TimeMs from,
                           TimeMs until) {
  FaultWindowSpec w;
  w.kind = FaultKind::kDenyHeapGrowth;
  w.heap = heap;
  w.from = from;
  w.until = until;
  return w;
}

FaultWindowSpec SqueezeWindow(Bytes amount, TimeMs from, TimeMs until) {
  FaultWindowSpec w;
  w.kind = FaultKind::kSqueezeOverflow;
  w.heap = "*";
  w.amount = amount;
  w.from = from;
  w.until = until;
  return w;
}

// ---------------------------------------------------------------------------
// Site 1: DatabaseMemory::GrowHeap — allocation refusal.
// ---------------------------------------------------------------------------

class FaultSiteMemoryTest : public ::testing::Test {
 protected:
  FaultSiteMemoryTest() : memory_(64 * kMiB, 16 * kMiB) {
    lock_ = memory_
                .RegisterHeap("locklist", ConsumerClass::kFunctional,
                              8 * kMiB, kMiB, 64 * kMiB)
                .value();
    sort_ = memory_
                .RegisterHeap("sort", ConsumerClass::kPerformance, 8 * kMiB,
                              kMiB, 64 * kMiB)
                .value();
  }

  SimClock clock_;
  DatabaseMemory memory_;
  MemoryHeap* lock_ = nullptr;
  MemoryHeap* sort_ = nullptr;
};

TEST_F(FaultSiteMemoryTest, RefusalLeavesAccountingUntouched) {
  FaultPlanSpec spec;
  spec.windows.push_back(DenyWindow("locklist", 0, 1000));
  FaultPlan plan(spec, &clock_);
  memory_.set_fault_plan(&plan);

  const Bytes lock_before = lock_->size();
  const Bytes overflow_before = memory_.overflow_bytes();
  const Status denied = memory_.GrowHeap(lock_, kMiB);
  EXPECT_EQ(denied.code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(lock_->size(), lock_before);
  EXPECT_EQ(memory_.overflow_bytes(), overflow_before);
  EXPECT_TRUE(memory_.CheckConsistency().ok());

  // Only the named heap is refused; shrinks are never injected.
  EXPECT_TRUE(memory_.GrowHeap(sort_, kMiB).ok());
  EXPECT_TRUE(memory_.ShrinkHeap(lock_, kMiB).ok());
  EXPECT_TRUE(memory_.CheckConsistency().ok());

  // After the window the same grow succeeds with exact accounting.
  clock_.Advance(1000);
  const Bytes overflow_mid = memory_.overflow_bytes();
  ASSERT_TRUE(memory_.GrowHeap(lock_, kMiB).ok());
  EXPECT_EQ(memory_.overflow_bytes(), overflow_mid - kMiB);
  EXPECT_TRUE(memory_.CheckConsistency().ok());
}

TEST_F(FaultSiteMemoryTest, TransferStaysAtomicUnderWildcardDeny) {
  FaultPlanSpec spec;
  spec.windows.push_back(DenyWindow("*", 0, 1000));
  FaultPlan plan(spec, &clock_);
  memory_.set_fault_plan(&plan);

  // Transfer shrinks `from`, then grows `to`; the grow is refused by the
  // wildcard window and the internal rollback re-grow must bypass
  // injection, or a graceful denial would turn into a half-applied move.
  const Bytes from_before = sort_->size();
  const Bytes to_before = lock_->size();
  const Bytes overflow_before = memory_.overflow_bytes();
  EXPECT_FALSE(memory_.Transfer(sort_, lock_, 2 * kMiB).ok());
  EXPECT_EQ(sort_->size(), from_before);
  EXPECT_EQ(lock_->size(), to_before);
  EXPECT_EQ(memory_.overflow_bytes(), overflow_before);
  EXPECT_TRUE(memory_.CheckConsistency().ok());
}

TEST_F(FaultSiteMemoryTest, SqueezeWindowWithholdsTheReserve) {
  FaultPlanSpec spec;
  spec.windows.push_back(SqueezeWindow(64 * kMiB, 100, 200));
  FaultPlan plan(spec, &clock_);
  memory_.set_fault_plan(&plan);

  EXPECT_TRUE(memory_.GrowHeap(lock_, kMiB).ok());
  clock_.Advance(100);
  // A squeeze of the entire database memory denies every grow.
  const Bytes overflow_before = memory_.overflow_bytes();
  EXPECT_EQ(memory_.GrowHeap(lock_, kMiB).code(),
            StatusCode::kResourceExhausted);
  EXPECT_EQ(memory_.overflow_bytes(), overflow_before);
  clock_.Advance(100);
  ASSERT_TRUE(memory_.GrowHeap(lock_, kMiB).ok());
  EXPECT_EQ(memory_.overflow_bytes(), overflow_before - kMiB);
  EXPECT_TRUE(memory_.CheckConsistency().ok());
}

// ---------------------------------------------------------------------------
// Site 2: StmmController — synchronous and asynchronous resize denial.
// ---------------------------------------------------------------------------

constexpr TableId kTable = 1;

// Miniature STMM stack (mirrors tests/core/stmm_controller_test.cc) with a
// fault plan on the memory set and a degradation ledger on the controller.
class FaultSiteStmmTest : public ::testing::Test {
 protected:
  void Build(const FaultPlanSpec& fault_spec) {
    params_.database_memory = 256 * kMiB;
    ASSERT_TRUE(params_.Validate().ok());
    memory_ = std::make_unique<DatabaseMemory>(params_.database_memory,
                                               params_.OverflowGoal());
    bp_ = memory_
              ->RegisterHeap("bp", ConsumerClass::kPerformance,
                             params_.database_memory / 2,
                             params_.database_memory / 16,
                             params_.database_memory)
              .value();
    pmcs_.AddConsumer(bp_, 3.0e18);
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
        [] { return 1; });
    fault_ = std::make_unique<FaultPlan>(fault_spec, &clock_);
    ledger_ = std::make_unique<DegradationLedger>(&clock_);
    fault_->set_ledger(ledger_.get());
    ledger_->set_trace_sink(&trace_);
    memory_->set_fault_plan(fault_.get());
    stmm_->set_degradation_ledger(ledger_.get());
    stmm_->set_trace_sink(&trace_);
  }

  void HoldRows(AppId app, int64_t n) {
    for (int64_t i = 0; i < n; ++i) {
      ASSERT_EQ(locks_->Lock(app, RowResource(kTable, i), LockMode::kS)
                    .outcome,
                LockOutcome::kGranted);
    }
  }

  int CountBackoff(const std::string& action) const {
    int n = 0;
    for (const TraceRecord& r : trace_.records()) {
      if (r.kind() == "grow_backoff" &&
          *r.Find("action") == "\"" + action + "\"") {
        ++n;
      }
    }
    return n;
  }

  TuningParams params_;
  SimClock clock_;
  std::unique_ptr<DatabaseMemory> memory_;
  MemoryHeap* bp_ = nullptr;
  MemoryHeap* lock_heap_ = nullptr;
  PmcModel pmcs_;
  std::unique_ptr<AdaptiveMaxlocksPolicy> policy_;
  std::unique_ptr<LockManager> locks_;
  std::unique_ptr<StmmController> stmm_;
  std::unique_ptr<FaultPlan> fault_;
  std::unique_ptr<DegradationLedger> ledger_;
  MemoryTraceSink trace_;
};

TEST_F(FaultSiteStmmTest, SyncDenialIsAbsorbedWithAccountingConserved) {
  FaultPlanSpec spec;
  spec.windows.push_back(DenyWindow("locklist", 0, 1000));
  Build(spec);

  // Cold start (no tuning pass yet): a denied synchronous grow is covered
  // by the bounded locklist borrow (docs/ROBUSTNESS.md) — the grant
  // succeeds, the debt is visible as LMO, and the denial stays on the
  // ledger as absorbed.
  // (Calling GrantSynchronousGrowth directly bypasses the lock manager's
  // grow callback, so the manager's own block count is not part of this
  // test; heap and ledger consistency are.)
  const Bytes lock_before = lock_heap_->size();
  EXPECT_TRUE(stmm_->GrantSynchronousGrowth(1));
  EXPECT_FALSE(stmm_->growth_was_constrained());
  EXPECT_EQ(lock_heap_->size(), lock_before + kLockBlockSize);
  EXPECT_EQ(stmm_->lmo(), kLockBlockSize);
  EXPECT_EQ(stmm_->cold_borrow_bytes(), kLockBlockSize);
  EXPECT_GE(ledger_->absorbed(), 1);
  EXPECT_TRUE(memory_->CheckConsistency().ok());
  EXPECT_TRUE(ledger_->CheckConsistency().ok());

  // The borrow is bounded by minLockMemory(num_applications): once the
  // cold debt reaches the bound, denial surfaces exactly as before.
  const Bytes cap = params_.MinLockMemory(1);
  while (stmm_->cold_borrow_bytes() + kLockBlockSize <= cap) {
    ASSERT_TRUE(stmm_->GrantSynchronousGrowth(1));
  }
  const Bytes exhausted = lock_heap_->size();
  const Bytes overflow_exhausted = memory_->overflow_bytes();
  EXPECT_FALSE(stmm_->GrantSynchronousGrowth(1));
  EXPECT_TRUE(stmm_->growth_was_constrained());
  EXPECT_EQ(lock_heap_->size(), exhausted);
  EXPECT_EQ(memory_->overflow_bytes(), overflow_exhausted);
  EXPECT_TRUE(memory_->CheckConsistency().ok());
  EXPECT_TRUE(ledger_->CheckConsistency().ok());
}

TEST_F(FaultSiteStmmTest, WarmDenialIsRefusedNotBorrowed) {
  // Deny window opens after the first tuning pass: a warm controller
  // (non-empty tuning history) refuses in-window grows outright — the
  // cold-start borrow never applies once real demand signals exist.
  FaultPlanSpec spec;
  spec.windows.push_back(DenyWindow("locklist", 100, 1000));
  Build(spec);
  stmm_->RunTuningPass();
  clock_.Advance(100);

  const Bytes lock_before = lock_heap_->size();
  const Bytes lmo_before = stmm_->lmo();
  EXPECT_FALSE(stmm_->GrantSynchronousGrowth(1));
  EXPECT_TRUE(stmm_->growth_was_constrained());
  EXPECT_EQ(lock_heap_->size(), lock_before);
  EXPECT_EQ(stmm_->lmo(), lmo_before);
  EXPECT_EQ(stmm_->cold_borrow_bytes(), 0);
  EXPECT_TRUE(memory_->CheckConsistency().ok());
  EXPECT_TRUE(stmm_->CheckConsistency().ok());
  EXPECT_TRUE(ledger_->CheckConsistency().ok());
}

TEST_F(FaultSiteStmmTest, AsyncDenialArmsBackoffThenRecovers) {
  FaultPlanSpec spec;
  spec.windows.push_back(DenyWindow("locklist", 0, 1000));
  Build(spec);

  // ~90 % of the initial allocation: the tuner wants to grow every pass.
  HoldRows(1, BytesToBlocks(params_.InitialLockMemory()) * kLocksPerBlock *
                  9 / 10 -
                 1);
  const Bytes allocated_before = locks_->allocated_bytes();

  // Denied pass arms the holdoff; accounting is untouched.
  stmm_->RunTuningPass();
  EXPECT_EQ(stmm_->grow_denial_streak(), 1);
  EXPECT_EQ(stmm_->grow_holdoff_passes(), 2);
  EXPECT_EQ(locks_->allocated_bytes(), allocated_before);
  EXPECT_GE(ledger_->absorbed(), 1);
  EXPECT_EQ(CountBackoff("engage"), 1);

  // Held-off passes do not re-request the grow (no further denials).
  const int64_t denials_after_engage = fault_->denials_injected();
  stmm_->RunTuningPass();
  stmm_->RunTuningPass();
  EXPECT_EQ(stmm_->grow_holdoff_passes(), 0);
  EXPECT_EQ(fault_->denials_injected(), denials_after_engage);
  EXPECT_EQ(CountBackoff("suppress"), 2);

  // Window closes: the next pass grows, records the recovery, and resets
  // the streak; the heap and the lock manager agree on the new size.
  clock_.Advance(1000);
  stmm_->RunTuningPass();
  EXPECT_GT(locks_->allocated_bytes(), allocated_before);
  EXPECT_EQ(stmm_->grow_denial_streak(), 0);
  EXPECT_EQ(ledger_->recoveries(), 1);
  EXPECT_EQ(CountBackoff("recover"), 1);
  EXPECT_EQ(lock_heap_->size(), locks_->allocated_bytes());
  EXPECT_TRUE(memory_->CheckConsistency().ok());
}

TEST_F(FaultSiteStmmTest, RepeatedDenialsEscalateTheHoldoff) {
  FaultPlanSpec spec;
  spec.windows.push_back(DenyWindow("locklist", 0, 1'000'000));
  Build(spec);
  HoldRows(1, BytesToBlocks(params_.InitialLockMemory()) * kLocksPerBlock *
                  9 / 10 -
                 1);

  int max_holdoff = 0;
  for (int i = 0; i < 40; ++i) {
    stmm_->RunTuningPass();
    max_holdoff = std::max(max_holdoff, stmm_->grow_holdoff_passes());
  }
  // Exponential up to the cap: 2, 4, 8, 8, ... — never unbounded.
  EXPECT_EQ(max_holdoff, 8);
  EXPECT_LE(stmm_->grow_denial_streak(), 16);
  // 40 passes but far fewer actual grow attempts hit the fault plan.
  EXPECT_LT(fault_->denials_injected(), 12);
  EXPECT_TRUE(memory_->CheckConsistency().ok());
}

// ---------------------------------------------------------------------------
// Site 3: AppStore::KillConnection — mid-transaction connection kill.
// ---------------------------------------------------------------------------

// Scripted workload with fixed profile and sequential private rows.
class ScriptedWorkload : public Workload {
 public:
  explicit ScriptedWorkload(TransactionProfile profile)
      : profile_(profile) {}
  TransactionProfile NextTransaction(Rng&) override { return profile_; }
  RowAccess NextAccess(Rng&) override {
    RowAccess a;
    a.table = 0;
    a.row = next_row_++;
    a.mode = LockMode::kS;
    return a;
  }

 private:
  TransactionProfile profile_;
  int64_t next_row_ = 0;
};

class FaultSiteKillTest : public ::testing::Test {
 protected:
  FaultSiteKillTest() {
    DatabaseOptions o;
    o.params.database_memory = 256 * kMiB;
    db_ = Database::Open(o).value();
  }

  std::unique_ptr<Database> db_;
};

TransactionProfile LongTxn() {
  TransactionProfile p;
  p.total_locks = 1000;
  p.locks_per_tick = 10;
  p.hold_time = 0;
  p.think_time = 200;
  return p;
}

// Drives `store` through one full scheduler cycle (wheel advance, sweep,
// reconcile) — the per-tick protocol ScenarioRunner uses.
void TickStore(AppStore& store) {
  for (const uint32_t i : store.CollectRunnable()) store.Tick(i);
  store.FinishSweep();
}

TEST_F(FaultSiteKillTest, MidTransactionKillReleasesEverything) {
  ScriptedWorkload w(LongTxn());
  AppStore store(db_.get(), 100);
  const uint32_t app = store.Add(1, &w, /*seed=*/1);
  store.Connect(app);
  for (int i = 0; i < 20; ++i) TickStore(store);
  ASSERT_GT(db_->locks().HeldStructures(1), 0);
  const Bytes used_by_others = db_->locks().used_bytes();

  store.KillConnection(app);
  EXPECT_FALSE(store.connected(app));
  EXPECT_EQ(store.stats(app).kill_aborts, 1);
  // Full rollback: every lock structure is back in the free pool.
  EXPECT_EQ(db_->locks().HeldStructures(1), 0);
  EXPECT_LT(db_->locks().used_bytes(), used_by_others);
  EXPECT_TRUE(db_->ValidateInvariants().ok());
  EXPECT_TRUE(db_->memory().CheckConsistency().ok());

  // A killed connection is inert until it reconnects...
  TickStore(store);
  EXPECT_EQ(store.stats(app).commits, 0);
  // ...and commits flow again after the crash-restart reconnect.
  store.Connect(app);
  for (int i = 0; i < 300 && store.stats(app).commits == 0; ++i) {
    TickStore(store);
  }
  EXPECT_GE(store.stats(app).commits, 1);
  EXPECT_TRUE(db_->ValidateInvariants().ok());
}

TEST_F(FaultSiteKillTest, KillBetweenTransactionsIsNotAnAbort) {
  ScriptedWorkload w(LongTxn());
  AppStore store(db_.get(), 100);
  const uint32_t app = store.Add(1, &w, /*seed=*/1);
  store.Connect(app);
  // Still thinking: no transaction in flight, so nothing is rolled back.
  store.KillConnection(app);
  EXPECT_FALSE(store.connected(app));
  EXPECT_EQ(store.stats(app).kill_aborts, 0);
  EXPECT_TRUE(db_->ValidateInvariants().ok());
  // Killing an already-dead connection is a no-op.
  store.KillConnection(app);
  EXPECT_EQ(store.stats(app).kill_aborts, 0);
}

}  // namespace
}  // namespace locktune
