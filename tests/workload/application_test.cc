#include "workload/app_store.h"

#include <memory>

#include <gtest/gtest.h>

#include "workload/workload.h"

namespace locktune {
namespace {

// Scripted workload with fixed profile and sequential private rows.
class ScriptedWorkload : public Workload {
 public:
  explicit ScriptedWorkload(TransactionProfile profile, TableId table = 0,
                            int64_t row_base = 0)
      : profile_(profile), table_(table), next_row_(row_base) {}

  TransactionProfile NextTransaction(Rng&) override { return profile_; }

  RowAccess NextAccess(Rng&) override {
    ++draws_;
    RowAccess a;
    a.table = table_;
    a.row = next_row_++;
    a.mode = mode_;
    return a;
  }

  void set_mode(LockMode m) { mode_ = m; }
  // NextAccess calls so far.
  int64_t draws() const { return draws_; }

 private:
  TransactionProfile profile_;
  TableId table_;
  int64_t next_row_;
  LockMode mode_ = LockMode::kS;
  int64_t draws_ = 0;
};

// One store per independently-driven client: each test below scripts the
// relative tick phasing of its applications, so every application gets a
// private store (all sharing one Database) and is driven through the full
// scheduler cycle — wheel advance, sweep, reconcile — one tick at a time.
struct StoreApp {
  StoreApp(Database* db, AppId id, Workload* w, uint64_t seed)
      : store(db, /*tick=*/100), index(store.Add(id, w, seed)) {}

  void Connect() { store.Connect(index); }
  void Disconnect() { store.Disconnect(index); }
  void AbortForDeadlock() { store.AbortForDeadlock(index); }
  void Tick() {
    for (const uint32_t i : store.CollectRunnable()) store.Tick(i);
    store.FinishSweep();
  }
  bool connected() const { return store.connected(index); }
  AppPhase phase() const { return store.phase(index); }
  const ApplicationStats& stats() const { return store.stats(index); }

  AppStore store;
  uint32_t index;
};

class ApplicationTest : public ::testing::Test {
 protected:
  ApplicationTest() {
    DatabaseOptions o;
    o.params.database_memory = 256 * kMiB;
    db_ = Database::Open(o).value();
  }

  std::unique_ptr<Database> db_;
};

TransactionProfile SmallTxn() {
  TransactionProfile p;
  p.total_locks = 10;
  p.locks_per_tick = 5;
  p.hold_time = 0;
  p.think_time = 200;
  return p;
}

TEST_F(ApplicationTest, StartsDisconnected) {
  ScriptedWorkload w(SmallTxn());
  StoreApp app(db_.get(), 1, &w, 1);
  EXPECT_FALSE(app.connected());
  app.Tick();  // no-op while disconnected
  EXPECT_EQ(app.stats().commits, 0);
}

TEST_F(ApplicationTest, RunsTransactionsAfterConnect) {
  ScriptedWorkload w(SmallTxn());
  StoreApp app(db_.get(), 1, &w, 1);
  app.Connect();
  EXPECT_TRUE(app.connected());
  for (int i = 0; i < 100; ++i) app.Tick();
  // ~10 s of ticks: think ≤ 0.3 s + 2 ticks acquiring → many commits.
  EXPECT_GE(app.stats().commits, 10);
  EXPECT_EQ(app.stats().locks_acquired, app.stats().commits * 10);
  // Strict 2PL: all locks released after each commit.
  EXPECT_EQ(db_->locks().HeldStructures(1), 0);
}

TEST_F(ApplicationTest, HoldingPhaseKeepsLocks) {
  TransactionProfile p = SmallTxn();
  p.hold_time = 10'000;  // 10 s
  ScriptedWorkload w(p);
  StoreApp app(db_.get(), 1, &w, 1);
  app.Connect();
  for (int i = 0; i < 30; ++i) app.Tick();  // 3 s: scan done, still holding
  EXPECT_EQ(app.phase(), AppPhase::kHolding);
  EXPECT_EQ(app.stats().commits, 0);
  EXPECT_GT(db_->locks().HeldStructures(1), 0);
  // Tick until the hold expires; stop at the commit so the next
  // transaction doesn't start acquiring.
  for (int i = 0; i < 200 && app.stats().commits == 0; ++i) app.Tick();
  EXPECT_EQ(app.stats().commits, 1);
  EXPECT_EQ(db_->locks().HeldStructures(1), 0);
}

TEST_F(ApplicationTest, BlocksOnConflictAndResumes) {
  ScriptedWorkload w1(SmallTxn(), /*table=*/0, /*row_base=*/0);
  TransactionProfile p2 = SmallTxn();
  p2.think_time = 100'000;  // app 2 runs one transaction then parks
  ScriptedWorkload w2(p2, /*table=*/0, /*row_base=*/5);
  w1.set_mode(LockMode::kX);
  w2.set_mode(LockMode::kX);
  StoreApp a1(db_.get(), 1, &w1, 1);
  StoreApp a2(db_.get(), 2, &w2, 2);
  // App 1 grabs rows 0..9 (overlapping app 2's 5..14) and holds them.
  TransactionProfile hold = SmallTxn();
  hold.hold_time = 5'000;
  ScriptedWorkload w1_hold(hold, 0, 0);
  w1_hold.set_mode(LockMode::kX);
  StoreApp holder(db_.get(), 3, &w1_hold, 3);
  holder.Connect();
  for (int i = 0; i < 10 && holder.phase() != AppPhase::kHolding; ++i) {
    holder.Tick();
  }
  ASSERT_EQ(holder.phase(), AppPhase::kHolding);
  // App 2 now collides on row 5.
  a2.Connect();
  for (int i = 0; i < 10; ++i) a2.Tick();
  EXPECT_EQ(a2.phase(), AppPhase::kBlocked);
  EXPECT_GT(a2.stats().blocked_ticks, 0);
  // The blocked request ended its tick: app 2 drew row 5 and nothing past
  // it, and its blocked ticks draw nothing.
  EXPECT_EQ(w2.draws(), 1);
  // Holder commits; stop ticking it there so its next transaction does
  // not re-collide with app 2.
  for (int i = 0; i < 80 && holder.stats().commits == 0; ++i) holder.Tick();
  ASSERT_EQ(holder.stats().commits, 1);
  for (int i = 0; i < 10; ++i) a2.Tick();
  EXPECT_EQ(a2.stats().commits, 1);
  // One draw per lock of the transaction: none was drawn and dropped.
  EXPECT_EQ(w2.draws(), 10);
  (void)a1;
}

TEST_F(ApplicationTest, DisconnectMidTransactionReleasesLocks) {
  TransactionProfile p = SmallTxn();
  p.total_locks = 1000;
  p.locks_per_tick = 10;
  ScriptedWorkload w(p);
  StoreApp app(db_.get(), 1, &w, 1);
  app.Connect();
  for (int i = 0; i < 20; ++i) app.Tick();
  EXPECT_GT(db_->locks().HeldStructures(1), 0);
  app.Disconnect();
  EXPECT_FALSE(app.connected());
  EXPECT_EQ(db_->locks().HeldStructures(1), 0);
}

TEST_F(ApplicationTest, DeadlockAbortRetries) {
  // Force a deadlock: two scripted apps locking two rows in opposite order.
  TransactionProfile p = SmallTxn();
  p.total_locks = 2;
  p.locks_per_tick = 1;  // one row per tick → interleaving is guaranteed
  class OpposingWorkload : public Workload {
   public:
    OpposingWorkload(TransactionProfile profile, bool forward)
        : profile_(profile), forward_(forward) {}
    TransactionProfile NextTransaction(Rng&) override {
      step_ = 0;
      return profile_;
    }
    RowAccess NextAccess(Rng&) override {
      RowAccess a;
      a.table = 0;
      a.row = forward_ ? step_ : 1 - step_;
      step_ = 1 - step_;
      a.mode = LockMode::kX;
      return a;
    }
   private:
    TransactionProfile profile_;
    bool forward_;
    int64_t step_ = 0;
  };
  // Different think times shift the two clients' phases each cycle, so
  // their lock acquisitions are guaranteed to interleave eventually.
  TransactionProfile pb = p;
  pb.think_time = 300;
  OpposingWorkload wf(p, true), wb(pb, false);
  StoreApp a1(db_.get(), 1, &wf, 1);
  StoreApp a2(db_.get(), 2, &wb, 2);
  a1.Connect();
  a2.Connect();
  // Drive both until each holds one row and waits for the other.
  bool deadlocked = false;
  for (int i = 0; i < 50 && !deadlocked; ++i) {
    a1.Tick();
    a2.Tick();
    const std::vector<AppId> victims = db_->locks().DetectDeadlocks();
    for (AppId v : victims) {
      (v == 1 ? a1 : a2).AbortForDeadlock();
      deadlocked = true;
    }
  }
  ASSERT_TRUE(deadlocked);
  EXPECT_EQ(a1.stats().deadlock_aborts + a2.stats().deadlock_aborts, 1);
  // Both eventually commit (victim retries after thinking).
  for (int i = 0; i < 100; ++i) {
    a1.Tick();
    a2.Tick();
    for (AppId v : db_->locks().DetectDeadlocks()) {
      (v == 1 ? a1 : a2).AbortForDeadlock();
    }
  }
  EXPECT_GE(a1.stats().commits, 1);
  EXPECT_GE(a2.stats().commits, 1);
}

}  // namespace
}  // namespace locktune
