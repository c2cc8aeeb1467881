#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "common/units.h"
#include "lock/lock_manager.h"

namespace locktune {
namespace {

constexpr TableId kT1 = 1;
constexpr TableId kT2 = 2;

class DeadlockTest : public ::testing::Test {
 protected:
  DeadlockTest() {
    policy_ = std::make_unique<FixedMaxlocksPolicy>(90.0);
    LockManagerOptions opts;
    opts.initial_blocks = 8;
    opts.max_lock_memory = 64 * kMiB;
    opts.database_memory = kGiB;
    opts.policy = policy_.get();
    lm_ = std::make_unique<LockManager>(std::move(opts));
  }

  LockResult Lock(AppId app, int64_t row, LockMode mode, TableId t = kT1) {
    return lm_->Lock(app, RowResource(t, row), mode);
  }

  std::unique_ptr<EscalationPolicy> policy_;
  std::unique_ptr<LockManager> lm_;
};

TEST_F(DeadlockTest, NoFalsePositivesOnPlainWaits) {
  ASSERT_EQ(Lock(1, 1, LockMode::kX).outcome, LockOutcome::kGranted);
  ASSERT_EQ(Lock(2, 1, LockMode::kX).outcome, LockOutcome::kWaiting);
  EXPECT_TRUE(lm_->DetectDeadlocks().empty());
}

TEST_F(DeadlockTest, ClassicTwoAppCycle) {
  // A holds row 1, B holds row 2; A wants row 2, B wants row 1.
  ASSERT_EQ(Lock(1, 1, LockMode::kX).outcome, LockOutcome::kGranted);
  ASSERT_EQ(Lock(2, 2, LockMode::kX).outcome, LockOutcome::kGranted);
  ASSERT_EQ(Lock(1, 2, LockMode::kX).outcome, LockOutcome::kWaiting);
  ASSERT_EQ(Lock(2, 1, LockMode::kX).outcome, LockOutcome::kWaiting);
  const std::vector<AppId> victims = lm_->DetectDeadlocks();
  ASSERT_EQ(victims.size(), 1u);
  // Victim chosen by fewest held structures; both hold the same count, so
  // either is acceptable — what matters is breaking the cycle.
  const AppId victim = victims[0];
  EXPECT_TRUE(victim == 1 || victim == 2);
  lm_->ReleaseAll(victim);
  const AppId survivor = victim == 1 ? 2 : 1;
  EXPECT_FALSE(lm_->IsBlocked(survivor));
}

TEST_F(DeadlockTest, VictimIsCheapestToRedo) {
  // App 1 holds many locks; app 2 holds few: app 2 should be the victim.
  for (int64_t r = 10; r < 60; ++r) {
    ASSERT_EQ(Lock(1, r, LockMode::kS).outcome, LockOutcome::kGranted);
  }
  ASSERT_EQ(Lock(1, 1, LockMode::kX).outcome, LockOutcome::kGranted);
  ASSERT_EQ(Lock(2, 2, LockMode::kX).outcome, LockOutcome::kGranted);
  ASSERT_EQ(Lock(1, 2, LockMode::kX).outcome, LockOutcome::kWaiting);
  ASSERT_EQ(Lock(2, 1, LockMode::kX).outcome, LockOutcome::kWaiting);
  const std::vector<AppId> victims = lm_->DetectDeadlocks();
  ASSERT_EQ(victims.size(), 1u);
  EXPECT_EQ(victims[0], 2);
}

TEST_F(DeadlockTest, ThreeAppCycle) {
  ASSERT_EQ(Lock(1, 1, LockMode::kX).outcome, LockOutcome::kGranted);
  ASSERT_EQ(Lock(2, 2, LockMode::kX).outcome, LockOutcome::kGranted);
  ASSERT_EQ(Lock(3, 3, LockMode::kX).outcome, LockOutcome::kGranted);
  ASSERT_EQ(Lock(1, 2, LockMode::kX).outcome, LockOutcome::kWaiting);
  ASSERT_EQ(Lock(2, 3, LockMode::kX).outcome, LockOutcome::kWaiting);
  ASSERT_EQ(Lock(3, 1, LockMode::kX).outcome, LockOutcome::kWaiting);
  const std::vector<AppId> victims = lm_->DetectDeadlocks();
  ASSERT_EQ(victims.size(), 1u);
  lm_->ReleaseAll(victims[0]);
  // The remaining two form a chain, not a cycle.
  EXPECT_TRUE(lm_->DetectDeadlocks().empty());
}

TEST_F(DeadlockTest, ConversionDeadlock) {
  // Both apps hold S on the same row, both convert to X: each waits for the
  // other's S — a conversion deadlock.
  ASSERT_EQ(Lock(1, 1, LockMode::kS).outcome, LockOutcome::kGranted);
  ASSERT_EQ(Lock(2, 1, LockMode::kS).outcome, LockOutcome::kGranted);
  ASSERT_EQ(Lock(1, 1, LockMode::kX).outcome, LockOutcome::kWaiting);
  ASSERT_EQ(Lock(2, 1, LockMode::kX).outcome, LockOutcome::kWaiting);
  const std::vector<AppId> victims = lm_->DetectDeadlocks();
  ASSERT_EQ(victims.size(), 1u);
  lm_->ReleaseAll(victims[0]);
  const AppId survivor = victims[0] == 1 ? 2 : 1;
  EXPECT_FALSE(lm_->IsBlocked(survivor));
  EXPECT_EQ(lm_->HeldMode(survivor, RowResource(kT1, 1)), LockMode::kX);
}

TEST_F(DeadlockTest, QueueOrderCycleDetected) {
  // App 3 waits behind app 2's X in the queue; app 2 waits on app 3's lock
  // on another row: a cycle through queue order, not just holders.
  ASSERT_EQ(Lock(1, 1, LockMode::kX).outcome, LockOutcome::kGranted);
  ASSERT_EQ(Lock(3, 2, LockMode::kX, kT2).outcome, LockOutcome::kGranted);
  ASSERT_EQ(Lock(2, 1, LockMode::kX).outcome, LockOutcome::kWaiting);
  ASSERT_EQ(Lock(3, 1, LockMode::kS).outcome, LockOutcome::kWaiting);
  lm_->ReleaseAll(1);
  // Now app 2 holds row 1 X; app 3 waits behind nothing... re-build:
  ASSERT_FALSE(lm_->IsBlocked(2));
  ASSERT_TRUE(lm_->IsBlocked(3));
  // App 2 requests app 3's row: cycle (2 → 3 via kT2 row, 3 → 2 via row 1).
  ASSERT_EQ(Lock(2, 2, LockMode::kX, kT2).outcome, LockOutcome::kWaiting);
  const std::vector<AppId> victims = lm_->DetectDeadlocks();
  EXPECT_EQ(victims.size(), 1u);
}

TEST_F(DeadlockTest, TwoIndependentCyclesBothGetVictims) {
  ASSERT_EQ(Lock(1, 1, LockMode::kX).outcome, LockOutcome::kGranted);
  ASSERT_EQ(Lock(2, 2, LockMode::kX).outcome, LockOutcome::kGranted);
  ASSERT_EQ(Lock(1, 2, LockMode::kX).outcome, LockOutcome::kWaiting);
  ASSERT_EQ(Lock(2, 1, LockMode::kX).outcome, LockOutcome::kWaiting);
  ASSERT_EQ(Lock(3, 3, LockMode::kX, kT2).outcome, LockOutcome::kGranted);
  ASSERT_EQ(Lock(4, 4, LockMode::kX, kT2).outcome, LockOutcome::kGranted);
  ASSERT_EQ(Lock(3, 4, LockMode::kX, kT2).outcome, LockOutcome::kWaiting);
  ASSERT_EQ(Lock(4, 3, LockMode::kX, kT2).outcome, LockOutcome::kWaiting);
  const std::vector<AppId> victims = lm_->DetectDeadlocks();
  EXPECT_EQ(victims.size(), 2u);
}

TEST_F(DeadlockTest, StatsCountVictims) {
  ASSERT_EQ(Lock(1, 1, LockMode::kX).outcome, LockOutcome::kGranted);
  ASSERT_EQ(Lock(2, 2, LockMode::kX).outcome, LockOutcome::kGranted);
  ASSERT_EQ(Lock(1, 2, LockMode::kX).outcome, LockOutcome::kWaiting);
  ASSERT_EQ(Lock(2, 1, LockMode::kX).outcome, LockOutcome::kWaiting);
  (void)lm_->DetectDeadlocks();
  EXPECT_EQ(lm_->stats().deadlock_victims, 1);
}

TEST_F(DeadlockTest, NoDeadlockAmongReaders) {
  for (AppId app = 1; app <= 5; ++app) {
    for (int64_t r = 0; r < 10; ++r) {
      ASSERT_EQ(Lock(app, r, LockMode::kS).outcome, LockOutcome::kGranted);
    }
  }
  EXPECT_TRUE(lm_->DetectDeadlocks().empty());
}

TEST_F(DeadlockTest, RepeatedCallsReportAndCountTheSameVictims) {
  // Two overlapping conversion deadlocks on one row: nothing is released
  // between calls, so every call reports the same list and counts it again.
  for (AppId app = 1; app <= 3; ++app) {
    ASSERT_EQ(Lock(app, 1, LockMode::kS).outcome, LockOutcome::kGranted);
  }
  for (AppId app = 1; app <= 3; ++app) {
    ASSERT_EQ(Lock(app, 1, LockMode::kX).outcome, LockOutcome::kWaiting);
  }
  const std::vector<AppId> first = lm_->DetectDeadlocks();
  ASSERT_FALSE(first.empty());
  for (int call = 2; call <= 3; ++call) {
    EXPECT_EQ(lm_->DetectDeadlocks(), first);
    EXPECT_EQ(lm_->stats().deadlock_victims,
              call * static_cast<int64_t>(first.size()));
  }
}

TEST_F(DeadlockTest, TieRuleOnOverlappingCycles) {
  // Cycle A is 1 -> 2 -> 3 -> 1 and cycle B is 2 -> 3 -> 4 -> 2; they share
  // the edge 2 -> 3. Apps 1, 3 and 4 hold three structures each (intent
  // lock, one row, one waiting request); app 2 holds six.
  ASSERT_EQ(Lock(1, 14, LockMode::kS).outcome, LockOutcome::kGranted);
  for (int64_t row = 20; row < 22; ++row) {
    ASSERT_EQ(Lock(2, row, LockMode::kX).outcome, LockOutcome::kGranted);
  }
  ASSERT_EQ(Lock(2, 2, LockMode::kX).outcome, LockOutcome::kGranted);
  ASSERT_EQ(Lock(3, 3, LockMode::kX).outcome, LockOutcome::kGranted);
  ASSERT_EQ(Lock(4, 14, LockMode::kS).outcome, LockOutcome::kGranted);
  ASSERT_EQ(Lock(2, 12, LockMode::kX).outcome, LockOutcome::kGranted);
  ASSERT_EQ(Lock(1, 2, LockMode::kX).outcome, LockOutcome::kWaiting);   // 1->2
  ASSERT_EQ(Lock(4, 12, LockMode::kX).outcome, LockOutcome::kWaiting);  // 4->2
  ASSERT_EQ(Lock(2, 3, LockMode::kX).outcome, LockOutcome::kWaiting);   // 2->3
  // App 3 waits for both S holders of row 14, in arrival order: 3->1, 3->4.
  ASSERT_EQ(Lock(3, 14, LockMode::kX).outcome, LockOutcome::kWaiting);
  ASSERT_EQ(lm_->HeldStructures(1), 3);
  ASSERT_EQ(lm_->HeldStructures(2), 6);
  ASSERT_EQ(lm_->HeldStructures(3), 3);
  ASSERT_EQ(lm_->HeldStructures(4), 3);
  // The DFS starts at app 1: with a handful of small app ids the hash
  // order of the start map is the order the apps were first seen. The path
  // is 1, 2, 3, and the back-edge 3 -> 1 sees min(6, 3) above app 1, equal
  // to app 1's own 3, so the victim stays app 1. Then 3 -> 4 pushes app 4,
  // and the back-edge 4 -> 2 sees apps 3 and 4 tied at 3, below app 2's 6:
  // the topmost, app 4, is the victim. A `<=` rule would pick app 3 for
  // cycle A, and a bottommost-minimum rule app 3 for cycle B.
  EXPECT_EQ(lm_->DetectDeadlocks(), (std::vector<AppId>{1, 4}));
}

// One crowded table head, the escalation_storm shape by hand: 18 IX holders
// (so the head indexes its holders), two of them queued to convert to X,
// then new requests queued behind the conversions in three wanted modes
// (table X, and the IS and IX intent locks of row requests). Apps 3 and 7
// are each both a conflicting IX holder and a conversion queued ahead of
// the new requests, so every new X request has two edges to each of them.
// Holders then wait on rows the table's waiters hold, closing cycles
// through holder edges, through queue-order edges and through both. Held
// counts vary (extra rows per app), so the victim rule's ties and minima
// both matter. The expected victims were recorded with the per-waiter
// edge-list detector.
TEST_F(DeadlockTest, CrowdedTableHeadVictimsMatchRecording) {
  const ResourceId table = TableResource(kT1);
  for (AppId app = 1; app <= 18; ++app) {
    ASSERT_EQ(Lock(app, app, LockMode::kX).outcome, LockOutcome::kGranted);
    for (int64_t k = 0; k < app % 4; ++k) {
      ASSERT_EQ(Lock(app, 100 + 10 * app + k, LockMode::kX).outcome,
                LockOutcome::kGranted);
    }
  }
  for (AppId app = 19; app <= 22; ++app) {
    ASSERT_EQ(Lock(app, app, LockMode::kX, kT2).outcome,
              LockOutcome::kGranted);
  }
  // Two X conversions, then new requests behind them: table X (19), a row
  // S needing IS (20), a row X needing IX (21), and table X again (22).
  ASSERT_EQ(lm_->Lock(3, table, LockMode::kX).outcome, LockOutcome::kWaiting);
  ASSERT_EQ(lm_->Lock(19, table, LockMode::kX).outcome,
            LockOutcome::kWaiting);
  ASSERT_EQ(lm_->Lock(7, table, LockMode::kX).outcome, LockOutcome::kWaiting);
  ASSERT_EQ(Lock(20, 500, LockMode::kS).outcome, LockOutcome::kWaiting);
  ASSERT_EQ(Lock(21, 501, LockMode::kX).outcome, LockOutcome::kWaiting);
  ASSERT_EQ(lm_->Lock(22, table, LockMode::kX).outcome,
            LockOutcome::kWaiting);
  // Holders of the table wait on rows its waiters hold: 5 -> 19, 9 -> 20,
  // 14 -> 21 and 16 -> 22 on table 2, and 12 -> 3 and 2 -> 7 on table 1.
  ASSERT_EQ(Lock(5, 19, LockMode::kX, kT2).outcome, LockOutcome::kWaiting);
  ASSERT_EQ(Lock(9, 20, LockMode::kX, kT2).outcome, LockOutcome::kWaiting);
  ASSERT_EQ(Lock(14, 21, LockMode::kS, kT2).outcome, LockOutcome::kWaiting);
  ASSERT_EQ(Lock(16, 22, LockMode::kX, kT2).outcome, LockOutcome::kWaiting);
  ASSERT_EQ(Lock(12, 3, LockMode::kX).outcome, LockOutcome::kWaiting);
  ASSERT_EQ(Lock(2, 7, LockMode::kS).outcome, LockOutcome::kWaiting);
  ASSERT_EQ(lm_->waiting_app_count(), 12);

  EXPECT_EQ(lm_->DetectDeadlocks(),
            (std::vector<AppId>{2, 3, 19, 20, 12, 21, 22}));
  for (AppId victim : {2, 3, 19, 20, 12, 21, 22}) lm_->ReleaseAll(victim);
  ASSERT_TRUE(lm_->CheckConsistency().ok());
  EXPECT_TRUE(lm_->DetectDeadlocks().empty());
}

// --- victim order over seeded lock storms ---------------------------------

constexpr uint64_t kFnvOffset = 14695981039346656037ull;

uint64_t Fold(uint64_t digest, uint64_t word) {
  for (int byte = 0; byte < 8; ++byte) {
    digest ^= (word >> (8 * byte)) & 0xff;
    digest *= 1099511628211ull;
  }
  return digest;
}

struct StormSummary {
  uint64_t digest = kFnvOffset;
  int64_t calls = 0;
  int64_t victims = 0;
  int64_t multi_victim_calls = 0;
  int64_t max_waiting = 0;
};

// One seeded storm: 128 applications on three small tables take S and X row
// locks (so IS/IX intent holders crowd every table head), convert rows S to
// X, request table X the way an escalation converts IX, and commit at
// random. Most requests queue, so wait queues grow long and held counts tie
// often. Every round ends with two DetectDeadlocks calls, whose lists must
// match; the first is folded into the digest and its victims are released.
void RunStorm(uint64_t seed, StormSummary& summary) {
  constexpr int kApps = 128;
  constexpr int kTables = 3;
  constexpr int kRows = 32;
  constexpr int kRounds = 40;
  constexpr int kActionsPerRound = 48;
  FixedMaxlocksPolicy policy(90.0);
  LockManagerOptions opts;
  opts.initial_blocks = 64;
  opts.max_lock_memory = 64 * kMiB;
  opts.database_memory = kGiB;
  opts.policy = &policy;
  LockManager lm(std::move(opts));
  Rng rng(seed);
  std::vector<std::vector<ResourceId>> shared_rows(kApps + 1);

  // App 1 is both a conflicting S holder of row (1, 0) and, through its
  // queued conversion to X, a waiter ahead of app 3: app 3 has two edges to
  // app 1.
  const ResourceId contested = RowResource(1, 0);
  ASSERT_EQ(lm.Lock(1, contested, LockMode::kS).outcome, LockOutcome::kGranted);
  ASSERT_EQ(lm.Lock(2, contested, LockMode::kS).outcome, LockOutcome::kGranted);
  shared_rows[1].push_back(contested);
  shared_rows[2].push_back(contested);
  ASSERT_EQ(lm.Lock(1, contested, LockMode::kX).outcome, LockOutcome::kWaiting);
  ASSERT_EQ(lm.Lock(3, contested, LockMode::kX).outcome, LockOutcome::kWaiting);

  summary.digest = Fold(summary.digest, seed);
  for (int round = 0; round < kRounds; ++round) {
    for (int action = 0; action < kActionsPerRound; ++action) {
      const AppId app = 1 + static_cast<AppId>(rng.NextBelow(kApps));
      if (lm.IsBlocked(app)) continue;
      const TableId table = 1 + static_cast<TableId>(rng.NextBelow(kTables));
      const uint64_t pick = rng.NextBelow(100);
      std::vector<ResourceId>& mine = shared_rows[app];
      if (pick < 6) {
        lm.ReleaseAll(app);
        mine.clear();
      } else if (pick < 12) {
        (void)lm.Lock(app, TableResource(table), LockMode::kX);
      } else if (pick < 26 && !mine.empty()) {
        (void)lm.Lock(app, mine[rng.NextBelow(mine.size())], LockMode::kX);
      } else {
        const ResourceId row = RowResource(
            table, static_cast<int64_t>(rng.NextBelow(kRows)));
        const LockMode mode = rng.NextBool(0.5) ? LockMode::kS : LockMode::kX;
        if (lm.Lock(app, row, mode).outcome != LockOutcome::kOutOfMemory &&
            mode == LockMode::kS) {
          mine.push_back(row);
        }
      }
    }
    summary.max_waiting = std::max(summary.max_waiting, lm.waiting_app_count());
    const int64_t counted_before = lm.stats().deadlock_victims;
    const std::vector<AppId> victims = lm.DetectDeadlocks();
    ASSERT_EQ(lm.DetectDeadlocks(), victims) << "seed " << seed;
    ASSERT_EQ(lm.stats().deadlock_victims - counted_before,
              2 * static_cast<int64_t>(victims.size()));
    summary.digest = Fold(summary.digest, static_cast<uint64_t>(round));
    summary.digest = Fold(summary.digest, victims.size());
    for (AppId victim : victims) {
      summary.digest = Fold(summary.digest, static_cast<uint64_t>(victim));
    }
    ++summary.calls;
    summary.victims += static_cast<int64_t>(victims.size());
    if (victims.size() > 1) ++summary.multi_victim_calls;
    for (AppId victim : victims) {
      lm.ReleaseAll(victim);
      shared_rows[victim].clear();
    }
  }
  ASSERT_TRUE(lm.CheckConsistency().ok());
}

// Folds the victim lists of 24 seeded storms. The expected digest was
// recorded with the original hash-map detector; any change to the victim
// set or order of any call changes it.
TEST(DeadlockStormTest, VictimOrderMatchesRecordedDigest) {
  constexpr uint64_t kRecordedDigest = 0x8b0c3b0be4926152ull;
  StormSummary summary;
  for (uint64_t seed = 1; seed <= 24; ++seed) {
    RunStorm(seed, summary);
    if (HasFatalFailure()) return;
  }
  // The storms must actually exercise victim selection.
  EXPECT_GE(summary.max_waiting, 64);
  EXPECT_GE(summary.victims, 500);
  EXPECT_GE(summary.multi_victim_calls, 100);
  std::printf("storm: calls=%lld victims=%lld multi=%lld max_waiting=%lld "
              "digest=0x%016llx\n",
              static_cast<long long>(summary.calls),
              static_cast<long long>(summary.victims),
              static_cast<long long>(summary.multi_victim_calls),
              static_cast<long long>(summary.max_waiting),
              static_cast<unsigned long long>(summary.digest));
  EXPECT_EQ(summary.digest, kRecordedDigest);
}

}  // namespace
}  // namespace locktune
