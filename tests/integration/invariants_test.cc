// Property-based sweeps: system-wide invariants that must hold for any
// workload mix, seed, and tuning configuration.
#include <memory>

#include <gtest/gtest.h>

#include "engine/database.h"
#include "workload/scan_workload.h"
#include "workload/oltp_workload.h"
#include "workload/scenario.h"

namespace locktune {
namespace {

struct SweepCase {
  uint64_t seed;
  int clients;
  double write_fraction;
  double zipf;
};

class InvariantSweepTest : public ::testing::TestWithParam<SweepCase> {};

TEST_P(InvariantSweepTest, SystemInvariantsHoldUnderChurn) {
  const SweepCase& c = GetParam();
  DatabaseOptions o;
  o.params.database_memory = 256 * kMiB;
  std::unique_ptr<Database> db = Database::Open(o).value();

  OltpOptions oltp_opts;
  oltp_opts.write_fraction = c.write_fraction;
  oltp_opts.row_zipf_theta = c.zipf;
  OltpWorkload oltp(db->catalog(), oltp_opts);
  ClientTimeline tl;
  tl.workload = &oltp;
  // Churny timeline: ramp, spike, trough.
  tl.steps = {{0, c.clients / 4 + 1},
              {20 * kSecond, c.clients},
              {60 * kSecond, c.clients / 8 + 1},
              {90 * kSecond, c.clients}};
  ScenarioOptions so;
  so.duration = 2 * kMinute;
  so.seed = c.seed;
  ScenarioRunner runner(db.get(), {tl}, so);
  runner.Run();

  // 1. Lock manager internal accounting is consistent.
  EXPECT_TRUE(db->locks().CheckConsistency().ok());

  // 2. Memory conservation: heaps plus overflow equal the total, and
  //    nothing went negative.
  EXPECT_EQ(db->memory().heap_bytes() + db->memory().overflow_bytes(),
            db->memory().total());
  EXPECT_GE(db->memory().overflow_bytes(), 0);

  // 3. The lock heap mirrors the block list exactly.
  EXPECT_EQ(db->lock_heap()->size(), db->locks().allocated_bytes());

  // 4. Lock memory never exceeded maxLockMemory (checked on the sampled
  //    series — the bound holds at every sample).
  const TimeSeries& alloc =
      runner.series().Get(ScenarioRunner::kLockAllocatedMb);
  EXPECT_LE(alloc.MaxValue() * kMiB,
            static_cast<double>(o.params.MaxLockMemory()) + kLockBlockSize);

  // 5. Used never exceeds allocated at any sample.
  const TimeSeries& used = runner.series().Get(ScenarioRunner::kLockUsedMb);
  for (size_t i = 0; i < used.size(); ++i) {
    EXPECT_LE(used.points()[i].value, alloc.points()[i].value + 1e-9);
  }

  // 6. The externalized maxlocks percent stays within [1, 98].
  const TimeSeries& pct =
      runner.series().Get(ScenarioRunner::kMaxlocksPercent);
  EXPECT_GE(pct.MinValue(), 1.0);
  EXPECT_LE(pct.MaxValue(), 98.0);

  // 7. Work happened (the scenario is not degenerate).
  EXPECT_GT(runner.total_commits(), 0);

  // 8. Self-tuning avoided lock-memory errors entirely.
  EXPECT_EQ(runner.total_oom_aborts(), 0);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, InvariantSweepTest,
    ::testing::Values(SweepCase{1, 16, 0.2, 0.2},   // baseline mix
                      SweepCase{2, 40, 0.5, 0.2},   // write heavy
                      SweepCase{3, 40, 0.0, 0.0},   // read only, uniform
                      SweepCase{4, 8, 0.2, 0.8},    // hot rows
                      SweepCase{5, 64, 0.1, 0.3},   // many clients
                      SweepCase{6, 2, 0.9, 0.5}));  // few writers

// The same invariants under a mixed OLTP + DSS load, for every tuning mode.
class ModeInvariantTest : public ::testing::TestWithParam<TuningMode> {};

TEST_P(ModeInvariantTest, MixedLoadKeepsAccountingConsistent) {
  DatabaseOptions o;
  o.params.database_memory = 256 * kMiB;
  o.mode = GetParam();
  o.static_locklist_pages = 512;
  std::unique_ptr<Database> db = Database::Open(o).value();

  OltpWorkload oltp(db->catalog(), OltpOptions{});
  ScanOptions dss_opts = ScanDefaults(ScanPreset::kDss);
  dss_opts.total_locks = 50'000;
  dss_opts.locks_per_tick = 1000;
  dss_opts.hold_time = 30 * kSecond;
  ScanWorkload dss(db->catalog(), dss_opts);
  ClientTimeline oltp_tl, dss_tl;
  oltp_tl.workload = &oltp;
  oltp_tl.steps = {{0, 20}};
  dss_tl.workload = &dss;
  dss_tl.steps = {{30 * kSecond, 1}};
  ScenarioOptions so;
  so.duration = 2 * kMinute;
  ScenarioRunner runner(db.get(), {oltp_tl, dss_tl}, so);
  runner.Run();

  EXPECT_TRUE(db->locks().CheckConsistency().ok());
  EXPECT_EQ(db->memory().heap_bytes() + db->memory().overflow_bytes(),
            db->memory().total());
  EXPECT_EQ(db->lock_heap()->size(), db->locks().allocated_bytes());
  EXPECT_GT(runner.total_commits(), 0);
  if (GetParam() == TuningMode::kStatic) {
    // A static configuration never grows.
    EXPECT_EQ(db->locks().allocated_bytes(),
              RoundUpToBlocks(PagesToBytes(o.static_locklist_pages)));
  }
}

INSTANTIATE_TEST_SUITE_P(Modes, ModeInvariantTest,
                         ::testing::Values(TuningMode::kSelfTuning,
                                           TuningMode::kStatic,
                                           TuningMode::kSqlServer));

// Tuning-parameter sweep: the controller stays stable (no oscillation blow-
// up, bounds respected) across the paper's plausible parameter ranges.
struct ParamCase {
  double min_free;
  double max_free;
  double delta_reduce;
  DurationMs interval;
};

class ParamSweepTest : public ::testing::TestWithParam<ParamCase> {};

TEST_P(ParamSweepTest, ControllerStableAcrossParameters) {
  const ParamCase& c = GetParam();
  DatabaseOptions o;
  o.params.database_memory = 256 * kMiB;
  o.params.min_free_fraction = c.min_free;
  o.params.max_free_fraction = c.max_free;
  o.params.delta_reduce = c.delta_reduce;
  o.params.tuning_interval = c.interval;
  ASSERT_TRUE(o.params.Validate().ok());
  std::unique_ptr<Database> db = Database::Open(o).value();

  OltpWorkload oltp(db->catalog(), OltpOptions{});
  ClientTimeline tl;
  tl.workload = &oltp;
  tl.steps = {{0, 30}};
  ScenarioOptions so;
  so.duration = 3 * kMinute;
  ScenarioRunner runner(db.get(), {tl}, so);
  runner.Run();

  EXPECT_TRUE(db->locks().CheckConsistency().ok());
  EXPECT_EQ(db->locks().stats().escalations, 0);
  // Stability: over the last minute the allocation changed by less than
  // 2·δ_reduce of its mean per sample (no runaway oscillation).
  const TimeSeries& alloc =
      runner.series().Get(ScenarioRunner::kLockAllocatedMb);
  const auto& pts = alloc.points();
  for (size_t i = pts.size() - 59; i < pts.size(); ++i) {
    const double change = std::abs(pts[i].value - pts[i - 1].value);
    EXPECT_LE(change, 2.0 * c.delta_reduce * pts[i - 1].value + 0.25)
        << "sample " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Params, ParamSweepTest,
    ::testing::Values(ParamCase{0.50, 0.60, 0.05, 30 * kSecond},  // paper
                      ParamCase{0.30, 0.40, 0.05, 30 * kSecond},
                      ParamCase{0.50, 0.60, 0.15, 30 * kSecond},
                      ParamCase{0.50, 0.60, 0.05, 10 * kSecond},
                      ParamCase{0.40, 0.70, 0.02, kMinute},
                      ParamCase{0.50, 0.55, 0.05, 30 * kSecond}));

}  // namespace
}  // namespace locktune
