// End-to-end scenarios asserting the qualitative properties of the paper's
// §5 experiments at reduced scale (full-scale series are regenerated by the
// bench/ binaries).
#include <memory>
#include <string>

#include <gtest/gtest.h>

#include "engine/database.h"
#include "telemetry/trace.h"
#include "workload/dss_workload.h"
#include "workload/oltp_workload.h"
#include "workload/scenario.h"

namespace locktune {
namespace {

constexpr Bytes kDbMem = 256 * kMiB;

std::unique_ptr<Database> OpenDb(TuningMode mode,
                                 int64_t static_pages = 100) {
  DatabaseOptions o;
  o.params.database_memory = kDbMem;
  o.mode = mode;
  o.static_locklist_pages = static_pages;
  return Database::Open(o).value();
}

// Figures 7 & 8: an undersized static LOCKLIST escalates and devastates
// throughput; the self-tuning configuration does not escalate at all.
TEST(IntegrationTest, StaticUndersizedEscalatesAndCollapses) {
  auto run = [](TuningMode mode) {
    std::unique_ptr<Database> db = OpenDb(mode, /*static_pages=*/100);
    OltpWorkload oltp(db->catalog(), OltpOptions{});
    ClientTimeline tl;
    tl.workload = &oltp;
    tl.steps = {{0, 60}};
    ScenarioOptions so;
    so.duration = 2 * kMinute;
    ScenarioRunner runner(db.get(), {tl}, so);
    runner.Run();
    struct Out {
      int64_t commits;
      int64_t escalations;
    };
    return Out{runner.total_commits(), db->locks().stats().escalations};
  };
  const auto fixed = run(TuningMode::kStatic);
  const auto tuned = run(TuningMode::kSelfTuning);
  EXPECT_GT(fixed.escalations, 0);
  EXPECT_EQ(tuned.escalations, 0);
  // The catastrophe: the static system commits a small fraction of the
  // self-tuned throughput.
  EXPECT_LT(fixed.commits * 5, tuned.commits);
}

// Figure 9: ramping clients, the tuner converges immediately with zero
// escalations and several-fold lock memory growth.
TEST(IntegrationTest, RampConvergesWithoutEscalation) {
  std::unique_ptr<Database> db = OpenDb(TuningMode::kSelfTuning);
  OltpWorkload oltp(db->catalog(), OltpOptions{});
  ClientTimeline tl;
  tl.workload = &oltp;
  tl.steps = {{0, 1}, {30 * kSecond, 40}, {60 * kSecond, 90}};
  ScenarioOptions so;
  so.duration = 5 * kMinute;
  ScenarioRunner runner(db.get(), {tl}, so);
  runner.Run();
  EXPECT_EQ(db->locks().stats().escalations, 0);
  EXPECT_EQ(runner.total_oom_aborts(), 0);
  const TimeSeries& alloc =
      runner.series().Get(ScenarioRunner::kLockAllocatedMb);
  EXPECT_GT(alloc.Last() / alloc.points().front().value, 4.0);
  // Settled: the last minute of samples doesn't move.
  const auto& pts = alloc.points();
  for (size_t i = pts.size() - 60; i < pts.size(); ++i) {
    EXPECT_EQ(pts[i].value, pts.back().value);
  }
  // Throughput scaled with clients rather than collapsing.
  EXPECT_GT(runner.total_commits(), 1000);
}

// Figure 10: a workload surge roughly doubles lock memory almost
// instantly, with no escalations.
TEST(IntegrationTest, SurgeDoublesLockMemoryInstantly) {
  std::unique_ptr<Database> db = OpenDb(TuningMode::kSelfTuning);
  OltpWorkload oltp(db->catalog(), OltpOptions{});
  ClientTimeline tl;
  tl.workload = &oltp;
  tl.steps = {{0, 50}, {3 * kMinute, 130}};
  ScenarioOptions so;
  so.duration = 6 * kMinute;
  ScenarioRunner runner(db.get(), {tl}, so);
  runner.Run();
  const TimeSeries& alloc =
      runner.series().Get(ScenarioRunner::kLockAllocatedMb);
  // Steady-state sample just before the surge vs. settled value after.
  const double before = alloc.points()[175].value;  // t = 176 s
  const double after = alloc.Last();
  EXPECT_GE(after / before, 1.7);
  EXPECT_EQ(db->locks().stats().escalations, 0);
  // "Practically instantaneous": within 2 tuning intervals of the surge
  // the allocation reached at least 1.5× (sample 240 s = 60 s after).
  const double shortly_after = alloc.points()[239].value;
  EXPECT_GE(shortly_after / before, 1.5);
}

// Figure 11: a DSS reporting query injected into steady OLTP grows lock
// memory by an order of magnitude within seconds; no exclusive escalations.
TEST(IntegrationTest, DssInjectionGrowsFastWithoutExclusiveEscalation) {
  std::unique_ptr<Database> db = OpenDb(TuningMode::kSelfTuning);
  OltpWorkload oltp(db->catalog(), OltpOptions{});
  DssOptions dss_opts;
  dss_opts.scan_locks = 300'000;
  dss_opts.locks_per_tick = 2000;
  DssWorkload dss(db->catalog(), dss_opts);
  ClientTimeline oltp_tl, dss_tl;
  oltp_tl.workload = &oltp;
  oltp_tl.steps = {{0, 60}};
  dss_tl.workload = &dss;
  dss_tl.steps = {{0, 0}, {2 * kMinute, 1}};
  ScenarioOptions so;
  so.duration = 5 * kMinute;
  ScenarioRunner runner(db.get(), {oltp_tl, dss_tl}, so);
  runner.Run();
  const TimeSeries& alloc =
      runner.series().Get(ScenarioRunner::kLockAllocatedMb);
  const double before = alloc.points()[115].value;  // steady OLTP
  EXPECT_GE(alloc.MaxValue() / before, 8.0);
  // The growth is fast: within ~30 s of the injection.
  const TimeMs t10x = alloc.FirstTimeAtLeast(before * 8.0);
  ASSERT_GE(t10x, 0);
  EXPECT_LE(t10x, 2 * kMinute + 35 * kSecond);
  EXPECT_EQ(db->locks().stats().exclusive_escalations, 0);
  // OLTP kept committing after the injection.
  EXPECT_GT(runner.total_commits(), 1000);
}

// §5.3's counterfactual: the same DSS injection under a fixed MAXLOCKS
// (pre-STMM default 10 %) or under SQL Server's 5000-lock rule escalates.
TEST(IntegrationTest, FixedPoliciesEscalateOnDss) {
  for (TuningMode mode : {TuningMode::kStatic, TuningMode::kSqlServer}) {
    // Static config gets a generous 8 MB LOCKLIST: it still escalates
    // because MAXLOCKS=10 % caps one application at ~13 k locks.
    std::unique_ptr<Database> db = OpenDb(mode, /*static_pages=*/2048);
    DssOptions dss_opts;
    dss_opts.scan_locks = 100'000;
    dss_opts.locks_per_tick = 2000;
    DssWorkload dss(db->catalog(), dss_opts);
    ClientTimeline tl;
    tl.workload = &dss;
    tl.steps = {{0, 1}};
    ScenarioOptions so;
    so.duration = kMinute;
    ScenarioRunner runner(db.get(), {tl}, so);
    runner.Run();
    EXPECT_GT(db->locks().stats().escalations, 0)
        << "mode=" << static_cast<int>(mode);
  }
}

// Figure 12: when clients drop 130 → 30, lock memory decays ~5 % per
// tuning interval and settles around half its old value.
TEST(IntegrationTest, ClientReductionDecaysGradually) {
  std::unique_ptr<Database> db = OpenDb(TuningMode::kSelfTuning);
  OltpWorkload oltp(db->catalog(), OltpOptions{});
  ClientTimeline tl;
  tl.workload = &oltp;
  tl.steps = {{0, 130}, {4 * kMinute, 30}};
  ScenarioOptions so;
  so.duration = 14 * kMinute;
  ScenarioRunner runner(db.get(), {tl}, so);
  runner.Run();
  const TimeSeries& alloc =
      runner.series().Get(ScenarioRunner::kLockAllocatedMb);
  const double steady = alloc.points()[235].value;  // just before the drop
  const double final_alloc = alloc.Last();
  // Settles to roughly half (the paper: "approximately half").
  EXPECT_LT(final_alloc, 0.75 * steady);
  EXPECT_GT(final_alloc, 0.3 * steady);
  // Gradual: each tuning interval shrinks by at most ~δ_reduce plus one
  // block of rounding — never a cliff.
  const auto& pts = alloc.points();
  for (size_t i = 241; i < pts.size(); ++i) {
    const double prev = pts[i - 1].value;
    const double drop = prev - pts[i].value;
    EXPECT_LE(drop, 0.05 * prev + 0.25) << "sample " << i;
  }
  // And it takes several intervals (no instant shrink): still above 80 %
  // of steady one interval after the drop.
  EXPECT_GT(pts[270].value, 0.8 * steady);
}

// §3.6: the compiler's view of lock memory is stable across violent
// swings in the actual allocation.
TEST(IntegrationTest, CompilerViewStableThroughSwings) {
  std::unique_ptr<Database> db = OpenDb(TuningMode::kSelfTuning);
  const Bytes view0 = db->stmm()->CompilerLockMemoryView();
  EXPECT_EQ(view0, kDbMem / 10);
  OltpWorkload oltp(db->catalog(), OltpOptions{});
  ClientTimeline tl;
  tl.workload = &oltp;
  tl.steps = {{0, 100}, {kMinute, 5}};
  ScenarioOptions so;
  so.duration = 3 * kMinute;
  ScenarioRunner runner(db.get(), {tl}, so);
  runner.Run();
  EXPECT_EQ(db->stmm()->CompilerLockMemoryView(), view0);
}

// LOCKTIMEOUT end-to-end: with a short timeout, waits behind a long report
// roll back and retry instead of stalling forever.
TEST(IntegrationTest, LockTimeoutsRollBackStalledWriters) {
  DatabaseOptions o;
  o.params.database_memory = kDbMem;
  o.lock_timeout = 2 * kSecond;
  std::unique_ptr<Database> db = Database::Open(o).value();
  // A reporting scan holds S locks on the first 50k lineitem rows while
  // OLTP-ish writers target exactly those rows.
  DssOptions dss_opts;
  dss_opts.scan_locks = 50'000;
  dss_opts.locks_per_tick = 5000;
  dss_opts.hold_time = kMinute;
  DssWorkload dss(db->catalog(), dss_opts);

  class HotWriters : public Workload {
   public:
    TransactionProfile NextTransaction(Rng&) override {
      return {5, 5, 0, 200};
    }
    RowAccess NextAccess(Rng& rng) override {
      return {/*tpch_lineitem=*/9,
              static_cast<int64_t>(rng.NextBelow(50'000)), LockMode::kX};
    }
  } writers;

  ClientTimeline dss_tl, writer_tl;
  dss_tl.workload = &dss;
  dss_tl.steps = {{0, 1}};
  writer_tl.workload = &writers;
  writer_tl.steps = {{10 * kSecond, 5}};
  ScenarioOptions so;
  // Long enough that the scan commits (its hold expires) and the writers
  // get granted afterwards.
  so.duration = 2 * kMinute;
  ScenarioRunner runner(db.get(), {dss_tl, writer_tl}, so);
  runner.Run();

  // Writers hit the scan's S locks, timed out, and retried — repeatedly.
  EXPECT_GT(runner.total_timeout_aborts(), 5);
  EXPECT_EQ(db->locks().stats().lock_timeouts,
            runner.total_timeout_aborts());
  EXPECT_TRUE(db->locks().CheckConsistency().ok());
  // After the report committed the writers ran normally again: granted
  // waits exist (the histogram records only completed waits).
  EXPECT_GT(db->locks().wait_time_histogram().total_count(), 0);
}

// A trace sink sees a whole scenario's lock events.
TEST(IntegrationTest, TraceSinkSeesScenarioLockEvents) {
  std::unique_ptr<Database> db = OpenDb(TuningMode::kStatic, 100);
  MemoryTraceSink sink;
  db->set_trace_sink(&sink);
  OltpWorkload oltp(db->catalog(), OltpOptions{});
  ClientTimeline tl;
  tl.workload = &oltp;
  tl.steps = {{0, 60}};
  ScenarioOptions so;
  so.duration = kMinute;
  ScenarioRunner runner(db.get(), {tl}, so);
  runner.Run();

  int64_t wait_begins = 0;
  int64_t escalations = 0;
  for (const TraceRecord& rec : sink.records()) {
    if (rec.kind() != "lock_event") continue;
    const std::string& event = *rec.Find("event");
    if (event == "\"WAIT_BEGIN\"") ++wait_begins;
    if (event == "\"ESCALATION\"") ++escalations;
  }
  // The undersized static config produces the full diagnostic story, one
  // record per counted wait and escalation.
  EXPECT_GT(wait_begins, 0);
  EXPECT_GT(escalations, 0);
  EXPECT_EQ(wait_begins, db->locks().stats().lock_waits);
  EXPECT_EQ(escalations, db->locks().stats().escalations);
}

}  // namespace
}  // namespace locktune
