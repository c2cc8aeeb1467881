// End-to-end scenarios for behaviour the paper benches do not check:
// LOCKTIMEOUT rollbacks and a trace sink over a whole scenario. The §5
// figures and ablations are checked by the `paper`-labelled bench entries
// (bench/, EXPERIMENTS.md).
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
  DatabaseOptions o;
  o.params.database_memory = kDbMem;
  o.mode = TuningMode::kStatic;
  o.static_locklist_pages = 100;
  std::unique_ptr<Database> db = Database::Open(o).value();
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
