#include "engine/db_snapshot.h"

#include <algorithm>
#include <memory>
#include <string>

#include <gtest/gtest.h>

#include "telemetry/flight_recorder.h"
#include "telemetry/trace.h"
#include "workload/oltp_workload.h"
#include "workload/scenario.h"

namespace locktune {
namespace {

class DbSnapshotTest : public ::testing::Test {
 protected:
  DbSnapshotTest() {
    DatabaseOptions o;
    o.params.database_memory = 256 * kMiB;
    db_ = Database::Open(o).value();
  }
  std::unique_ptr<Database> db_;
};

TEST_F(DbSnapshotTest, CapturesHeapsAndMemoryConservation) {
  const DatabaseSnapshot s = CaptureSnapshot(*db_, /*max_app_id=*/0);
  EXPECT_EQ(s.database_memory, 256 * kMiB);
  ASSERT_EQ(s.heaps.size(), 4u);  // buffer_pool, sort, package_cache, locklist
  Bytes heap_sum = 0;
  for (const HeapSnapshot& h : s.heaps) heap_sum += h.size;
  EXPECT_EQ(heap_sum + s.overflow, s.database_memory);
}

TEST_F(DbSnapshotTest, LockStateMatchesManager) {
  for (int64_t r = 0; r < 100; ++r) {
    ASSERT_EQ(db_->locks().Lock(1, RowResource(1, r), LockMode::kS).outcome,
              LockOutcome::kGranted);
  }
  const DatabaseSnapshot s = CaptureSnapshot(*db_, /*max_app_id=*/1);
  EXPECT_EQ(s.lock_allocated, db_->locks().allocated_bytes());
  EXPECT_EQ(s.lock_used, 101 * kLockStructSize);
  EXPECT_EQ(s.lmoc, db_->stmm()->lmoc());
  ASSERT_EQ(s.top_lock_holders.size(), 1u);
  EXPECT_EQ(s.top_lock_holders[0].app, 1);
  EXPECT_EQ(s.top_lock_holders[0].held_structures, 101);
  EXPECT_FALSE(s.top_lock_holders[0].blocked);
}

TEST_F(DbSnapshotTest, TopHoldersSortedAndCapped) {
  for (AppId app = 1; app <= 8; ++app) {
    for (int64_t r = 0; r < app * 10; ++r) {
      ASSERT_EQ(db_->locks()
                    .Lock(app, RowResource(app, r), LockMode::kS)
                    .outcome,
                LockOutcome::kGranted);
    }
  }
  const DatabaseSnapshot s = CaptureSnapshot(*db_, 8, /*top_n=*/3);
  ASSERT_EQ(s.top_lock_holders.size(), 3u);
  EXPECT_EQ(s.top_lock_holders[0].app, 8);  // most locks
  EXPECT_EQ(s.top_lock_holders[1].app, 7);
  EXPECT_EQ(s.top_lock_holders[2].app, 6);
  EXPECT_GE(s.top_lock_holders[0].held_structures,
            s.top_lock_holders[1].held_structures);
}

TEST_F(DbSnapshotTest, BlockedAppsFlagged) {
  ASSERT_EQ(db_->locks().Lock(1, RowResource(1, 5), LockMode::kX).outcome,
            LockOutcome::kGranted);
  ASSERT_EQ(db_->locks().Lock(2, RowResource(1, 5), LockMode::kX).outcome,
            LockOutcome::kWaiting);
  const DatabaseSnapshot s = CaptureSnapshot(*db_, 2);
  EXPECT_EQ(s.waiting_apps, 1);
  bool saw_blocked = false;
  for (const AppLockSnapshot& a : s.top_lock_holders) {
    if (a.app == 2) saw_blocked = a.blocked;
  }
  EXPECT_TRUE(saw_blocked);
}

TEST_F(DbSnapshotTest, RenderContainsTheEssentials) {
  for (int64_t r = 0; r < 50; ++r) {
    (void)db_->locks().Lock(1, RowResource(1, r), LockMode::kS);
  }
  db_->Tick(30 * kSecond);
  const std::string text = RenderSnapshot(CaptureSnapshot(*db_, 1));
  EXPECT_NE(text.find("buffer_pool"), std::string::npos);
  EXPECT_NE(text.find("locklist"), std::string::npos);
  EXPECT_NE(text.find("[FMC]"), std::string::npos);
  EXPECT_NE(text.find("overflow"), std::string::npos);
  EXPECT_NE(text.find("lock memory:"), std::string::npos);
  EXPECT_NE(text.find("top lock holders:"), std::string::npos);
  EXPECT_NE(text.find("app 1"), std::string::npos);
}

TEST_F(DbSnapshotTest, StaticModeSnapshotHasNoLmo) {
  DatabaseOptions o;
  o.params.database_memory = 256 * kMiB;
  o.mode = TuningMode::kStatic;
  std::unique_ptr<Database> db = Database::Open(o).value();
  const DatabaseSnapshot s = CaptureSnapshot(*db, 0);
  EXPECT_EQ(s.lmo, 0);
  EXPECT_EQ(s.lmoc, s.lock_allocated);
}

TEST_F(DbSnapshotTest, InspectorRendersRegistryHistoryAndRing) {
  ResetFlightRecorderForTesting();
  DatabaseOptions o;
  o.params.database_memory = 256 * kMiB;
  std::unique_ptr<Database> db = Database::Open(o).value();
  OltpWorkload oltp(db->catalog(), OltpOptions{});
  ClientTimeline tl;
  tl.workload = &oltp;
  tl.steps = {{0, 20}};
  ScenarioOptions so;
  so.duration = 90 * kSecond;  // long enough for tuning passes and waits
  ScenarioRunner runner(db.get(), {tl}, so);
  runner.Run();
  const std::string text = RenderInspector(*db, /*max_app_id=*/20);
  // Snapshot section.
  EXPECT_NE(text.find("database snapshot"), std::string::npos);
  // Registry section with all four metric families.
  EXPECT_NE(text.find("Metrics registry"), std::string::npos);
  EXPECT_NE(text.find("locktune_lock_requests_total"), std::string::npos);
  EXPECT_NE(text.find("locktune_memory_total_bytes"), std::string::npos);
  EXPECT_NE(text.find("locktune_stmm_passes_total"), std::string::npos);
  EXPECT_NE(text.find("locktune_workload_commits_total"), std::string::npos);
  // STMM history section.
  EXPECT_NE(text.find("STMM"), std::string::npos);
  // Flight-recorder tail: the header counts this thread's recorded events
  // (the run's lock events and tuner passes), and the tail lines are
  // FlightEvent::ToString() renderings.
  const uint64_t recorded = FlightEventsRecorded();
  EXPECT_GT(recorded, 0u);
  const size_t shown = std::min<size_t>(20, RecentFlightEvents().size());
  EXPECT_NE(text.find("flight recorder (" + std::to_string(recorded) +
                      " events, last " + std::to_string(shown) + "):"),
            std::string::npos);
  EXPECT_NE(text.find(" tuner_pass "), std::string::npos);
}

TEST_F(DbSnapshotTest, DatabaseTraceSinkSeesLockAndTuningRecords) {
  MemoryTraceSink sink;
  db_->set_trace_sink(&sink);
  ASSERT_EQ(db_->locks().Lock(1, RowResource(1, 5), LockMode::kX).outcome,
            LockOutcome::kGranted);
  ASSERT_EQ(db_->locks().Lock(2, RowResource(1, 5), LockMode::kX).outcome,
            LockOutcome::kWaiting);
  db_->Tick(31 * kSecond);  // past the tuning interval: one pass fires
  bool saw_lock_event = false;
  bool saw_tuning_pass = false;
  for (const TraceRecord& rec : sink.records()) {
    if (rec.kind() == "lock_event") saw_lock_event = true;
    if (rec.kind() == "tuning_pass") saw_tuning_pass = true;
  }
  EXPECT_TRUE(saw_lock_event);
  EXPECT_TRUE(saw_tuning_pass);
}

TEST_F(DbSnapshotTest, SnapshotOfLiveScenario) {
  OltpWorkload oltp(db_->catalog(), OltpOptions{});
  ClientTimeline tl;
  tl.workload = &oltp;
  tl.steps = {{0, 20}};
  ScenarioOptions so;
  so.duration = 30 * kSecond;
  ScenarioRunner runner(db_.get(), {tl}, so);
  runner.Run();
  const DatabaseSnapshot s = CaptureSnapshot(*db_, 20);
  EXPECT_GT(s.lock_stats.lock_requests, 0);
  EXPECT_FALSE(s.top_lock_holders.empty());
  EXPECT_FALSE(RenderSnapshot(s).empty());
}

}  // namespace
}  // namespace locktune
