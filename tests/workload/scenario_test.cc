#include "workload/scenario.h"

#include <memory>

#include <gtest/gtest.h>

#include "workload/oltp_workload.h"

namespace locktune {
namespace {

class ScenarioTest : public ::testing::Test {
 protected:
  ScenarioTest() {
    DatabaseOptions o;
    o.params.database_memory = 256 * kMiB;
    db_ = Database::Open(o).value();
    oltp_ = std::make_unique<OltpWorkload>(db_->catalog(), OltpOptions{});
  }

  std::unique_ptr<Database> db_;
  std::unique_ptr<OltpWorkload> oltp_;
};

TEST_F(ScenarioTest, TimelineStepFunction) {
  ClientTimeline tl;
  tl.steps = {{0, 1}, {10'000, 5}, {20'000, 2}};
  EXPECT_EQ(tl.ActiveAt(0), 1);
  EXPECT_EQ(tl.ActiveAt(9'999), 1);
  EXPECT_EQ(tl.ActiveAt(10'000), 5);
  EXPECT_EQ(tl.ActiveAt(19'999), 5);
  EXPECT_EQ(tl.ActiveAt(20'000), 2);
  EXPECT_EQ(tl.ActiveAt(1'000'000), 2);
  EXPECT_EQ(tl.MaxClients(), 5);
}

TEST_F(ScenarioTest, TimelineBeforeFirstStepIsZero) {
  ClientTimeline tl;
  tl.steps = {{5'000, 3}};
  EXPECT_EQ(tl.ActiveAt(0), 0);
  EXPECT_EQ(tl.ActiveAt(4'999), 0);
  EXPECT_EQ(tl.ActiveAt(5'000), 3);
}

TEST_F(ScenarioTest, RunsToDuration) {
  ClientTimeline tl;
  tl.workload = oltp_.get();
  tl.steps = {{0, 3}};
  ScenarioOptions so;
  so.duration = 10 * kSecond;
  ScenarioRunner runner(db_.get(), {tl}, so);
  runner.Run();
  EXPECT_EQ(db_->clock().now(), 10 * kSecond);
  EXPECT_GT(runner.total_commits(), 0);
}

TEST_F(ScenarioTest, SamplesAllSeries) {
  ClientTimeline tl;
  tl.workload = oltp_.get();
  tl.steps = {{0, 2}};
  ScenarioOptions so;
  so.duration = 5 * kSecond;
  ScenarioRunner runner(db_.get(), {tl}, so);
  runner.Run();
  for (const char* name :
       {ScenarioRunner::kLockAllocatedMb, ScenarioRunner::kLockUsedMb,
        ScenarioRunner::kLmocMb, ScenarioRunner::kThroughputTps,
        ScenarioRunner::kEscalations, ScenarioRunner::kExclusiveEscalations,
        ScenarioRunner::kLockWaits, ScenarioRunner::kMaxlocksPercent,
        ScenarioRunner::kOverflowMb, ScenarioRunner::kClients,
        ScenarioRunner::kBlockedApps}) {
    EXPECT_TRUE(runner.series().Has(name)) << name;
    EXPECT_EQ(runner.series().Get(name).size(), 5u) << name;
  }
}

TEST_F(ScenarioTest, ClientCountsFollowTimeline) {
  ClientTimeline tl;
  tl.workload = oltp_.get();
  tl.steps = {{0, 2}, {3 * kSecond, 6}};
  ScenarioOptions so;
  so.duration = 6 * kSecond;
  ScenarioRunner runner(db_.get(), {tl}, so);
  runner.Run();
  const TimeSeries& clients = runner.series().Get(ScenarioRunner::kClients);
  EXPECT_EQ(clients.points().front().value, 2.0);
  EXPECT_EQ(clients.Last(), 6.0);
  EXPECT_EQ(db_->connected_applications(), 6);
}

TEST_F(ScenarioTest, ClientReductionDisconnects) {
  ClientTimeline tl;
  tl.workload = oltp_.get();
  tl.steps = {{0, 6}, {3 * kSecond, 1}};
  ScenarioOptions so;
  so.duration = 6 * kSecond;
  ScenarioRunner runner(db_.get(), {tl}, so);
  runner.Run();
  int connected = 0;
  for (uint32_t i = 0; i < runner.store().size(); ++i) {
    if (runner.store().connected(i)) ++connected;
  }
  EXPECT_EQ(connected, 1);
}

TEST_F(ScenarioTest, MultipleGroupsGetDistinctAppIds) {
  ClientTimeline a, b;
  a.workload = oltp_.get();
  a.steps = {{0, 2}};
  b.workload = oltp_.get();
  b.steps = {{0, 3}};
  ScenarioOptions so;
  so.duration = kSecond;
  ScenarioRunner runner(db_.get(), {a, b}, so);
  EXPECT_EQ(runner.store().size(), 5u);
  std::set<AppId> ids;
  for (uint32_t i = 0; i < runner.store().size(); ++i) {
    ids.insert(runner.store().id(i));
  }
  EXPECT_EQ(ids.size(), 5u);
  runner.Run();
  EXPECT_EQ(db_->connected_applications(), 5);
}

TEST_F(ScenarioTest, RunUntilIsResumable) {
  ClientTimeline tl;
  tl.workload = oltp_.get();
  tl.steps = {{0, 2}};
  ScenarioOptions so;
  so.duration = 10 * kSecond;
  ScenarioRunner runner(db_.get(), {tl}, so);
  runner.RunUntil(4 * kSecond);
  const int64_t mid = runner.total_commits();
  EXPECT_EQ(db_->clock().now(), 4 * kSecond);
  runner.RunUntil(10 * kSecond);
  EXPECT_GT(runner.total_commits(), mid);
}

TEST_F(ScenarioTest, DeterministicAcrossRuns) {
  auto run_once = [this]() {
    DatabaseOptions o;
    o.params.database_memory = 256 * kMiB;
    std::unique_ptr<Database> db = Database::Open(o).value();
    OltpWorkload oltp(db->catalog(), OltpOptions{});
    ClientTimeline tl;
    tl.workload = &oltp;
    tl.steps = {{0, 5}};
    ScenarioOptions so;
    so.duration = 10 * kSecond;
    so.seed = 99;
    ScenarioRunner runner(db.get(), {tl}, so);
    runner.Run();
    return runner.total_commits();
  };
  EXPECT_EQ(run_once(), run_once());
}

}  // namespace
}  // namespace locktune
