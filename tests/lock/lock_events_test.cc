// The lock manager's events, observed the way a user observes them: as
// `lock_event` records in an installed trace sink (telemetry/trace.h).
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/units.h"
#include "lock/lock_manager.h"
#include "telemetry/flight_recorder.h"
#include "telemetry/trace.h"

namespace locktune {
namespace {

constexpr TableId kT = 1;

TEST(EventKindTest, NamesAreStable) {
  EXPECT_STREQ(EventRecordName(EventKind::kWaitBegin), "WAIT_BEGIN");
  EXPECT_STREQ(EventRecordName(EventKind::kEscalation), "ESCALATION");
  EXPECT_STREQ(EventRecordName(EventKind::kSynchronousGrowth),
               "SYNC_GROWTH");
  EXPECT_STREQ(EventDumpName(EventKind::kWaitBegin), "wait_begin");
  EXPECT_STREQ(EventDumpName(EventKind::kEscalation), "escalation");
  EXPECT_STREQ(EventDumpName(EventKind::kSynchronousGrowth), "sync_growth");
}

// Records of kind "lock_event" whose `event` field names `kind`.
std::vector<TraceRecord> LockEvents(const MemoryTraceSink& sink,
                                    EventKind kind) {
  const std::string want = "\"" + std::string(EventRecordName(kind)) + "\"";
  std::vector<TraceRecord> out;
  for (const TraceRecord& rec : sink.records()) {
    const std::string* event = rec.Find("event");
    if (rec.kind() == "lock_event" && event != nullptr && *event == want) {
      out.push_back(rec);
    }
  }
  return out;
}

// A small manager with `sink_` installed as its trace sink.
class LockEventsTest : public ::testing::Test {
 protected:
  void Make(double maxlocks_percent, bool allow_growth,
            DurationMs timeout = -1) {
    policy_ = std::make_unique<FixedMaxlocksPolicy>(maxlocks_percent);
    LockManagerOptions opts;
    opts.initial_blocks = 1;
    opts.max_lock_memory = 8 * kMiB;
    opts.database_memory = 64 * kMiB;
    opts.policy = policy_.get();
    opts.clock = &clock_;
    opts.lock_timeout = timeout;
    if (allow_growth) {
      opts.grow_callback = [](int64_t) { return true; };
    }
    lm_ = std::make_unique<LockManager>(std::move(opts));
    lm_->set_trace_sink(&sink_);
  }

  size_t Count(EventKind kind) const {
    return LockEvents(sink_, kind).size();
  }

  SimClock clock_;
  MemoryTraceSink sink_;
  std::unique_ptr<EscalationPolicy> policy_;
  std::unique_ptr<LockManager> lm_;
};

TEST_F(LockEventsTest, WaitBeginAndEnd) {
  Make(90.0, false);
  ASSERT_EQ(lm_->Lock(1, RowResource(kT, 1), LockMode::kX).outcome,
            LockOutcome::kGranted);
  ASSERT_EQ(lm_->Lock(2, RowResource(kT, 1), LockMode::kX).outcome,
            LockOutcome::kWaiting);
  EXPECT_EQ(Count(EventKind::kWaitBegin), 1u);
  EXPECT_EQ(Count(EventKind::kWaitEnd), 0u);
  lm_->ReleaseAll(1);
  EXPECT_EQ(Count(EventKind::kWaitEnd), 1u);
}

TEST_F(LockEventsTest, EscalationCarriesRowsReleased) {
  Make(10.0, false);
  // The quota check runs before a new row is allocated, so the escalating
  // request releases exactly the rows granted before it.
  int64_t granted_rows = 0;
  for (int64_t r = 0; r < 300; ++r) {
    if (lm_->Lock(1, RowResource(kT, r), LockMode::kS).escalated) break;
    ++granted_rows;
  }
  ASSERT_GT(granted_rows, 100);
  ASSERT_LT(granted_rows, 300);
  const std::vector<TraceRecord> escalations =
      LockEvents(sink_, EventKind::kEscalation);
  ASSERT_EQ(escalations.size(), 1u);
  EXPECT_EQ(*escalations[0].Find("app"), "1");
  EXPECT_EQ(*escalations[0].Find("resource"), "\"tab(1)\"");
  EXPECT_EQ(*escalations[0].Find("mode"), "\"S\"");
  EXPECT_EQ(*escalations[0].Find("rows_released"),
            std::to_string(granted_rows));
  EXPECT_EQ(escalations[0].Find("wait_ms"), nullptr);
  EXPECT_EQ(lm_->stats().escalations, 1);
}

TEST_F(LockEventsTest, SynchronousGrowthEvent) {
  Make(100.0, /*allow_growth=*/true);
  for (int64_t r = 0; r < kLocksPerBlock + 10; ++r) {
    // Two apps so the per-app quota never fires first.
    (void)lm_->Lock(1 + static_cast<AppId>(r % 2),
                    RowResource(static_cast<TableId>(r % 2), r),
                    LockMode::kS);
  }
  EXPECT_GE(Count(EventKind::kSynchronousGrowth), 1u);
}

TEST_F(LockEventsTest, TimeoutEvent) {
  Make(90.0, false, /*timeout=*/kSecond);
  ASSERT_EQ(lm_->Lock(1, RowResource(kT, 1), LockMode::kX).outcome,
            LockOutcome::kGranted);
  ASSERT_EQ(lm_->Lock(2, RowResource(kT, 1), LockMode::kX).outcome,
            LockOutcome::kWaiting);
  clock_.Advance(2 * kSecond);
  (void)lm_->ExpireTimedOutWaiters();
  EXPECT_EQ(Count(EventKind::kTimeout), 1u);
}

TEST_F(LockEventsTest, DeadlockVictimEvent) {
  Make(90.0, false);
  ASSERT_EQ(lm_->Lock(1, RowResource(kT, 1), LockMode::kX).outcome,
            LockOutcome::kGranted);
  ASSERT_EQ(lm_->Lock(2, RowResource(kT, 2), LockMode::kX).outcome,
            LockOutcome::kGranted);
  ASSERT_EQ(lm_->Lock(1, RowResource(kT, 2), LockMode::kX).outcome,
            LockOutcome::kWaiting);
  ASSERT_EQ(lm_->Lock(2, RowResource(kT, 1), LockMode::kX).outcome,
            LockOutcome::kWaiting);
  (void)lm_->DetectDeadlocks();
  EXPECT_EQ(Count(EventKind::kDeadlockVictim), 1u);
}

TEST_F(LockEventsTest, OutOfMemoryEvent) {
  Make(98.0, false);
  // Intent table locks only: nothing to escalate, so exhaustion is final.
  for (int64_t t = 0; t < kLocksPerBlock + 1; ++t) {
    const LockResult res =
        lm_->Lock(1, TableResource(static_cast<TableId>(t)), LockMode::kIS);
    if (res.outcome == LockOutcome::kOutOfMemory) break;
  }
  EXPECT_GE(Count(EventKind::kOutOfLockMemory), 1u);
}

TEST_F(LockEventsTest, NoTraceSinkAppendsNothing) {
  Make(90.0, false);
  lm_->set_trace_sink(nullptr);
  ASSERT_EQ(lm_->Lock(1, RowResource(kT, 1), LockMode::kX).outcome,
            LockOutcome::kGranted);
  ASSERT_EQ(lm_->Lock(2, RowResource(kT, 1), LockMode::kX).outcome,
            LockOutcome::kWaiting);
  lm_->ReleaseAll(1);
  EXPECT_EQ(lm_->stats().lock_waits, 1);  // the wait (and its end) happened
  EXPECT_FALSE(lm_->IsBlocked(2));
  EXPECT_TRUE(sink_.records().empty());
}

TEST_F(LockEventsTest, TraceSinkRendersWait) {
  Make(90.0, false);
  clock_.Advance(12'300);
  ASSERT_EQ(lm_->Lock(1, RowResource(4, 99), LockMode::kX).outcome,
            LockOutcome::kGranted);
  ASSERT_EQ(lm_->Lock(7, RowResource(4, 99), LockMode::kS).outcome,
            LockOutcome::kWaiting);
  // The intent table locks were granted without an event; only the row
  // wait is recorded.
  ASSERT_EQ(sink_.records().size(), 1u);
  const TraceRecord& rec = sink_.records()[0];
  EXPECT_EQ(rec.kind(), "lock_event");
  EXPECT_EQ(rec.time_ms(), 12'300);
  EXPECT_EQ(*rec.Find("event"), "\"WAIT_BEGIN\"");
  EXPECT_EQ(*rec.Find("app"), "7");
  EXPECT_EQ(*rec.Find("resource"), "\"row(4,99)\"");
  EXPECT_EQ(*rec.Find("mode"), "\"S\"");
  EXPECT_EQ(rec.Find("wait_ms"), nullptr);
}

TEST_F(LockEventsTest, TraceSinkWaitEndCarriesWaitMs) {
  Make(90.0, false);
  ASSERT_EQ(lm_->Lock(1, RowResource(kT, 1), LockMode::kX).outcome,
            LockOutcome::kGranted);
  ASSERT_EQ(lm_->Lock(3, RowResource(kT, 1), LockMode::kX).outcome,
            LockOutcome::kWaiting);
  clock_.Advance(250);
  lm_->ReleaseAll(1);
  const std::vector<TraceRecord> ends =
      LockEvents(sink_, EventKind::kWaitEnd);
  ASSERT_EQ(ends.size(), 1u);
  EXPECT_EQ(*ends[0].Find("app"), "3");
  EXPECT_EQ(*ends[0].Find("wait_ms"), "250");
  EXPECT_EQ(ends[0].time_ms(), 250);
}

TEST_F(LockEventsTest, TraceSinkClearedMidRunStopsRecords) {
  Make(90.0, false);
  lm_->set_trace_sink(nullptr);
  ASSERT_EQ(lm_->Lock(1, RowResource(kT, 1), LockMode::kX).outcome,
            LockOutcome::kGranted);
  ASSERT_EQ(lm_->Lock(2, RowResource(kT, 1), LockMode::kX).outcome,
            LockOutcome::kWaiting);  // WAIT_BEGIN before the sink: dropped
  lm_->set_trace_sink(&sink_);
  lm_->ReleaseAll(1);  // WAIT_END for app 2: recorded
  lm_->set_trace_sink(nullptr);
  ASSERT_EQ(lm_->Lock(3, RowResource(kT, 1), LockMode::kX).outcome,
            LockOutcome::kWaiting);  // WAIT_BEGIN after clearing: dropped
  EXPECT_EQ(lm_->stats().lock_waits, 2);
  ASSERT_EQ(sink_.records().size(), 1u);
  EXPECT_EQ(*sink_.records()[0].Find("event"), "\"WAIT_END\"");
  EXPECT_EQ(*sink_.records()[0].Find("app"), "2");
}

}  // namespace
}  // namespace locktune
