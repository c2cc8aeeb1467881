#include "lock/lock_event_monitor.h"

#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/units.h"
#include "lock/lock_manager.h"
#include "telemetry/trace.h"

namespace locktune {
namespace {

constexpr TableId kT = 1;

LockEvent MakeEvent(LockEventKind kind, AppId app = 1, TimeMs t = 0) {
  LockEvent e;
  e.kind = kind;
  e.app = app;
  e.time = t;
  return e;
}

TEST(RingBufferMonitorTest, KeepsEventsInOrder) {
  RingBufferEventMonitor ring(8);
  for (int i = 0; i < 5; ++i) {
    ring.OnLockEvent(MakeEvent(LockEventKind::kWaitBegin, i));
  }
  const std::vector<LockEvent> events = ring.Events();
  ASSERT_EQ(events.size(), 5u);
  for (int i = 0; i < 5; ++i) EXPECT_EQ(events[static_cast<size_t>(i)].app, i);
  EXPECT_EQ(ring.total_events(), 5);
}

TEST(RingBufferMonitorTest, WrapsKeepingNewest) {
  RingBufferEventMonitor ring(4);
  for (int i = 0; i < 10; ++i) {
    ring.OnLockEvent(MakeEvent(LockEventKind::kWaitBegin, i));
  }
  const std::vector<LockEvent> events = ring.Events();
  ASSERT_EQ(events.size(), 4u);
  EXPECT_EQ(events.front().app, 6);  // oldest retained
  EXPECT_EQ(events.back().app, 9);   // newest
  EXPECT_EQ(ring.total_events(), 10);
}

TEST(RingBufferMonitorTest, DumpRendersLines) {
  RingBufferEventMonitor ring(4);
  LockEvent e = MakeEvent(LockEventKind::kEscalation, 7, 12'300);
  e.resource = TableResource(3);
  e.mode = LockMode::kX;
  e.value = 2048;
  ring.OnLockEvent(e);
  const std::string dump = ring.Dump();
  EXPECT_NE(dump.find("ESCALATION"), std::string::npos);
  EXPECT_NE(dump.find("app=7"), std::string::npos);
  EXPECT_NE(dump.find("tab(3)"), std::string::npos);
  EXPECT_NE(dump.find("value=2048"), std::string::npos);
  EXPECT_NE(dump.find("t=12.3s"), std::string::npos);
}

TEST(CountingMonitorTest, CountsByKind) {
  CountingEventMonitor counter;
  counter.OnLockEvent(MakeEvent(LockEventKind::kWaitBegin));
  counter.OnLockEvent(MakeEvent(LockEventKind::kWaitBegin));
  counter.OnLockEvent(MakeEvent(LockEventKind::kTimeout));
  EXPECT_EQ(counter.count(LockEventKind::kWaitBegin), 2);
  EXPECT_EQ(counter.count(LockEventKind::kTimeout), 1);
  EXPECT_EQ(counter.count(LockEventKind::kEscalation), 0);
  EXPECT_EQ(counter.total(), 3);
}

TEST(LockEventKindTest, NamesAreStable) {
  EXPECT_EQ(LockEventKindName(LockEventKind::kWaitBegin), "WAIT_BEGIN");
  EXPECT_EQ(LockEventKindName(LockEventKind::kEscalation), "ESCALATION");
  EXPECT_EQ(LockEventKindName(LockEventKind::kSynchronousGrowth),
            "SYNC_GROWTH");
}

// --- integration: the LockManager emits the right events ---

class MonitoredManagerTest : public ::testing::Test {
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
    opts.monitor = &events_;
    if (allow_growth) {
      opts.grow_callback = [](int64_t) { return true; };
    }
    lm_ = std::make_unique<LockManager>(std::move(opts));
  }

  SimClock clock_;
  CountingEventMonitor events_;
  std::unique_ptr<EscalationPolicy> policy_;
  std::unique_ptr<LockManager> lm_;
};

TEST_F(MonitoredManagerTest, WaitBeginAndEnd) {
  Make(90.0, false);
  ASSERT_EQ(lm_->Lock(1, RowResource(kT, 1), LockMode::kX).outcome,
            LockOutcome::kGranted);
  ASSERT_EQ(lm_->Lock(2, RowResource(kT, 1), LockMode::kX).outcome,
            LockOutcome::kWaiting);
  EXPECT_EQ(events_.count(LockEventKind::kWaitBegin), 1);
  EXPECT_EQ(events_.count(LockEventKind::kWaitEnd), 0);
  lm_->ReleaseAll(1);
  EXPECT_EQ(events_.count(LockEventKind::kWaitEnd), 1);
}

TEST_F(MonitoredManagerTest, EscalationEventCarriesRowCount) {
  RingBufferEventMonitor ring(64);
  policy_ = std::make_unique<FixedMaxlocksPolicy>(10.0);
  LockManagerOptions opts;
  opts.initial_blocks = 1;
  opts.max_lock_memory = 8 * kMiB;
  opts.database_memory = 64 * kMiB;
  opts.policy = policy_.get();
  opts.monitor = &ring;
  LockManager lm(std::move(opts));
  for (int64_t r = 0; r < 300; ++r) {
    if (lm.Lock(1, RowResource(kT, r), LockMode::kS).escalated) break;
  }
  bool saw_escalation = false;
  for (const LockEvent& e : ring.Events()) {
    if (e.kind == LockEventKind::kEscalation) {
      saw_escalation = true;
      EXPECT_EQ(e.resource, TableResource(kT));
      EXPECT_EQ(e.mode, LockMode::kS);
      EXPECT_GT(e.value, 100);  // the released row locks
    }
  }
  EXPECT_TRUE(saw_escalation);
}

TEST_F(MonitoredManagerTest, SynchronousGrowthEvent) {
  Make(100.0, /*allow_growth=*/true);
  for (int64_t r = 0; r < kLocksPerBlock + 10; ++r) {
    // Two apps so the per-app quota never fires first.
    (void)lm_->Lock(1 + static_cast<AppId>(r % 2),
                    RowResource(static_cast<TableId>(r % 2), r),
                    LockMode::kS);
  }
  EXPECT_GE(events_.count(LockEventKind::kSynchronousGrowth), 1);
}

TEST_F(MonitoredManagerTest, TimeoutEvent) {
  Make(90.0, false, /*timeout=*/kSecond);
  ASSERT_EQ(lm_->Lock(1, RowResource(kT, 1), LockMode::kX).outcome,
            LockOutcome::kGranted);
  ASSERT_EQ(lm_->Lock(2, RowResource(kT, 1), LockMode::kX).outcome,
            LockOutcome::kWaiting);
  clock_.Advance(2 * kSecond);
  (void)lm_->ExpireTimedOutWaiters();
  EXPECT_EQ(events_.count(LockEventKind::kTimeout), 1);
}

TEST_F(MonitoredManagerTest, DeadlockVictimEvent) {
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
  EXPECT_EQ(events_.count(LockEventKind::kDeadlockVictim), 1);
}

TEST_F(MonitoredManagerTest, OutOfMemoryEvent) {
  Make(98.0, false);
  // Intent table locks only: nothing to escalate, so exhaustion is final.
  for (int64_t t = 0; t < kLocksPerBlock + 1; ++t) {
    const LockResult res =
        lm_->Lock(1, TableResource(static_cast<TableId>(t)), LockMode::kIS);
    if (res.outcome == LockOutcome::kOutOfMemory) break;
  }
  EXPECT_GE(events_.count(LockEventKind::kOutOfLockMemory), 1);
}

// --- the lock manager's trace sink: one `lock_event` record per event ---

// Records of kind "lock_event" whose `event` field is `name`.
std::vector<TraceRecord> LockEvents(const MemoryTraceSink& sink,
                                    const std::string& name) {
  std::vector<TraceRecord> out;
  for (const TraceRecord& rec : sink.records()) {
    const std::string* event = rec.Find("event");
    if (rec.kind() == "lock_event" && event != nullptr &&
        *event == "\"" + name + "\"") {
      out.push_back(rec);
    }
  }
  return out;
}

TEST_F(MonitoredManagerTest, NoTraceSinkAppendsNothing) {
  Make(90.0, false);
  MemoryTraceSink sink;  // never installed
  ASSERT_EQ(lm_->Lock(1, RowResource(kT, 1), LockMode::kX).outcome,
            LockOutcome::kGranted);
  ASSERT_EQ(lm_->Lock(2, RowResource(kT, 1), LockMode::kX).outcome,
            LockOutcome::kWaiting);
  lm_->ReleaseAll(1);
  EXPECT_EQ(events_.count(LockEventKind::kWaitBegin), 1);
  EXPECT_EQ(events_.count(LockEventKind::kWaitEnd), 1);
  EXPECT_TRUE(sink.records().empty());
}

TEST_F(MonitoredManagerTest, TraceSinkRendersWait) {
  Make(90.0, false);
  MemoryTraceSink sink;
  lm_->set_trace_sink(&sink);
  clock_.Advance(12'300);
  ASSERT_EQ(lm_->Lock(1, RowResource(4, 99), LockMode::kX).outcome,
            LockOutcome::kGranted);
  ASSERT_EQ(lm_->Lock(7, RowResource(4, 99), LockMode::kS).outcome,
            LockOutcome::kWaiting);
  // The intent table locks were granted without an event; only the row
  // wait is recorded.
  ASSERT_EQ(sink.records().size(), 1u);
  const TraceRecord& rec = sink.records()[0];
  EXPECT_EQ(rec.kind(), "lock_event");
  EXPECT_EQ(rec.time_ms(), 12'300);
  EXPECT_EQ(*rec.Find("event"), "\"WAIT_BEGIN\"");
  EXPECT_EQ(*rec.Find("app"), "7");
  EXPECT_EQ(*rec.Find("resource"), "\"row(4,99)\"");
  EXPECT_EQ(*rec.Find("mode"), "\"S\"");
  EXPECT_EQ(rec.Find("wait_ms"), nullptr);
}

TEST_F(MonitoredManagerTest, TraceSinkWaitEndCarriesWaitMs) {
  Make(90.0, false);
  MemoryTraceSink sink;
  lm_->set_trace_sink(&sink);
  ASSERT_EQ(lm_->Lock(1, RowResource(kT, 1), LockMode::kX).outcome,
            LockOutcome::kGranted);
  ASSERT_EQ(lm_->Lock(3, RowResource(kT, 1), LockMode::kX).outcome,
            LockOutcome::kWaiting);
  clock_.Advance(250);
  lm_->ReleaseAll(1);
  const std::vector<TraceRecord> ends = LockEvents(sink, "WAIT_END");
  ASSERT_EQ(ends.size(), 1u);
  EXPECT_EQ(*ends[0].Find("app"), "3");
  EXPECT_EQ(*ends[0].Find("wait_ms"), "250");
  EXPECT_EQ(ends[0].time_ms(), 250);
}

TEST_F(MonitoredManagerTest, TraceSinkEscalationCarriesRowsReleased) {
  RingBufferEventMonitor ring(64);
  policy_ = std::make_unique<FixedMaxlocksPolicy>(10.0);
  LockManagerOptions opts;
  opts.initial_blocks = 1;
  opts.max_lock_memory = 8 * kMiB;
  opts.database_memory = 64 * kMiB;
  opts.policy = policy_.get();
  opts.monitor = &ring;
  LockManager lm(std::move(opts));
  MemoryTraceSink sink;
  lm.set_trace_sink(&sink);
  for (int64_t r = 0; r < 300; ++r) {
    if (lm.Lock(1, RowResource(kT, r), LockMode::kS).escalated) break;
  }
  int64_t rows_released = 0;
  for (const LockEvent& e : ring.Events()) {
    if (e.kind == LockEventKind::kEscalation) rows_released = e.value;
  }
  ASSERT_GT(rows_released, 100);
  const std::vector<TraceRecord> escalations = LockEvents(sink, "ESCALATION");
  ASSERT_EQ(escalations.size(), 1u);
  EXPECT_EQ(*escalations[0].Find("resource"), "\"tab(1)\"");
  EXPECT_EQ(*escalations[0].Find("mode"), "\"S\"");
  EXPECT_EQ(*escalations[0].Find("rows_released"),
            std::to_string(rows_released));
  EXPECT_EQ(escalations[0].Find("wait_ms"), nullptr);
}

TEST_F(MonitoredManagerTest, TraceSinkClearedMidRunStopsRecords) {
  Make(90.0, false);
  MemoryTraceSink sink;
  ASSERT_EQ(lm_->Lock(1, RowResource(kT, 1), LockMode::kX).outcome,
            LockOutcome::kGranted);
  ASSERT_EQ(lm_->Lock(2, RowResource(kT, 1), LockMode::kX).outcome,
            LockOutcome::kWaiting);  // WAIT_BEGIN before the sink: dropped
  lm_->set_trace_sink(&sink);
  lm_->ReleaseAll(1);  // WAIT_END for app 2: recorded
  lm_->set_trace_sink(nullptr);
  ASSERT_EQ(lm_->Lock(3, RowResource(kT, 1), LockMode::kX).outcome,
            LockOutcome::kWaiting);  // WAIT_BEGIN after clearing: dropped
  EXPECT_EQ(events_.count(LockEventKind::kWaitBegin), 2);
  EXPECT_EQ(events_.count(LockEventKind::kWaitEnd), 1);
  ASSERT_EQ(sink.records().size(), 1u);
  EXPECT_EQ(*sink.records()[0].Find("event"), "\"WAIT_END\"");
  EXPECT_EQ(*sink.records()[0].Find("app"), "2");
}

}  // namespace
}  // namespace locktune
