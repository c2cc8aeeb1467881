#include "telemetry/flight_recorder.h"

#include <cstdio>
#include <string>

#include <gtest/gtest.h>

#include "common/check.h"

namespace locktune {
namespace {

// Reads a FILE* produced by dumping into a tmpfile.
std::string Slurp(std::FILE* f) {
  std::string out;
  std::rewind(f);
  char buf[4096];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) out.append(buf, n);
  return out;
}

TEST(FlightRecorderTest, RecordsInOrder) {
  ResetFlightRecorderForTesting();
  FlightRecord(EventKind::kEscalation, 10, 1, 7, 0);
  FlightRecord(EventKind::kTimeout, 20, 2, 8, 1);
  FlightRecord(EventKind::kTunerPass, 30, 0, 2, 4096);
  const std::vector<FlightEvent> events = RecentFlightEvents();
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[0].kind, EventKind::kEscalation);
  EXPECT_EQ(events[0].time_ms, 10);
  EXPECT_EQ(events[0].app, 1);
  EXPECT_EQ(events[1].kind, EventKind::kTimeout);
  EXPECT_EQ(events[2].kind, EventKind::kTunerPass);
  EXPECT_EQ(events[2].b, 4096);
  EXPECT_EQ(FlightEventsRecorded(), 3u);
}

TEST(FlightRecorderTest, WraparoundKeepsLastCapacityEvents) {
  ResetFlightRecorderForTesting();
  const int kRecorded = 300;  // > kFlightRingCapacity (256)
  for (int i = 0; i < kRecorded; ++i) {
    FlightRecord(EventKind::kWaitBegin, i, i, 0, 0);
  }
  const std::vector<FlightEvent> events = RecentFlightEvents();
  ASSERT_EQ(events.size(), static_cast<size_t>(kFlightRingCapacity));
  // Events 44..299 survive, oldest first, with no gaps.
  EXPECT_EQ(events.front().time_ms, kRecorded - kFlightRingCapacity);
  EXPECT_EQ(events.back().time_ms, kRecorded - 1);
  for (size_t i = 1; i < events.size(); ++i) {
    EXPECT_EQ(events[i].time_ms, events[i - 1].time_ms + 1);
  }
  // The total keeps counting past the ring capacity.
  EXPECT_EQ(FlightEventsRecorded(), static_cast<uint64_t>(kRecorded));
}

TEST(FlightRecorderTest, EventToStringNamesTheKind) {
  const FlightEvent event{42, EventKind::kDeadlockVictim, 3, 17, 9};
  const std::string s = event.ToString();
  EXPECT_NE(s.find("t=42ms"), std::string::npos) << s;
  EXPECT_NE(s.find("deadlock_victim"), std::string::npos) << s;
  EXPECT_NE(s.find("app=3"), std::string::npos) << s;
}

TEST(FlightRecorderTest, DumpListsRingsAndEvents) {
  ResetFlightRecorderForTesting();
  FlightRecord(EventKind::kOutOfLockMemory, 99, 4, 0, 123);
  std::FILE* f = std::tmpfile();
  ASSERT_NE(f, nullptr);
  DumpFlightRecorder(f);
  const std::string dump = Slurp(f);
  std::fclose(f);
  EXPECT_NE(dump.find("flight recorder dump"), std::string::npos) << dump;
  EXPECT_NE(dump.find("out_of_lock_memory"), std::string::npos) << dump;
  EXPECT_NE(dump.find("t=99ms"), std::string::npos) << dump;
}

TEST(FlightRecorderTest, VictimDumpBudgetIsOncePerProcessWhenArmed) {
  ResetFlightRecorderForTesting();  // also restores the budget
  ArmFlightDumpOnVictim(false);
  EXPECT_FALSE(FlightDumpOnVictimArmed());
  EXPECT_FALSE(TakeVictimDumpBudget());  // unarmed: never spends
  ArmFlightDumpOnVictim(true);
  EXPECT_TRUE(FlightDumpOnVictimArmed());
  EXPECT_TRUE(TakeVictimDumpBudget());
  EXPECT_FALSE(TakeVictimDumpBudget());  // budget spent
  ArmFlightDumpOnVictim(false);
}

// A failed LOCKTUNE_CHECK must come with the flight-recorder post-mortem.
// This is the tentpole's core debugging promise; the ctest registration
// also runs this binary under LOCKTUNE_PARANOID=1 to cover the paranoid
// invariant path, which funnels through the same macro.
TEST(FlightRecorderDeathTest, CheckFailureDumpsRecorder) {
  EXPECT_DEATH(
      {
        FlightRecord(EventKind::kEscalation, 7, 1, 2, 3);
        LOCKTUNE_CHECK(1 == 2);
      },
      "CHECK failed(.|\n)*flight recorder dump(.|\n)*escalation");
}

}  // namespace
}  // namespace locktune
