#include "telemetry/chrome_trace.h"

#include <sstream>
#include <string>

#include <gtest/gtest.h>

namespace locktune {
namespace {

// Minimal structural validation: balanced braces/brackets outside strings.
// The CI profile-smoke job runs the real check (jq over a full sim trace);
// this keeps the unit feedback loop fast.
bool BalancedJson(const std::string& s) {
  int depth = 0;
  bool in_string = false;
  for (size_t i = 0; i < s.size(); ++i) {
    const char c = s[i];
    if (in_string) {
      if (c == '\\') ++i;
      else if (c == '"') in_string = false;
      continue;
    }
    if (c == '"') in_string = true;
    else if (c == '{' || c == '[') ++depth;
    else if (c == '}' || c == ']') --depth;
    if (depth < 0) return false;
  }
  return depth == 0 && !in_string;
}

std::string Render(const ChromeTraceCollector& collector) {
  std::ostringstream os;
  collector.WriteJson(os);
  return os.str();
}

TEST(ChromeTraceTest, EmptyCollectorStillWritesMetadata) {
  ChromeTraceCollector collector;
  EXPECT_EQ(collector.event_count(), 0u);
  const std::string json = Render(collector);
  EXPECT_TRUE(BalancedJson(json)) << json;
  EXPECT_NE(json.find("\"traceEvents\":["), std::string::npos);
  EXPECT_NE(json.find("sim (virtual time)"), std::string::npos);
  for (const char* thread : {"ticks", "stmm", "lock events"}) {
    EXPECT_NE(json.find(thread), std::string::npos) << thread;
  }
}

TEST(ChromeTraceTest, SpanAndInstantRoundTrip) {
  ChromeTraceCollector collector;
  collector.Span("tick", kTracePidSim, kTraceTidTicks,
                 SimTimeToTraceUs(100), 1000, "{\"clients\":8}");
  collector.Instant("DEADLOCK_VICTIM", kTracePidSim, kTraceTidLockEvents,
                    SimTimeToTraceUs(150));
  EXPECT_EQ(collector.event_count(), 2u);
  const std::string json = Render(collector);
  EXPECT_TRUE(BalancedJson(json)) << json;
  // The span keeps its duration and args; sim ms 100 is trace us 100000.
  EXPECT_NE(json.find("{\"name\":\"tick\",\"ph\":\"X\",\"ts\":100000,"
                      "\"dur\":1000,\"pid\":1,\"tid\":0,"
                      "\"args\":{\"clients\":8}}"),
            std::string::npos)
      << json;
  // The instant carries the scope field and no duration.
  EXPECT_NE(json.find("{\"name\":\"DEADLOCK_VICTIM\",\"ph\":\"i\","
                      "\"ts\":150000,\"s\":\"t\",\"pid\":1,\"tid\":2}"),
            std::string::npos)
      << json;
}

TEST(ChromeTraceTest, EventNamesAreJsonEscaped) {
  ChromeTraceCollector collector;
  collector.Instant("quote\" backslash\\ newline\n", kTracePidSim, 0, 0);
  const std::string json = Render(collector);
  EXPECT_TRUE(BalancedJson(json)) << json;
  EXPECT_NE(json.find("quote\\\" backslash\\\\ newline\\u000a"),
            std::string::npos)
      << json;
}

TEST(ChromeTraceTest, GlobalArmingRoundTrips) {
  EXPECT_EQ(GlobalTraceCollector(), nullptr);
  ChromeTraceCollector collector;
  SetGlobalTraceCollector(&collector);
  EXPECT_EQ(GlobalTraceCollector(), &collector);
  SetGlobalTraceCollector(nullptr);
  EXPECT_EQ(GlobalTraceCollector(), nullptr);
}

TEST(ChromeTraceTest, SimTimeConversion) {
  EXPECT_EQ(SimTimeToTraceUs(0), 0);
  EXPECT_EQ(SimTimeToTraceUs(1), 1000);
  EXPECT_EQ(SimTimeToTraceUs(2500), 2'500'000);
}

}  // namespace
}  // namespace locktune
