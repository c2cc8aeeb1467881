// Chrome trace-event JSON exporter (ui.perfetto.dev / chrome://tracing).
//
// The collector records complete ("X") and instant ("i") events on one
// synthetic process, pid 1 "sim (virtual time)": timestamps are SimClock
// milliseconds converted to trace microseconds — tick spans, STMM tuning
// passes, escalation/victim/timeout instants. Deterministic.
//
// Arming is a process-global pointer (SetGlobalTraceCollector): emission
// sites are per-tick or per-tuning-pass — cold — and guard themselves
// with a single pointer load, so an unarmed run pays one branch per site.
// The collector only runs when a sink was explicitly requested
// (locktune_sim --trace-profile).
#ifndef LOCKTUNE_TELEMETRY_CHROME_TRACE_H_
#define LOCKTUNE_TELEMETRY_CHROME_TRACE_H_

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

namespace locktune {

inline constexpr int kTracePidSim = 1;

// Well-known tids on the sim process.
inline constexpr int kTraceTidTicks = 0;
inline constexpr int kTraceTidStmm = 1;
inline constexpr int kTraceTidLockEvents = 2;

struct ChromeTraceEvent {
  std::string name;
  char ph = 'X';  // 'X' complete, 'i' instant, 'M' metadata
  int64_t ts_us = 0;
  int64_t dur_us = 0;     // 'X' only
  int pid = kTracePidSim;
  int tid = 0;
  std::string args_json;  // preformatted {"k":v,...} body, may be empty
};

class ChromeTraceCollector {
 public:
  void Span(const std::string& name, int pid, int tid, int64_t ts_us,
            int64_t dur_us, const std::string& args_json = "");
  void Instant(const std::string& name, int pid, int tid, int64_t ts_us,
               const std::string& args_json = "");

  size_t event_count() const { return events_.size(); }

  // The full trace-event JSON object ({"traceEvents": [...], ...}),
  // including process/thread-name metadata. Events keep emission order.
  void WriteJson(std::ostream& os) const;

 private:
  std::vector<ChromeTraceEvent> events_;
};

// Global arming. The caller owns the collector and must disarm (set
// nullptr) before destroying it.
void SetGlobalTraceCollector(ChromeTraceCollector* collector);
ChromeTraceCollector* GlobalTraceCollector();

// SimClock ms → trace us.
inline int64_t SimTimeToTraceUs(int64_t time_ms) { return time_ms * 1000; }

}  // namespace locktune

#endif  // LOCKTUNE_TELEMETRY_CHROME_TRACE_H_
