// Chrome trace-event JSON exporter (ui.perfetto.dev / chrome://tracing).
//
// The collector records complete ("X") and instant ("i") events on two
// synthetic processes:
//
//   pid 1  "sim (virtual time)"  — timestamps are SimClock milliseconds
//          converted to trace microseconds: tick spans, STMM tuning
//          passes, escalation/victim/timeout instants. Deterministic.
//   pid 2  "profiler (real time)" — timestamps are steady_clock
//          microseconds since the collector was armed: per-tick worker
//          spans in parallel mode, showing real load imbalance.
//
// Arming is a process-global pointer (SetGlobalTraceCollector): emission
// sites are per-tick or per-tuning-pass — cold — and guard themselves
// with a single relaxed pointer load, so an unarmed run pays one branch
// per site. The collector only runs when a sink was explicitly requested
// (locktune_sim --trace-profile).
#ifndef LOCKTUNE_TELEMETRY_CHROME_TRACE_H_
#define LOCKTUNE_TELEMETRY_CHROME_TRACE_H_

#include <chrono>
#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"

namespace locktune {

inline constexpr int kTracePidSim = 1;
inline constexpr int kTracePidReal = 2;

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
  ChromeTraceCollector();

  void Span(const std::string& name, int pid, int tid, int64_t ts_us,
            int64_t dur_us, const std::string& args_json = "");
  void Instant(const std::string& name, int pid, int tid, int64_t ts_us,
               const std::string& args_json = "");

  // Microseconds of real time since construction (the pid-2 clock).
  int64_t RealNowUs() const;

  size_t event_count() const;

  // The full trace-event JSON object ({"traceEvents": [...], ...}),
  // including process/thread-name metadata. Events keep emission order.
  void WriteJson(std::ostream& os) const;

 private:
  // Leaf rank: Span/Instant are called from tick loops and workers that
  // may hold subsystem locks above; the collector takes nothing else.
  mutable Mutex mu_{kLockRankLeaf, "ChromeTraceCollector::mu_"};
  std::vector<ChromeTraceEvent> events_ LT_GUARDED_BY(mu_);
  std::chrono::steady_clock::time_point t0_;
};

// Global arming. The caller owns the collector and must disarm (set
// nullptr) before destroying it.
void SetGlobalTraceCollector(ChromeTraceCollector* collector);
ChromeTraceCollector* GlobalTraceCollector();

// SimClock ms → trace us.
inline int64_t SimTimeToTraceUs(int64_t time_ms) { return time_ms * 1000; }

}  // namespace locktune

#endif  // LOCKTUNE_TELEMETRY_CHROME_TRACE_H_
