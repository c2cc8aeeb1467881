#include "telemetry/chrome_trace.h"

#include <cstdio>

namespace locktune {

namespace {

ChromeTraceCollector* g_collector = nullptr;

// JSON string escaping for event names (the args body is caller-built from
// trusted constant keys and numeric values).
std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  out += '"';
  return out;
}

}  // namespace

void ChromeTraceCollector::Span(const std::string& name, int pid, int tid,
                                int64_t ts_us, int64_t dur_us,
                                const std::string& args_json) {
  events_.push_back({name, 'X', ts_us, dur_us, pid, tid, args_json});
}

void ChromeTraceCollector::Instant(const std::string& name, int pid, int tid,
                                   int64_t ts_us,
                                   const std::string& args_json) {
  events_.push_back({name, 'i', ts_us, 0, pid, tid, args_json});
}

void ChromeTraceCollector::WriteJson(std::ostream& os) const {
  std::vector<std::string> lines;
  lines.reserve(events_.size() + 4);
  const auto meta = [&lines](int pid, int tid, const char* which,
                             const std::string& name) {
    lines.push_back("{\"name\":\"" + std::string(which) +
                    "\",\"ph\":\"M\",\"pid\":" + std::to_string(pid) +
                    ",\"tid\":" + std::to_string(tid) +
                    ",\"args\":{\"name\":" + JsonString(name) + "}}");
  };
  meta(kTracePidSim, 0, "process_name", "sim (virtual time)");
  meta(kTracePidSim, kTraceTidTicks, "thread_name", "ticks");
  meta(kTracePidSim, kTraceTidStmm, "thread_name", "stmm");
  meta(kTracePidSim, kTraceTidLockEvents, "thread_name", "lock events");
  for (const ChromeTraceEvent& e : events_) {
    std::string line = "{\"name\":" + JsonString(e.name) + ",\"ph\":\"" +
                       e.ph + std::string("\",\"ts\":") +
                       std::to_string(e.ts_us);
    if (e.ph == 'X') line += ",\"dur\":" + std::to_string(e.dur_us);
    if (e.ph == 'i') line += ",\"s\":\"t\"";
    line += ",\"pid\":" + std::to_string(e.pid) +
            ",\"tid\":" + std::to_string(e.tid);
    if (!e.args_json.empty()) line += ",\"args\":" + e.args_json;
    line += "}";
    lines.push_back(std::move(line));
  }
  os << "{\"traceEvents\":[\n";
  for (size_t i = 0; i < lines.size(); ++i) {
    os << lines[i] << (i + 1 < lines.size() ? ",\n" : "\n");
  }
  os << "],\"displayTimeUnit\":\"ms\"}\n";
}

void SetGlobalTraceCollector(ChromeTraceCollector* collector) {
  g_collector = collector;
}

ChromeTraceCollector* GlobalTraceCollector() { return g_collector; }

}  // namespace locktune
