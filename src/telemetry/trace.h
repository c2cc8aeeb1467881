// Structured decision traces — the machine-readable `db2pd -stmm` analogue.
//
// A TraceRecord is one timestamped event (a tuning pass, a lock event, a
// scenario milestone) with typed key/value fields, rendered as one JSON
// object per line (JSONL). The STMM controller emits one record per tuning
// pass capturing its inputs, the chosen action, and a human-readable *why*;
// the lock manager appends one `lock_event` record per lock event
// (LockManager::set_trace_sink). Timestamps are SimClock virtual time, so
// traces line up with the sampled series and the stderr log.
#ifndef LOCKTUNE_TELEMETRY_TRACE_H_
#define LOCKTUNE_TELEMETRY_TRACE_H_

#include <cstdint>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

#include "common/sim_clock.h"

namespace locktune {

// Escapes `s` for inclusion inside a JSON string literal (quotes not
// included).
std::string JsonEscape(std::string_view s);

// One trace event. Fields keep insertion order; values are rendered to
// their JSON form as they are added.
class TraceRecord {
 public:
  TraceRecord(TimeMs time, std::string kind)
      : time_ms_(time), kind_(std::move(kind)) {}

  TraceRecord& Str(std::string key, std::string_view value);
  TraceRecord& Int(std::string key, int64_t value);
  TraceRecord& Real(std::string key, double value);
  TraceRecord& Bool(std::string key, bool value);

  TimeMs time_ms() const { return time_ms_; }
  const std::string& kind() const { return kind_; }

  // Rendered JSON value of `key` (e.g. `"GROW"` or `42`), or nullptr when
  // absent. Intended for tests.
  const std::string* Find(std::string_view key) const;

  // `{"t_ms":1234,"kind":"tuning_pass",...}`.
  std::string ToJson() const;

 private:
  struct Field {
    std::string key;
    std::string json_value;
  };

  TimeMs time_ms_ = 0;
  std::string kind_;
  std::vector<Field> fields_;
};

// Receives trace records. Records arrive in the middle of a lock request
// (LockManager::Emit): be fast, never call back into the producing
// subsystem.
class TraceSink {
 public:
  virtual ~TraceSink() = default;
  virtual void Append(const TraceRecord& record) = 0;
  virtual void Flush() {}
};

// Writes one JSON object per line to a stream (borrowed).
class JsonlTraceWriter : public TraceSink {
 public:
  explicit JsonlTraceWriter(std::ostream* os) : os_(os) {}

  void Append(const TraceRecord& record) override;
  void Flush() override;

  int64_t records_written() const { return records_; }

 private:
  std::ostream* os_;
  int64_t records_ = 0;
};

// Buffers records in memory (tests, bench/fig3_4_lock_structures).
class MemoryTraceSink : public TraceSink {
 public:
  void Append(const TraceRecord& record) override {
    records_.push_back(record);
  }

  const std::vector<TraceRecord>& records() const { return records_; }

 private:
  std::vector<TraceRecord> records_;
};

}  // namespace locktune

#endif  // LOCKTUNE_TELEMETRY_TRACE_H_
