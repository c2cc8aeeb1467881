#include "telemetry/trace.h"

#include <cmath>
#include <cstdio>

namespace locktune {

std::string JsonEscape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      case '\r':
        out += "\\r";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

namespace {

std::string RenderDouble(double v) {
  if (!std::isfinite(v)) return "null";  // JSON has no inf/nan
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

}  // namespace

TraceRecord& TraceRecord::Str(std::string key, std::string_view value) {
  fields_.push_back({std::move(key), "\"" + JsonEscape(value) + "\""});
  return *this;
}

TraceRecord& TraceRecord::Int(std::string key, int64_t value) {
  fields_.push_back({std::move(key), std::to_string(value)});
  return *this;
}

TraceRecord& TraceRecord::Real(std::string key, double value) {
  fields_.push_back({std::move(key), RenderDouble(value)});
  return *this;
}

TraceRecord& TraceRecord::Bool(std::string key, bool value) {
  fields_.push_back({std::move(key), value ? "true" : "false"});
  return *this;
}

const std::string* TraceRecord::Find(std::string_view key) const {
  for (const Field& f : fields_) {
    if (f.key == key) return &f.json_value;
  }
  return nullptr;
}

std::string TraceRecord::ToJson() const {
  std::string out = "{\"t_ms\":" + std::to_string(time_ms_) +
                    ",\"kind\":\"" + JsonEscape(kind_) + "\"";
  for (const Field& f : fields_) {
    out += ",\"" + JsonEscape(f.key) + "\":" + f.json_value;
  }
  out += "}";
  return out;
}

void JsonlTraceWriter::Append(const TraceRecord& record) {
  if (os_ == nullptr) return;
  *os_ << record.ToJson() << '\n';
  ++records_;
}

void JsonlTraceWriter::Flush() {
  if (os_ != nullptr) os_->flush();
}

}  // namespace locktune
