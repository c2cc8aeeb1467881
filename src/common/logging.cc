#include "common/logging.h"

#include <cstdio>

#include "common/sim_clock.h"

namespace locktune {

namespace {

LogLevel g_level = LogLevel::kWarning;
const SimClock* g_clock = nullptr;

const char* LevelTag(LogLevel level) {
  switch (level) {
    case LogLevel::kTrace:
      return "T";
    case LogLevel::kDebug:
      return "D";
    case LogLevel::kInfo:
      return "I";
    case LogLevel::kWarning:
      return "W";
    case LogLevel::kError:
      return "E";
  }
  return "?";
}

// Strips the directory portion so log lines stay short.
const char* Basename(const char* path) {
  const char* base = path;
  for (const char* p = path; *p; ++p) {
    if (*p == '/') base = p + 1;
  }
  return base;
}

}  // namespace

LogLevel GetLogLevel() { return g_level; }

void SetLogLevel(LogLevel level) { g_level = level; }

void SetLogClock(const SimClock* clock) { g_clock = clock; }

const SimClock* GetLogClock() { return g_clock; }

namespace internal_logging {

std::string LogPrefix(LogLevel level, const char* file, int line) {
  std::ostringstream os;
  os << "[";
  if (const SimClock* clock = GetLogClock()) {
    char t[32];
    std::snprintf(t, sizeof(t), "t=%.3fs ",
                  static_cast<double>(clock->now()) / 1000.0);
    os << t;
  }
  os << LevelTag(level) << " " << Basename(file) << ":" << line << "] ";
  return os.str();
}

LogMessage::LogMessage(LogLevel level, const char* file, int line)
    : level_(level) {
  stream_ << LogPrefix(level, file, line);
}

LogMessage::~LogMessage() {
  stream_ << "\n";
  std::fputs(stream_.str().c_str(), stderr);
  (void)level_;
}

}  // namespace internal_logging

}  // namespace locktune
