// End-to-end smoke test for the locktune_sim binary: runs the Figure 9 ramp
// scenario with --metrics-out / --trace-out and checks both outputs parse
// (strict JSONL validation, Prometheus line shape), that the decision trace
// matches the run summary, and that bad flags are rejected.
//
// The binary path comes from the LOCKTUNE_SIM_BINARY compile definition
// (see tests/CMakeLists.txt).
#include <sys/wait.h>

#include <cctype>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

namespace locktune {
namespace {

// --- a minimal strict JSON value parser (objects/arrays/strings/numbers) ---

class JsonParser {
 public:
  explicit JsonParser(const std::string& text) : s_(text) {}

  bool ParseValue() {
    SkipWs();
    if (pos_ >= s_.size()) return false;
    switch (s_[pos_]) {
      case '{':
        return ParseObject();
      case '[':
        return ParseArray();
      case '"':
        return ParseString();
      case 't':
        return Literal("true");
      case 'f':
        return Literal("false");
      case 'n':
        return Literal("null");
      default:
        return ParseNumber();
    }
  }

  bool AtEnd() {
    SkipWs();
    return pos_ == s_.size();
  }

 private:
  void SkipWs() {
    while (pos_ < s_.size() &&
           (s_[pos_] == ' ' || s_[pos_] == '\t' || s_[pos_] == '\n' ||
            s_[pos_] == '\r')) {
      ++pos_;
    }
  }

  bool Literal(const char* lit) {
    const size_t n = std::string(lit).size();
    if (s_.compare(pos_, n, lit) != 0) return false;
    pos_ += n;
    return true;
  }

  bool ParseObject() {
    ++pos_;  // '{'
    SkipWs();
    if (pos_ < s_.size() && s_[pos_] == '}') {
      ++pos_;
      return true;
    }
    while (true) {
      SkipWs();
      if (!ParseString()) return false;  // key
      SkipWs();
      if (pos_ >= s_.size() || s_[pos_] != ':') return false;
      ++pos_;
      if (!ParseValue()) return false;
      SkipWs();
      if (pos_ >= s_.size()) return false;
      if (s_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (s_[pos_] == '}') {
        ++pos_;
        return true;
      }
      return false;
    }
  }

  bool ParseArray() {
    ++pos_;  // '['
    SkipWs();
    if (pos_ < s_.size() && s_[pos_] == ']') {
      ++pos_;
      return true;
    }
    while (true) {
      if (!ParseValue()) return false;
      SkipWs();
      if (pos_ >= s_.size()) return false;
      if (s_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (s_[pos_] == ']') {
        ++pos_;
        return true;
      }
      return false;
    }
  }

  bool ParseString() {
    if (pos_ >= s_.size() || s_[pos_] != '"') return false;
    ++pos_;
    while (pos_ < s_.size()) {
      const char c = s_[pos_];
      if (c == '"') {
        ++pos_;
        return true;
      }
      if (static_cast<unsigned char>(c) < 0x20) return false;  // raw control
      if (c == '\\') {
        ++pos_;
        if (pos_ >= s_.size()) return false;
        const char esc = s_[pos_];
        if (esc == 'u') {
          if (pos_ + 4 >= s_.size()) return false;
          for (int i = 1; i <= 4; ++i) {
            if (!std::isxdigit(static_cast<unsigned char>(s_[pos_ + i]))) {
              return false;
            }
          }
          pos_ += 4;
        } else if (std::string("\"\\/bfnrt").find(esc) == std::string::npos) {
          return false;
        }
      }
      ++pos_;
    }
    return false;
  }

  bool ParseNumber() {
    const size_t start = pos_;
    if (pos_ < s_.size() && s_[pos_] == '-') ++pos_;
    while (pos_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[pos_])) ||
            s_[pos_] == '.' || s_[pos_] == 'e' || s_[pos_] == 'E' ||
            s_[pos_] == '+' || s_[pos_] == '-')) {
      ++pos_;
    }
    return pos_ > start;
  }

  const std::string& s_;
  size_t pos_ = 0;
};

bool IsValidJsonObject(const std::string& line) {
  if (line.empty() || line[0] != '{') return false;
  JsonParser p(line);
  return p.ParseValue() && p.AtEnd();
}

// --- subprocess helpers ---

std::string TempPath(const std::string& name) {
  return testing::TempDir() + "sim_smoke_" + name;
}

std::string ReadFile(const std::string& path) {
  std::ifstream is(path);
  std::ostringstream os;
  os << is.rdbuf();
  return os.str();
}

std::vector<std::string> Lines(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream is(text);
  std::string line;
  while (std::getline(is, line)) lines.push_back(line);
  return lines;
}

// The value of the unlabeled sample `name` in a Prometheus text dump, or
// -1 when absent.
int64_t PromValue(const std::string& prom, const std::string& name) {
  for (const std::string& line : Lines(prom)) {
    if (line.rfind(name + " ", 0) == 0) {
      return std::atoll(line.c_str() + name.size() + 1);
    }
  }
  return -1;
}

int RunSim(const std::string& args, const std::string& stdout_path,
           const std::string& stderr_path) {
  const std::string cmd = std::string(LOCKTUNE_SIM_BINARY) + " " +
                          LOCKTUNE_SOURCE_DIR "/scenarios/fig9_ramp.conf " +
                          args + " > " + stdout_path + " 2> " + stderr_path;
  const int status = std::system(cmd.c_str());
  return status < 0 ? status : WEXITSTATUS(status);
}

TEST(SimSmokeTest, MetricsAndTraceFilesParse) {
  const std::string trace_path = TempPath("trace.jsonl");
  const std::string prom_path = TempPath("metrics.prom");
  ASSERT_EQ(RunSim("--trace-out " + trace_path + " --metrics-out " +
                       prom_path + " --stmm-report",
                   TempPath("out.txt"), TempPath("err.txt")),
            0);

  // Every trace line is a complete JSON object; tuning passes are present.
  const std::vector<std::string> trace_lines = Lines(ReadFile(trace_path));
  ASSERT_GT(trace_lines.size(), 0u);
  int tuning_passes = 0;
  int64_t wait_begins = 0;
  int64_t deadlock_victims = 0;
  for (const std::string& line : trace_lines) {
    ASSERT_TRUE(IsValidJsonObject(line)) << "bad JSONL line: " << line;
    EXPECT_NE(line.find("\"t_ms\":"), std::string::npos);
    EXPECT_NE(line.find("\"kind\":"), std::string::npos);
    if (line.find("\"kind\":\"tuning_pass\"") != std::string::npos) {
      ++tuning_passes;
      EXPECT_NE(line.find("\"action\":"), std::string::npos);
      EXPECT_NE(line.find("\"why\":"), std::string::npos);
    }
    if (line.find("\"event\":\"WAIT_BEGIN\"") != std::string::npos) {
      ++wait_begins;
    }
    if (line.find("\"event\":\"DEADLOCK_VICTIM\"") != std::string::npos) {
      ++deadlock_victims;
    }
  }
  EXPECT_GT(tuning_passes, 0);

  // One decision record per tuning pass: the trace count matches the
  // `tuning_passes=N` run summary on stderr.
  const std::string err = ReadFile(TempPath("err.txt"));
  const size_t at = err.find("tuning_passes=");
  ASSERT_NE(at, std::string::npos);
  EXPECT_EQ(tuning_passes,
            std::atoi(err.c_str() + at + std::string("tuning_passes=").size()));

  // The Prometheus dump has well-formed lines and all four subsystem
  // families.
  const std::string prom = ReadFile(prom_path);
  for (const std::string& line : Lines(prom)) {
    if (line.empty()) continue;
    if (line[0] == '#') {
      EXPECT_TRUE(line.rfind("# HELP ", 0) == 0 ||
                  line.rfind("# TYPE ", 0) == 0)
          << line;
    } else {
      // `name{labels} value` or `name value`.
      const size_t space = line.rfind(' ');
      ASSERT_NE(space, std::string::npos) << line;
      EXPECT_GT(space, 0u) << line;
      char* end = nullptr;
      std::strtod(line.c_str() + space + 1, &end);
      EXPECT_EQ(*end, '\0') << "unparseable value in: " << line;
    }
  }
  EXPECT_NE(prom.find("locktune_lock_requests_total"), std::string::npos);
  EXPECT_NE(prom.find("locktune_memory_total_bytes"), std::string::npos);
  EXPECT_NE(prom.find("locktune_stmm_passes_total"), std::string::npos);
  EXPECT_NE(prom.find("locktune_workload_commits_total"), std::string::npos);
  EXPECT_NE(prom.find("locktune_lock_wait_time_ms_bucket{le=\"+Inf\"}"),
            std::string::npos);

  // Exactly one lock_event record per counted event: a lost or doubled
  // emission on the lock manager's trace path breaks the equality.
  EXPECT_GT(wait_begins, 0);
  EXPECT_GT(deadlock_victims, 0);
  EXPECT_EQ(wait_begins, PromValue(prom, "locktune_lock_waits_total"));
  EXPECT_EQ(deadlock_victims,
            PromValue(prom, "locktune_lock_deadlock_victims_total"));
}

TEST(SimSmokeTest, DashWritesBothStreamsToStdout) {
  const std::string out_path = TempPath("dash_out.txt");
  ASSERT_EQ(RunSim("--metrics-out - --trace-out -", out_path,
                   TempPath("dash_err.txt")),
            0);
  const std::string out = ReadFile(out_path);
  EXPECT_NE(out.find("\"kind\":\"tuning_pass\""), std::string::npos);
  EXPECT_NE(out.find("# TYPE locktune_stmm_passes_total counter"),
            std::string::npos);
}

TEST(SimSmokeTest, CsvExtensionSelectsCsvExporter) {
  const std::string csv_path = TempPath("metrics.csv");
  ASSERT_EQ(RunSim("--metrics-out " + csv_path, TempPath("csv_out.txt"),
                   TempPath("csv_err.txt")),
            0);
  const std::vector<std::string> lines = Lines(ReadFile(csv_path));
  ASSERT_GT(lines.size(), 1u);
  EXPECT_EQ(lines[0], "metric,value");
  for (size_t i = 1; i < lines.size(); ++i) {
    EXPECT_NE(lines[i].find(','), std::string::npos) << lines[i];
  }
}

TEST(SimSmokeTest, RejectsNonPositiveOrGarbageStride) {
  EXPECT_NE(RunSim("--stride 0", TempPath("s0_out.txt"),
                   TempPath("s0_err.txt")),
            0);
  EXPECT_NE(ReadFile(TempPath("s0_err.txt")).find("positive integer"),
            std::string::npos);
  EXPECT_NE(RunSim("--stride banana", TempPath("sb_out.txt"),
                   TempPath("sb_err.txt")),
            0);
  EXPECT_NE(RunSim("--stride 15x", TempPath("sx_out.txt"),
                   TempPath("sx_err.txt")),
            0);
}

}  // namespace
}  // namespace locktune
