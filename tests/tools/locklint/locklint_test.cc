// Drives the locklint binary over the fixture tree and asserts exact rule
// ids and line numbers — one fixture per rule plus a clean file proving
// that comments, strings, and reasoned suppressions do not trip the linter.
#include <cstdio>
#include <string>

#include "gtest/gtest.h"

namespace {

struct LintRun {
  int exit_code = -1;
  std::string output;
};

std::string FixtureRoot() {
  return std::string(LOCKTUNE_SOURCE_DIR) + "/tests/tools/locklint/fixtures";
}

LintRun RunLocklint(const std::string& args) {
  const std::string cmd = std::string(LOCKLINT_BINARY) + " " + args + " 2>&1";
  FILE* pipe = popen(cmd.c_str(), "r");
  EXPECT_NE(pipe, nullptr);
  LintRun run;
  char buf[4096];
  while (pipe != nullptr && fgets(buf, sizeof(buf), pipe) != nullptr) {
    run.output += buf;
  }
  if (pipe != nullptr) {
    const int rc = pclose(pipe);
    run.exit_code = WIFEXITED(rc) ? WEXITSTATUS(rc) : -1;
  }
  return run;
}

// Asserts a violation at exactly <fixture-relative file>:<line> with <rule>.
void ExpectViolation(const LintRun& run, const std::string& rel_file,
                     int line, const std::string& rule) {
  const std::string needle =
      rel_file + ":" + std::to_string(line) + ": " + rule + ":";
  EXPECT_NE(run.output.find(needle), std::string::npos)
      << "missing '" << needle << "' in:\n"
      << run.output;
}

TEST(LocklintTest, WallclockRule) {
  const LintRun run = RunLocklint(FixtureRoot() + "/wallclock.cc");
  EXPECT_EQ(run.exit_code, 1);
  ExpectViolation(run, "wallclock.cc", 7, "LL001");
  ExpectViolation(run, "wallclock.cc", 11, "LL001");
  ExpectViolation(run, "wallclock.cc", 15, "LL001");
  EXPECT_NE(run.output.find("3 violation(s)"), std::string::npos)
      << run.output;
}

TEST(LocklintTest, UnorderedIterationRule) {
  const LintRun run = RunLocklint(FixtureRoot() + "/unordered_iter.cc");
  EXPECT_EQ(run.exit_code, 1);
  ExpectViolation(run, "unordered_iter.cc", 9, "LL002");
  EXPECT_NE(run.output.find("1 violation(s)"), std::string::npos)
      << run.output;
}

TEST(LocklintTest, FloatAccountingRule) {
  const LintRun run =
      RunLocklint(FixtureRoot() + "/src/memory/block_list.h");
  EXPECT_EQ(run.exit_code, 1);
  ExpectViolation(run, "block_list.h", 8, "LL003");
  EXPECT_NE(run.output.find("1 violation(s)"), std::string::npos)
      << run.output;
}

TEST(LocklintTest, RawAllocRule) {
  const LintRun run = RunLocklint(FixtureRoot() + "/src/lock/raw_alloc.cc");
  EXPECT_EQ(run.exit_code, 1);
  ExpectViolation(run, "raw_alloc.cc", 5, "LL004");
  ExpectViolation(run, "raw_alloc.cc", 9, "LL004");
  EXPECT_NE(run.output.find("2 violation(s)"), std::string::npos)
      << run.output;
}

TEST(LocklintTest, NodiscardRule) {
  const LintRun run = RunLocklint(FixtureRoot() + "/nodiscard.h");
  EXPECT_EQ(run.exit_code, 1);
  ExpectViolation(run, "nodiscard.h", 7, "LL005");
  // The [[nodiscard]]-annotated declaration on line 9 must not be flagged.
  EXPECT_NE(run.output.find("1 violation(s)"), std::string::npos)
      << run.output;
}

TEST(LocklintTest, RawAssertRule) {
  const LintRun run = RunLocklint(FixtureRoot() + "/raw_assert.cc");
  EXPECT_EQ(run.exit_code, 1);
  ExpectViolation(run, "raw_assert.cc", 5, "LL006");
  EXPECT_NE(run.output.find("1 violation(s)"), std::string::npos)
      << run.output;
}

TEST(LocklintTest, AddressOrderRule) {
  const LintRun run = RunLocklint(FixtureRoot() + "/addr_order.cc");
  EXPECT_EQ(run.exit_code, 1);
  ExpectViolation(run, "addr_order.cc", 8, "LL007");
  ExpectViolation(run, "addr_order.cc", 11, "LL007");
  EXPECT_NE(run.output.find("2 violation(s)"), std::string::npos)
      << run.output;
}

TEST(LocklintTest, FaultGateRule) {
  const LintRun run =
      RunLocklint(FixtureRoot() + "/src/memory/fault_gate.cc");
  EXPECT_EQ(run.exit_code, 1);
  ExpectViolation(run, "fault_gate.cc", 5, "LL008");
  // The Armed()-gated hook on line 10 and the suppressed hook on line 16
  // must not be flagged.
  EXPECT_NE(run.output.find("1 violation(s)"), std::string::npos)
      << run.output;
}

TEST(LocklintTest, ProfileTimingRule) {
  const LintRun run =
      RunLocklint(FixtureRoot() + "/src/lock/profile_timing.cc");
  EXPECT_EQ(run.exit_code, 1);
  ExpectViolation(run, "profile_timing.cc", 5, "LL009");
  // A preprocessor region is no exemption: the call on line 10 is flagged
  // too. Only the suppressed call on line 16 is not.
  ExpectViolation(run, "profile_timing.cc", 10, "LL009");
  EXPECT_NE(run.output.find("2 violation(s)"), std::string::npos)
      << run.output;
}

TEST(LocklintTest, JsonOutput) {
  const LintRun clean = RunLocklint("--json " + FixtureRoot() + "/clean.cc");
  EXPECT_EQ(clean.exit_code, 0);
  EXPECT_NE(clean.output.find("\"violations\": []"), std::string::npos)
      << clean.output;
  EXPECT_NE(clean.output.find("\"files_scanned\": 1"), std::string::npos)
      << clean.output;

  const LintRun bad =
      RunLocklint("--json " + FixtureRoot() + "/raw_assert.cc");
  EXPECT_EQ(bad.exit_code, 1);  // exit codes match the text mode
  EXPECT_NE(bad.output.find("\"rule\": \"LL006\""), std::string::npos)
      << bad.output;
  EXPECT_NE(bad.output.find("\"line\": 5"), std::string::npos) << bad.output;
}

TEST(LocklintTest, EmptyReasonIsItsOwnViolation) {
  const LintRun run = RunLocklint(FixtureRoot() + "/bad_annotation.cc");
  EXPECT_EQ(run.exit_code, 1);
  ExpectViolation(run, "bad_annotation.cc", 5, "LL000");
  // The empty suppression must not double-report the underlying LL006.
  EXPECT_EQ(run.output.find("LL006"), std::string::npos) << run.output;
  EXPECT_NE(run.output.find("1 violation(s)"), std::string::npos)
      << run.output;
}

TEST(LocklintTest, StaleSuppressionIsItsOwnViolation) {
  const LintRun run = RunLocklint(FixtureRoot() + "/stale_suppression.cc");
  EXPECT_EQ(run.exit_code, 1);
  // The suppression on line 12 excuses a real clock read; the one on
  // line 17 gates nothing and is reported, with no LL001 beside it.
  ExpectViolation(run, "stale_suppression.cc", 17, "LL000");
  EXPECT_NE(run.output.find("stale suppression"), std::string::npos)
      << run.output;
  EXPECT_EQ(run.output.find("LL001"), std::string::npos) << run.output;
  EXPECT_NE(run.output.find("1 violation(s)"), std::string::npos)
      << run.output;
}

TEST(LocklintTest, CleanFilePasses) {
  const LintRun run = RunLocklint(FixtureRoot() + "/clean.cc");
  EXPECT_EQ(run.exit_code, 0);
  EXPECT_NE(run.output.find("0 violation(s)"), std::string::npos)
      << run.output;
}

TEST(LocklintTest, WholeFixtureTreeIsDeterministicallySorted) {
  const LintRun run = RunLocklint(FixtureRoot());
  EXPECT_EQ(run.exit_code, 1);
  // 3 wallclock + 1 unordered + 1 float + 2 alloc + 1 nodiscard + 1 assert
  // + 2 addr + 1 faultgate + 2 profile + 1 bad-annotation
  // + 1 stale-suppression = 16, and a second run must be identical.
  EXPECT_NE(run.output.find("16 violation(s)"), std::string::npos)
      << run.output;
  const LintRun again = RunLocklint(FixtureRoot());
  EXPECT_EQ(run.output, again.output);
}

TEST(LocklintTest, ListRules) {
  const LintRun run = RunLocklint("--list-rules");
  EXPECT_EQ(run.exit_code, 0);
  for (const char* id : {"LL000", "LL001", "LL002", "LL003", "LL004",
                         "LL005", "LL006", "LL007", "LL008", "LL009"}) {
    EXPECT_NE(run.output.find(id), std::string::npos) << run.output;
  }
}

TEST(LocklintTest, UsageErrors) {
  EXPECT_EQ(RunLocklint("").exit_code, 2);
  EXPECT_EQ(RunLocklint("/nonexistent/path/locklint-fixture").exit_code, 2);
  EXPECT_EQ(RunLocklint("--bogus-flag").exit_code, 2);
}

TEST(LocklintTest, RepoLintsClean) {
  const std::string src = std::string(LOCKTUNE_SOURCE_DIR);
  const LintRun run =
      RunLocklint(src + "/src " + src + "/tools " + src + "/bench");
  EXPECT_EQ(run.exit_code, 0) << run.output;
}

}  // namespace
