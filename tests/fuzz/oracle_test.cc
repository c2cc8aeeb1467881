// Unit tests for the oracle stack: run classification precedence, the
// metric lookup, and EvaluateScenario against a stand-in simulator (a
// shell script that logs each invocation and writes a chosen metrics
// export), which is how the degradation oracle is shown to fire. The
// end-to-end legs (real simulator, planted bugs) live in fuzz_e2e_test.cc.
#include "fuzz/oracle.h"

#include <sys/stat.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

namespace locktune {
namespace {

std::string ReadFile(const std::string& path) {
  std::ifstream is(path);
  std::ostringstream os;
  os << is.rdbuf();
  return os.str();
}

void WriteFile(const std::string& path, const std::string& text) {
  std::ofstream out(path);
  out << text;
}

// A selftuning scenario with deny-heap pressure: the shape the degradation
// oracle checks.
constexpr char kDenyHeapScenario[] =
    "mode selftuning\n"
    "duration_s 5\n"
    "[oltp]\n"
    "clients 0 1\n"
    "[fault]\n"
    "deny_heap locklist 0 2\n";

// Stand-in for locktune_sim: appends one line to `<tag>.log` per
// invocation, copies `metrics_csv` to the --metrics-out path, and exits
// with `exit_code`. Returns oracle options that run it.
OracleOptions StandInSimulator(const std::string& tag,
                               const std::string& metrics_csv,
                               int exit_code) {
  const std::string dir = testing::TempDir();
  const std::string metrics_path = dir + "oracle_" + tag + ".metrics.csv";
  const std::string script_path = dir + "oracle_" + tag + ".sh";
  WriteFile(metrics_path, metrics_csv);
  std::remove((dir + "oracle_" + tag + ".log").c_str());
  WriteFile(script_path,
            "#!/bin/sh\n"
            "echo run >> '" + dir + "oracle_" + tag + ".log'\n"
            "while [ $# -gt 0 ]; do\n"
            "  if [ \"$1\" = --metrics-out ]; then cp '" + metrics_path +
                "' \"$2\"; fi\n"
            "  shift\n"
            "done\n"
            "exit " + std::to_string(exit_code) + "\n");
  EXPECT_EQ(chmod(script_path.c_str(), 0755), 0);
  OracleOptions options;
  options.sim_binary = script_path;
  options.work_dir = dir + "oracle_" + tag + ".work";
  mkdir(options.work_dir.c_str(), 0755);
  return options;
}

int Invocations(const std::string& tag) {
  const std::string log =
      ReadFile(testing::TempDir() + "oracle_" + tag + ".log");
  int lines = 0;
  for (const char c : log) lines += c == '\n';
  return lines;
}

SimRunResult CleanRun() {
  SimRunResult run;
  run.started = true;
  run.exit_code = 0;
  return run;
}

TEST(ClassifyRunTest, CleanRunPasses) {
  EXPECT_FALSE(ClassifyRun(CleanRun()).failed);
}

TEST(ClassifyRunTest, ExecFailureIsACrash) {
  SimRunResult run;
  run.started = false;
  run.stderr_text = "exec: No such file or directory\n";
  const OracleReport report = ClassifyRun(run);
  EXPECT_TRUE(report.failed);
  EXPECT_EQ(report.oracle, "crash");
}

TEST(ClassifyRunTest, WallClockTimeoutIsALivelock) {
  SimRunResult run = CleanRun();
  run.timed_out = true;
  const OracleReport report = ClassifyRun(run);
  EXPECT_TRUE(report.failed);
  EXPECT_EQ(report.oracle, "livelock");
}

TEST(ClassifyRunTest, TickWatchdogAbortIsALivelock) {
  SimRunResult run = CleanRun();
  run.exit_code = 134;
  run.term_signal = 6;
  run.stderr_text =
      "locktune: tick at t=2000 ms took 250 ms of wall time (watchdog "
      "budget 100 ms)\n"
      "locktune: CHECK failed: false && \"tick watchdog exceeded "
      "(livelock?)\" (scenario.cc:312)\n";
  const OracleReport report = ClassifyRun(run);
  EXPECT_TRUE(report.failed);
  // Watchdog aborts go through LOCKTUNE_CHECK, but classify as livelock,
  // not invariant — the watchdog line takes precedence.
  EXPECT_EQ(report.oracle, "livelock");
}

TEST(ClassifyRunTest, CheckFailureIsAnInvariantWithTheCheckLine) {
  SimRunResult run = CleanRun();
  run.term_signal = 6;
  run.stderr_text =
      "locktune: CHECK failed: used <= allocated (lock_table.cc:99)\n"
      "locktune: flight recorder (3 threads):\n  ...\n";
  const OracleReport report = ClassifyRun(run);
  EXPECT_TRUE(report.failed);
  EXPECT_EQ(report.oracle, "invariant");
  EXPECT_NE(report.detail.find("used <= allocated"), std::string::npos);
  // Only the CHECK line, not the flight-recorder dump.
  EXPECT_EQ(report.detail.find("flight recorder"), std::string::npos);
}

TEST(ClassifyRunTest, UnexplainedSignalIsACrash) {
  SimRunResult run = CleanRun();
  run.exit_code = 139;
  run.term_signal = 11;
  const OracleReport report = ClassifyRun(run);
  EXPECT_TRUE(report.failed);
  EXPECT_EQ(report.oracle, "crash");
  EXPECT_NE(report.detail.find("signal 11"), std::string::npos);
}

TEST(ClassifyRunTest, CleanConfigRejectionIsNotAFailure) {
  // Semantic rejections (exit 1, no signal, no CHECK) are the simulator
  // doing its job; flagging them would let the minimizer walk to a
  // different "bug".
  SimRunResult run = CleanRun();
  run.exit_code = 1;
  run.stderr_text = "locktune_sim: kill_app target 9 beyond population\n";
  EXPECT_FALSE(ClassifyRun(run).failed);
}

TEST(MetricValueTest, FindsValuesAndFallsBack) {
  const std::string csv =
      "metric,value\n"
      "locktune_fault_absorbed_total,12\n"
      "locktune_workload_oom_aborts_total,0\n";
  EXPECT_EQ(MetricValue(csv, "locktune_fault_absorbed_total", -1), 12);
  EXPECT_EQ(MetricValue(csv, "locktune_workload_oom_aborts_total", -1), 0);
  EXPECT_EQ(MetricValue(csv, "no_such_metric", -1), -1);
}

TEST(EvaluateScenarioTest, UnparseableTextIsNotAFailure) {
  // The minimizer's parse gate runs first, but EvaluateScenario must also
  // hold the line on its own: invalid text cannot "reproduce" anything.
  OracleOptions options;
  options.sim_binary = "/nonexistent/locktune_sim";
  options.work_dir = testing::TempDir();
  const OracleReport report =
      EvaluateScenario("definitely not a scenario\n", options);
  EXPECT_FALSE(report.failed);
}

TEST(EvaluateScenarioTest, DegradationFiresWhenAbsorbedDenialsStillOom) {
  const OracleOptions options = StandInSimulator(
      "degraded",
      "metric,value\n"
      "locktune_fault_absorbed_total,3\n"
      "locktune_workload_oom_aborts_total,2\n",
      0);
  const OracleReport report = EvaluateScenario(kDenyHeapScenario, options);
  EXPECT_TRUE(report.failed);
  EXPECT_EQ(report.oracle, "degradation");
  EXPECT_NE(report.detail.find("absorbed 3 denials yet 2 transactions"),
            std::string::npos)
      << report.detail;
  // One simulator run per evaluated scenario.
  EXPECT_EQ(Invocations("degraded"), 1);
}

TEST(EvaluateScenarioTest, AbsorbedDenialsWithoutOomPass) {
  const OracleOptions options = StandInSimulator(
      "absorbed",
      "metric,value\n"
      "locktune_fault_absorbed_total,3\n"
      "locktune_workload_oom_aborts_total,0\n",
      0);
  EXPECT_FALSE(EvaluateScenario(kDenyHeapScenario, options).failed);
  EXPECT_EQ(Invocations("absorbed"), 1);
}

TEST(EvaluateScenarioTest, CleanRejectionIsNotADegradation) {
  // A clean non-zero exit is a config rejection (see ClassifyRun); its
  // metrics, even failing ones, are not checked.
  const OracleOptions options = StandInSimulator(
      "rejected",
      "metric,value\n"
      "locktune_fault_absorbed_total,3\n"
      "locktune_workload_oom_aborts_total,2\n",
      1);
  EXPECT_FALSE(EvaluateScenario(kDenyHeapScenario, options).failed);
  EXPECT_EQ(Invocations("rejected"), 1);
}

}  // namespace
}  // namespace locktune
