// Regression corpus replay: every scenario in scenarios/regression/ is a
// determinism anchor — it must run clean and, where a .golden.csv sibling
// exists, its metrics export must match byte-for-byte. New
// minimized fuzzer repros dropped into the directory are picked up
// automatically (the directory is scanned at runtime); each also gets an
// individual `regression_replay_<name>` ctest through the full oracle
// stack (see tests/CMakeLists.txt).
#include <sys/wait.h>

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

namespace locktune {
namespace {

const char kCorpusDir[] = LOCKTUNE_SOURCE_DIR "/scenarios/regression";

std::string ReadFile(const std::string& path) {
  std::ifstream is(path);
  std::ostringstream os;
  os << is.rdbuf();
  return os.str();
}

std::vector<std::string> CorpusScenarios() {
  std::vector<std::string> confs;
  for (const auto& entry : std::filesystem::directory_iterator(kCorpusDir)) {
    const std::string path = entry.path().string();
    if (entry.path().extension() == ".conf") confs.push_back(path);
  }
  std::sort(confs.begin(), confs.end());
  return confs;
}

TEST(RegressionCorpusTest, CorpusHasAtLeastTheSeedAnchors) {
  EXPECT_GE(CorpusScenarios().size(), 3u);
}

TEST(RegressionCorpusTest, EveryScenarioRunsCleanUnderParanoid) {
  for (const std::string& conf : CorpusScenarios()) {
    const std::string cmd = "LOCKTUNE_PARANOID=1 " LOCKTUNE_SIM_BINARY " " +
                            conf + " > /dev/null 2> " +
                            testing::TempDir() + "corpus.err";
    const int status = std::system(cmd.c_str());
    EXPECT_EQ(WEXITSTATUS(status), 0)
        << conf << ":\n"
        << ReadFile(testing::TempDir() + "corpus.err");
  }
}

TEST(RegressionCorpusTest, GoldenMetricsMatchByteForByte) {
  int compared = 0;
  for (const std::string& conf : CorpusScenarios()) {
    const std::string golden_path =
        conf.substr(0, conf.size() - 5) + ".golden.csv";
    if (!std::filesystem::exists(golden_path)) continue;
    const std::string out_csv = testing::TempDir() + "corpus_metrics.csv";
    const std::string cmd = std::string(LOCKTUNE_SIM_BINARY) + " " + conf +
                            " --metrics-out " + out_csv +
                            " > /dev/null 2>&1";
    ASSERT_EQ(WEXITSTATUS(std::system(cmd.c_str())), 0) << conf;
    EXPECT_EQ(ReadFile(out_csv), ReadFile(golden_path))
        << "metrics drift for determinism anchor " << conf
        << " — if the simulator's behavior changed intentionally, "
           "regenerate the golden with: locktune_sim "
        << conf << " --metrics-out " << golden_path;
    ++compared;
  }
  EXPECT_GE(compared, 3) << "seed anchors must carry golden metrics";
}

}  // namespace
}  // namespace locktune
