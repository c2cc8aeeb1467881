// Minimizer convergence tests: a scenario with one known faulty ingredient
// must shrink to exactly the minimal reproducer, deterministically — the
// pass order is fixed and candidate generation is randomness-free, so the
// output is pinned byte-for-byte.
#include "fuzz/minimizer.h"

#include <string>

#include <gtest/gtest.h>

#include "workload/scenario_config.h"

namespace locktune {
namespace {

constexpr char kBigScenario[] =
    "# fuzzer repro under test\n"
    "database_memory_mb 128\n"
    "mode selftuning\n"
    "duration_s 20\n"
    "sample_period_s 2\n"
    "[oltp]\n"
    "clients 0 4\n"
    "clients 5 8\n"
    "mean_locks_per_txn 50\n"
    "[hostile]\n"
    "clients 0 2\n"
    "locks_per_txn 5000\n"
    "[fault]\n"
    "kill_app 1 2\n";

TEST(MinimizerTest, ConvergesToTheFaultySection) {
  // The "bug" lives in the hostile section: anything that still contains
  // it reproduces. Everything else — the fault window, the oltp workload,
  // the global keys, the comment — must be stripped, and the surviving
  // integers driven to their schema floors.
  MinimizeStats stats;
  const std::string minimized = MinimizeScenario(
      kBigScenario,
      [](const std::string& conf) {
        return conf.find("[hostile]") != std::string::npos;
      },
      &stats);
  EXPECT_EQ(minimized, "[hostile]\nclients 0 0\n");
  EXPECT_GT(stats.candidates_tried, 0);
  EXPECT_GT(stats.candidates_failed, 0);
  EXPECT_GE(stats.rounds, 2);  // at least one round plus the fixpoint check
}

TEST(MinimizerTest, BisectsIntegersToTheThreshold) {
  // Failure depends on a value crossing a threshold: locks_per_txn >= 500.
  // The bisection pass must land exactly on the threshold, not merely
  // somewhere below the original 5000.
  const std::string minimized = MinimizeScenario(
      kBigScenario, [](const std::string& conf) {
        const Result<ScenarioSpec> spec = ParseScenario(conf, "m.conf");
        if (!spec.ok()) return false;
        for (const WorkloadSpec& w : spec.value().workloads) {
          if (w.kind == WorkloadSpec::Kind::kHostile &&
              w.scan.total_locks >= 500) {
            return true;
          }
        }
        return false;
      });
  EXPECT_EQ(minimized, "[hostile]\nclients 0 0\nlocks_per_txn 500\n");
}

TEST(MinimizerTest, KeepsTheOriginalWhenNothingSmallerFails) {
  // A predicate that only accepts the full text: every candidate is
  // rejected and the original (newline-normalized) text survives.
  const std::string original = "[oltp]\nclients 0 1\n";
  MinimizeStats stats;
  const std::string minimized = MinimizeScenario(
      original,
      [&](const std::string& conf) { return conf == original; }, &stats);
  EXPECT_EQ(minimized, original);
}

TEST(MinimizerTest, InvalidCandidatesNeverReachThePredicate) {
  // Dropping the [oltp] clients line would leave an invalid scenario; the
  // parse gate must discard it before the predicate sees it.
  int calls = 0;
  MinimizeScenario(
      "[oltp]\nclients 0 1\nclients 5 2\n",
      [&](const std::string& conf) {
        ++calls;
        EXPECT_TRUE(ParseScenario(conf, "gate.conf").ok())
            << "unparseable candidate leaked to the predicate:\n"
            << conf;
        return false;
      });
  EXPECT_GT(calls, 0);
}

TEST(MinimizerTest, DeterministicAcrossInvocations) {
  const auto predicate = [](const std::string& conf) {
    return conf.find("[hostile]") != std::string::npos;
  };
  const std::string a = MinimizeScenario(kBigScenario, predicate);
  const std::string b = MinimizeScenario(kBigScenario, predicate);
  EXPECT_EQ(a, b);
}

}  // namespace
}  // namespace locktune
