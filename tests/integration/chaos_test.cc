// Graceful-degradation integration tests: the shipped chaos_*.conf
// scenarios run end to end under paranoid invariant checking and must
// demonstrate the three degradation guarantees from docs/ROBUSTNESS.md:
//
//   (a) lock-memory denial is absorbed by escalation, never by failing
//       transactions with out-of-memory;
//   (b) repeated asynchronous resize denial arms the tuner's backoff and
//       growth recovers once the pressure lifts;
//   (c) mid-transaction connection kills roll back completely and the
//       workload returns to steady state.
//
// Every run below executes with LOCKTUNE_PARANOID semantics forced on, so
// full lock-table and memory-accounting invariants are validated every
// simulated tick of every chaos scenario. Each case is its own ctest entry
// (tests/CMakeLists.txt), so `ctest -j` runs them side by side.
#include <memory>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "common/paranoid.h"
#include "telemetry/exporters.h"
#include "telemetry/trace.h"
#include "workload/scenario_config.h"

namespace locktune {
namespace {

std::unique_ptr<LoadedScenario> LoadChaos(const std::string& name) {
  Result<ScenarioSpec> spec =
      LoadScenarioFile(std::string(LOCKTUNE_SOURCE_DIR) + "/scenarios/" +
                       name);
  if (!spec.ok()) {
    ADD_FAILURE() << spec.status().ToString();
    return nullptr;
  }
  Result<std::unique_ptr<LoadedScenario>> loaded =
      LoadedScenario::Create(spec.value());
  if (!loaded.ok()) {
    ADD_FAILURE() << loaded.status().ToString();
    return nullptr;
  }
  return std::move(loaded.value());
}

int CountTrace(const MemoryTraceSink& sink, const std::string& kind,
               const std::string& action = "") {
  int n = 0;
  for (const TraceRecord& r : sink.records()) {
    if (r.kind() != kind) continue;
    if (!action.empty()) {
      const std::string* got = r.Find("action");
      if (got == nullptr || *got != "\"" + action + "\"") continue;
    }
    ++n;
  }
  return n;
}

class ChaosTest : public ::testing::Test {
 protected:
  void SetUp() override {
    was_paranoid_ = ParanoidEnabled();
    SetParanoidForTesting(true);
  }
  void TearDown() override { SetParanoidForTesting(was_paranoid_); }

  bool was_paranoid_ = false;
};

// (a) Denied lock-memory growth under an OLTP ramp: the lock manager
// escalates instead of failing transactions, and the self-tuner grows
// lock memory again after the window closes.
TEST_F(ChaosTest, LockDenyEscalatesInsteadOfFailing) {
  std::unique_ptr<LoadedScenario> s = LoadChaos("chaos_lockdeny.conf");
  ASSERT_NE(s, nullptr);
  Database& db = s->database();
  ASSERT_NE(db.fault_plan(), nullptr);
  ASSERT_NE(db.degradation_ledger(), nullptr);
  MemoryTraceSink trace;
  db.set_trace_sink(&trace);

  ScenarioRunner& r = s->runner();
  // Through the deny window [60 s, 150 s).
  r.RunUntil(150 * kSecond);
  EXPECT_GT(db.degradation_ledger()->injections(), 0);
  EXPECT_GT(db.locks().stats().escalations, 0);
  EXPECT_EQ(r.total_oom_aborts(), 0);
  EXPECT_GT(r.total_commits(), 0);
  const Bytes allocated_in_window = db.locks().allocated_bytes();

  // Steady state after the window: growth resumes and commits keep
  // flowing, with every per-tick paranoid invariant having held.
  const int64_t commits_at_window_close = r.total_commits();
  r.RunUntil(240 * kSecond);
  EXPECT_GE(db.locks().allocated_bytes(), allocated_in_window);
  EXPECT_GT(r.total_commits(), commits_at_window_close);
  EXPECT_EQ(r.total_oom_aborts(), 0);
  EXPECT_TRUE(db.ValidateInvariants().ok());
  EXPECT_GT(CountTrace(trace, "fault_injected"), 0);
}

// (b) An overflow squeeze across a DSS burst: repeated async grow denials
// engage the tuner's attenuated retry (suppress passes between attempts)
// and a recovery is recorded when the squeeze lifts.
TEST_F(ChaosTest, OverflowSqueezeArmsBackoffThenRecovers) {
  std::unique_ptr<LoadedScenario> s =
      LoadChaos("chaos_overflow_squeeze.conf");
  ASSERT_NE(s, nullptr);
  Database& db = s->database();
  MemoryTraceSink trace;
  db.set_trace_sink(&trace);

  s->runner().Run();
  EXPECT_GT(CountTrace(trace, "grow_backoff", "engage"), 0);
  EXPECT_GT(CountTrace(trace, "grow_backoff", "suppress"), 0);
  EXPECT_GT(CountTrace(trace, "grow_backoff", "recover"), 0);
  EXPECT_GT(db.degradation_ledger()->absorbed(), 0);
  EXPECT_GT(db.degradation_ledger()->recoveries(), 0);
  // Backoff means far fewer injected denials than tuning passes inside
  // the 120 s window (one pass per 10 s interval would be ~12 attempts).
  EXPECT_LT(db.fault_plan()->denials_injected(), 12);
  EXPECT_EQ(s->runner().total_oom_aborts(), 0);
  EXPECT_TRUE(db.ValidateInvariants().ok());
}

// (c) Mid-transaction kills (including lock hogs at the height of their
// footprint): full rollback, conserved accounting, and the workload
// returns to its commit flow after each victim reconnects.
TEST_F(ChaosTest, KillRecoveryReturnsToSteadyState) {
  std::unique_ptr<LoadedScenario> s = LoadChaos("chaos_kill_recovery.conf");
  ASSERT_NE(s, nullptr);
  Database& db = s->database();

  ScenarioRunner& r = s->runner();
  // Past the last kill at t=150 s.
  r.RunUntil(160 * kSecond);
  EXPECT_EQ(db.fault_plan()->kills_delivered(), 4);
  EXPECT_GT(r.total_kill_aborts(), 0);
  ASSERT_EQ(db.degradation_ledger()->injections_by_site().count("kill_app"),
            1u);
  EXPECT_EQ(db.degradation_ledger()->injections_by_site().at("kill_app"), 4);

  const int64_t commits_after_kills = r.total_commits();
  r.RunUntil(240 * kSecond);
  EXPECT_GT(r.total_commits(), commits_after_kills);
  EXPECT_TRUE(db.ValidateInvariants().ok());
  EXPECT_TRUE(db.memory().CheckConsistency().ok());
}

// The chaos runs themselves are byte-deterministic: identical spec →
// identical sampled series, metric export, and ledger counts. One instance
// per scenario file (the instance name is the file's stem).
class ChaosDeterminismTest : public ChaosTest,
                             public ::testing::WithParamInterface<const char*> {
};

std::string Fingerprint(const std::string& conf) {
  std::unique_ptr<LoadedScenario> s = LoadChaos(conf);
  if (s == nullptr) return std::string();
  s->runner().Run();
  std::ostringstream os;
  s->runner().series().WriteCsv(
      os, {ScenarioRunner::kLockAllocatedMb, ScenarioRunner::kLockUsedMb,
           ScenarioRunner::kThroughputTps, ScenarioRunner::kEscalations,
           ScenarioRunner::kClients});
  WritePrometheus(s->database().metrics(), os);
  const DegradationLedger* ledger = s->database().degradation_ledger();
  os << "injections " << ledger->injections() << " absorbed "
     << ledger->absorbed() << " recoveries " << ledger->recoveries() << "\n";
  return os.str();
}

TEST_P(ChaosDeterminismTest, ChaosRunsAreByteDeterministic) {
  const std::string first = Fingerprint(GetParam());
  ASSERT_FALSE(first.empty());
  EXPECT_EQ(first, Fingerprint(GetParam()));
}

INSTANTIATE_TEST_SUITE_P(
    ChaosConfs, ChaosDeterminismTest,
    ::testing::Values("chaos_lockdeny.conf", "chaos_kill_recovery.conf"),
    [](const ::testing::TestParamInfo<const char*>& info) {
      const std::string conf = info.param;
      return conf.substr(0, conf.find('.'));
    });

}  // namespace
}  // namespace locktune
