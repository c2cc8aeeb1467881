#include "workload/scenario_config.h"

#include <filesystem>
#include <string>

#include <gtest/gtest.h>

namespace locktune {
namespace {

constexpr char kMinimal[] = R"(
database_memory_mb 256
[oltp]
clients 0 10
)";

TEST(ScenarioConfigTest, MinimalParses) {
  Result<ScenarioSpec> spec = ParseScenario(kMinimal);
  ASSERT_TRUE(spec.ok()) << spec.status().ToString();
  EXPECT_EQ(spec.value().database.params.database_memory, 256 * kMiB);
  ASSERT_EQ(spec.value().workloads.size(), 1u);
  EXPECT_EQ(spec.value().workloads[0].kind, WorkloadSpec::Kind::kOltp);
  ASSERT_EQ(spec.value().workloads[0].client_steps.size(), 1u);
  EXPECT_EQ(spec.value().workloads[0].client_steps[0],
            (std::pair<TimeMs, int>{0, 10}));
}

TEST(ScenarioConfigTest, FullGlobalSettings) {
  Result<ScenarioSpec> spec = ParseScenario(R"(
database_memory_mb 1024
mode sqlserver
static_locklist_pages 256
static_maxlocks_percent 15
initial_locklist_pages 64
tuning_interval_s 60
adaptive_interval on
lock_timeout_ms 5000
duration_s 300
sample_period_s 5
seed 99
delta_reduce_percent 10
[oltp]
clients 0 5
)");
  ASSERT_TRUE(spec.ok()) << spec.status().ToString();
  const ScenarioSpec& s = spec.value();
  EXPECT_EQ(s.database.mode, TuningMode::kSqlServer);
  EXPECT_EQ(s.database.static_locklist_pages, 256);
  EXPECT_DOUBLE_EQ(s.database.static_maxlocks_percent, 15.0);
  EXPECT_EQ(s.database.params.initial_locklist_pages, 64);
  EXPECT_EQ(s.database.params.tuning_interval, 60 * kSecond);
  EXPECT_TRUE(s.database.params.adaptive_interval);
  EXPECT_EQ(s.database.lock_timeout, 5000);
  EXPECT_EQ(s.runner.duration, 300 * kSecond);
  EXPECT_EQ(s.runner.sample_period, 5 * kSecond);
  EXPECT_EQ(s.runner.seed, 99u);
  EXPECT_DOUBLE_EQ(s.database.params.delta_reduce, 0.10);
}

TEST(ScenarioConfigTest, OltpSectionSettings) {
  Result<ScenarioSpec> spec = ParseScenario(R"(
[oltp]
clients 0 10
mean_locks_per_txn 999
locks_per_tick 77
write_fraction 0.4
think_time_ms 500
zipf 0.7
)");
  ASSERT_TRUE(spec.ok()) << spec.status().ToString();
  const OltpOptions& o = spec.value().workloads[0].oltp;
  EXPECT_EQ(o.mean_locks_per_txn, 999);
  EXPECT_EQ(o.locks_per_tick, 77);
  EXPECT_DOUBLE_EQ(o.write_fraction, 0.4);
  EXPECT_EQ(o.think_time, 500);
  EXPECT_DOUBLE_EQ(o.row_zipf_theta, 0.7);
}

TEST(ScenarioConfigTest, DssSectionSettings) {
  Result<ScenarioSpec> spec = ParseScenario(R"(
[dss]
clients 60 1
scan_locks 123456
locks_per_tick 2500
hold_time_s 90
think_time_s 30
)");
  ASSERT_TRUE(spec.ok()) << spec.status().ToString();
  const ScanOptions& d = spec.value().workloads[0].scan;
  EXPECT_EQ(d.total_locks, 123456);
  EXPECT_EQ(d.locks_per_tick, 2500);
  EXPECT_EQ(d.hold_time, 90 * kSecond);
  EXPECT_EQ(d.think_time, 30 * kSecond);
}

TEST(ScenarioConfigTest, BatchSectionSettings) {
  Result<ScenarioSpec> spec = ParseScenario(R"(
[batch]
clients 120 1
table tpcc_history
rows_per_batch 77000
locks_per_tick 900
hold_time_s 30
think_time_s 120
mode U
)");
  ASSERT_TRUE(spec.ok()) << spec.status().ToString();
  const WorkloadSpec& w = spec.value().workloads[0];
  EXPECT_EQ(w.kind, WorkloadSpec::Kind::kBatch);
  EXPECT_EQ(w.scan.table, "tpcc_history");
  EXPECT_EQ(w.scan.total_locks, 77000);
  EXPECT_EQ(w.scan.locks_per_tick, 900);
  EXPECT_EQ(w.scan.hold_time, 30 * kSecond);
  EXPECT_EQ(w.scan.think_time, 120 * kSecond);
  EXPECT_EQ(w.scan.mode, LockMode::kU);
}

TEST(ScenarioConfigTest, BatchRejectsBadMode) {
  EXPECT_FALSE(
      ParseScenario("[batch]\nclients 0 1\nmode IX\n").ok());
}

TEST(LoadedScenarioTest, BatchWithUnknownTableFailsAtCreate) {
  Result<ScenarioSpec> spec = ParseScenario(R"(
[batch]
clients 0 1
table no_such_table
)");
  ASSERT_TRUE(spec.ok());
  EXPECT_FALSE(LoadedScenario::Create(spec.value()).ok());
}

TEST(LoadedScenarioTest, DenyHeapWithUnknownHeapFailsAtCreate) {
  // A window on a misspelled heap would never fire: the chaos run would
  // silently go fault-free.
  Result<ScenarioSpec> spec = ParseScenario(R"(
[oltp]
clients 0 1
[fault]
deny_heap lockist 60 150
)");
  ASSERT_TRUE(spec.ok()) << spec.status().ToString();
  const Result<std::unique_ptr<LoadedScenario>> loaded =
      LoadedScenario::Create(spec.value());
  ASSERT_FALSE(loaded.ok());
  const std::string& message = loaded.status().message();
  for (const char* fragment : {"deny_heap", "'lockist'", "locklist",
                               "buffer_pool", "sort", "package_cache", "*"}) {
    EXPECT_NE(message.find(fragment), std::string::npos)
        << "missing '" << fragment << "' in: " << message;
  }
}

TEST(ScenarioConfigTest, MultipleSectionsAndSortedSteps) {
  Result<ScenarioSpec> spec = ParseScenario(R"(
[oltp]
clients 60 130
clients 0 50
[dss]
clients 300 1
)");
  ASSERT_TRUE(spec.ok());
  ASSERT_EQ(spec.value().workloads.size(), 2u);
  // Steps sorted by time even when written out of order.
  EXPECT_EQ(spec.value().workloads[0].client_steps[0].first, 0);
  EXPECT_EQ(spec.value().workloads[0].client_steps[1].first, 60 * kSecond);
}

TEST(ScenarioConfigTest, CommentsAndBlanksIgnored) {
  Result<ScenarioSpec> spec = ParseScenario(R"(
# a full-line comment

database_memory_mb 256   # trailing comment
[oltp]
clients 0 10  # here too
)");
  ASSERT_TRUE(spec.ok()) << spec.status().ToString();
}

// Asserts that parsing `text` fails and the message carries every fragment
// in `fragments` — the source name, the `line` number, and the offending
// key, per the file:line:key error contract.
void ExpectParseError(const std::string& text, int line,
                      std::initializer_list<const char*> fragments) {
  const Result<ScenarioSpec> spec = ParseScenario(text, "test.conf");
  ASSERT_FALSE(spec.ok()) << "expected a parse error for: " << text;
  const std::string& message = spec.status().message();
  const std::string prefix = "test.conf:" + std::to_string(line) + ":";
  EXPECT_NE(message.find(prefix), std::string::npos)
      << "missing '" << prefix << "' in: " << message;
  for (const char* fragment : fragments) {
    EXPECT_NE(message.find(fragment), std::string::npos)
        << "missing '" << fragment << "' in: " << message;
  }
}

TEST(ScenarioConfigTest, ErrorsNameTheSourceLineAndKey) {
  ExpectParseError(R"(
database_memory_mb 256
flux_capacitance 88
)",
                   3, {"flux_capacitance", "global section"});
}

TEST(ScenarioConfigTest, DefaultSourceNameIsScenario) {
  const Result<ScenarioSpec> spec = ParseScenario("flux_capacitance 88\n");
  ASSERT_FALSE(spec.ok());
  EXPECT_NE(spec.status().message().find("<scenario>:1:"),
            std::string::npos)
      << spec.status().message();
}

TEST(ScenarioConfigTest, RejectsUnknownSection) {
  ExpectParseError("[tpch]\nclients 0 1\n", 1, {"unknown section [tpch]"});
}

TEST(ScenarioConfigTest, RejectsUnknownSectionKey) {
  ExpectParseError("[oltp]\nclients 0 1\nscan_locks 5\n", 3,
                   {"scan_locks", "[oltp]"});
  ExpectParseError("[dss]\nclients 0 1\nzipf 0.5\n", 3, {"zipf", "[dss]"});
}

TEST(ScenarioConfigTest, RejectsMalformedInteger) {
  ExpectParseError("database_memory_mb many\n[oltp]\nclients 0 1\n", 1,
                   {"database_memory_mb", "integer", "'many'"});
}

TEST(ScenarioConfigTest, RejectsNonPositiveInteger) {
  ExpectParseError("duration_s 0\n[oltp]\nclients 0 1\n", 1,
                   {"duration_s", "in [1, ", "'0'"});
}

TEST(ScenarioConfigTest, RejectsOverflowingInteger) {
  // strtoll clamps to LLONG_MAX on overflow; the parser must reject, not
  // silently saturate.
  ExpectParseError(
      "database_memory_mb 99999999999999999999999\n[oltp]\nclients 0 1\n", 1,
      {"database_memory_mb", "integer"});
}

TEST(ScenarioConfigTest, RejectsIntegerAboveSchemaCap) {
  // In-range for int64 but beyond the schema cap: overflows `mb * kMiB`
  // downstream if accepted.
  ExpectParseError("database_memory_mb 9999999999\n[oltp]\nclients 0 1\n", 1,
                   {"database_memory_mb", "in [1, 1048576]", "'9999999999'"});
}

TEST(ScenarioConfigTest, RejectsNonFiniteDouble) {
  ExpectParseError("[oltp]\nclients 0 1\nwrite_fraction inf\n", 3,
                   {"write_fraction", "'inf'"});
  ExpectParseError("[oltp]\nclients 0 1\nwrite_fraction nan\n", 3,
                   {"write_fraction", "'nan'"});
  ExpectParseError("[oltp]\nclients 0 1\nzipf -inf\n", 3, {"zipf", "'-inf'"});
}

TEST(ScenarioConfigTest, RejectsOverflowingDouble) {
  // 1e999 clamps to +HUGE_VAL under strtod (ERANGE); must not parse as a
  // finite fraction.
  ExpectParseError("[oltp]\nclients 0 1\nwrite_fraction 1e999\n", 3,
                   {"write_fraction", "'1e999'"});
  ExpectParseError("[fault]\ndeny_heap locklist 0 10 1e-999\n", 2,
                   {"deny_heap", "'1e-999'"});
}

TEST(ScenarioConfigTest, RejectsMalformedClients) {
  ExpectParseError("[oltp]\nclients zero 1\n", 2,
                   {"clients", "integer", "'zero'"});
}

TEST(ScenarioConfigTest, RejectsWrongValueCount) {
  ExpectParseError("[oltp]\nclients 0\n", 2,
                   {"clients", "wants 2 value(s), got 1"});
  ExpectParseError("database_memory_mb 256 512\n[oltp]\nclients 0 1\n", 1,
                   {"database_memory_mb", "wants 1 value(s), got 2"});
}

TEST(ScenarioConfigTest, RejectsOutOfRangeFraction) {
  ExpectParseError("[oltp]\nclients 0 1\nwrite_fraction 1.5\n", 3,
                   {"write_fraction", "[0, 1]", "'1.5'"});
  ExpectParseError("delta_reduce_percent 100\n[oltp]\nclients 0 1\n", 1,
                   {"delta_reduce_percent", "(0, 100)", "'100'"});
}

TEST(ScenarioConfigTest, RejectsBadEnumValues) {
  ExpectParseError("mode orange\n[oltp]\nclients 0 1\n", 1,
                   {"mode", "selftuning", "'orange'"});
  ExpectParseError("adaptive_interval maybe\n[oltp]\nclients 0 1\n", 1,
                   {"adaptive_interval", "on or off", "'maybe'"});
}

TEST(ScenarioConfigTest, RejectsOutOfRangeInteger) {
  // strtoll clamps overflowing values to LLONG_MAX/MIN and reports ERANGE;
  // accepting the clamped value would turn a typo into a huge setting, so
  // the parser must reject it like any other malformed integer.
  ExpectParseError(
      "database_memory_mb 99999999999999999999\n[oltp]\nclients 0 1\n", 1,
      {"database_memory_mb", "integer", "'99999999999999999999'"});
  ExpectParseError("seed -99999999999999999999\n[oltp]\nclients 0 1\n", 1,
                   {"seed", "integer", "'-99999999999999999999'"});
}

TEST(ScenarioConfigTest, RejectsDuplicateKeysNamingBothLines) {
  ExpectParseError(R"(
database_memory_mb 256
duration_s 60
database_memory_mb 512
[oltp]
clients 0 1
)",
                   4,
                   {"duplicate key 'database_memory_mb'",
                    "first set at test.conf:2"});
  ExpectParseError("[oltp]\nclients 0 1\nzipf 0.5\nzipf 0.9\n", 4,
                   {"duplicate key 'zipf'", "first set at test.conf:3"});
  ExpectParseError(
      "[fault]\nfault_seed 1\nfault_seed 2\n[oltp]\nclients 0 1\n", 3,
      {"duplicate key 'fault_seed'", "first set at test.conf:2"});
}

TEST(ScenarioConfigTest, RepeatableAndCrossSectionKeysAreNotDuplicates) {
  // `clients` and the fault list-building keys may repeat; the same scalar
  // key in two different sections is also fine (scoping is per section).
  const Result<ScenarioSpec> spec = ParseScenario(R"(
[oltp]
clients 0 5
clients 10 20
locks_per_tick 4
[dss]
clients 0 2
locks_per_tick 8
[fault]
kill_app 1 5
kill_app 2 6
deny_heap locklist 1 2
deny_heap sort 3 4
squeeze_overflow_mb 16 1 2
squeeze_overflow_mb 32 3 4
)");
  ASSERT_TRUE(spec.ok()) << spec.status().ToString();
}

TEST(ScenarioConfigTest, HostileSectionSettings) {
  Result<ScenarioSpec> spec = ParseScenario(R"(
[hostile]
clients 30 2
archetype idle_holder
table tpcc_order_line
locks_per_txn 1234
locks_per_tick 99
hold_time_s 600
think_time_s 5
mode S
)");
  ASSERT_TRUE(spec.ok()) << spec.status().ToString();
  const WorkloadSpec& w = spec.value().workloads[0];
  EXPECT_EQ(w.kind, WorkloadSpec::Kind::kHostile);
  EXPECT_EQ(w.preset, ScanPreset::kIdleHolder);
  EXPECT_EQ(w.scan.table, "tpcc_order_line");
  EXPECT_EQ(w.scan.total_locks, 1234);
  EXPECT_EQ(w.scan.locks_per_tick, 99);
  EXPECT_EQ(w.scan.hold_time, 600 * kSecond);
  EXPECT_EQ(w.scan.think_time, 5 * kSecond);
  EXPECT_EQ(w.scan.mode, LockMode::kS);
  // A hostile section alone flips the robustness metric family on.
  EXPECT_TRUE(spec.value().runner.robustness_metrics);
}

TEST(ScenarioConfigTest, RejectsBadHostileArchetype) {
  ExpectParseError("[hostile]\nclients 0 1\narchetype gremlin\n", 3,
                   {"archetype", "lock_hog", "'gremlin'"});
}

TEST(ScenarioConfigTest, FaultSectionSettings) {
  Result<ScenarioSpec> spec = ParseScenario(R"(
seed 7
[fault]
fault_seed 1234
deny_heap locklist 120 180
deny_heap * 10 20 0.5
squeeze_overflow_mb 64 60 90
kill_app 3 45
[oltp]
clients 0 10
)");
  ASSERT_TRUE(spec.ok()) << spec.status().ToString();
  const FaultPlanSpec& fault = spec.value().database.fault;
  EXPECT_EQ(fault.seed, 1234u);
  ASSERT_EQ(fault.windows.size(), 3u);
  EXPECT_EQ(fault.windows[0].kind, FaultKind::kDenyHeapGrowth);
  EXPECT_EQ(fault.windows[0].heap, "locklist");
  EXPECT_EQ(fault.windows[0].from, 120 * kSecond);
  EXPECT_EQ(fault.windows[0].until, 180 * kSecond);
  EXPECT_DOUBLE_EQ(fault.windows[0].probability, 1.0);
  EXPECT_DOUBLE_EQ(fault.windows[1].probability, 0.5);
  EXPECT_EQ(fault.windows[2].kind, FaultKind::kSqueezeOverflow);
  EXPECT_EQ(fault.windows[2].amount, 64 * kMiB);
  ASSERT_EQ(fault.kills.size(), 1u);
  EXPECT_EQ(fault.kills[0].app, 3);
  EXPECT_EQ(fault.kills[0].at, 45 * kSecond);
  EXPECT_TRUE(spec.value().runner.robustness_metrics);
}

TEST(ScenarioConfigTest, FaultSeedDerivedFromScenarioSeed) {
  Result<ScenarioSpec> a = ParseScenario(
      "seed 7\n[fault]\nkill_app 1 5\n[oltp]\nclients 0 1\n");
  Result<ScenarioSpec> b = ParseScenario(
      "seed 8\n[fault]\nkill_app 1 5\n[oltp]\nclients 0 1\n");
  ASSERT_TRUE(a.ok() && b.ok());
  // Deterministic, but decorrelated from each other and from the raw seed.
  EXPECT_NE(a.value().database.fault.seed, b.value().database.fault.seed);
  EXPECT_NE(a.value().database.fault.seed, 7u);
}

TEST(ScenarioConfigTest, FaultFreeScenarioHasEmptyPlanAndPlainMetrics) {
  Result<ScenarioSpec> spec = ParseScenario(kMinimal);
  ASSERT_TRUE(spec.ok());
  EXPECT_TRUE(spec.value().database.fault.empty());
  EXPECT_FALSE(spec.value().runner.robustness_metrics);
}

TEST(ScenarioConfigTest, RejectsMalformedFaultLines) {
  const std::string tail = "\n[oltp]\nclients 0 1\n";
  ExpectParseError("[fault]\ndeny_heap locklist 120" + tail, 2,
                   {"deny_heap", "wants 3 to 4 value(s), got 2"});
  ExpectParseError("[fault]\ndeny_heap locklist 180 120" + tail, 2,
                   {"deny_heap", "until_s > from_s"});
  ExpectParseError("[fault]\ndeny_heap locklist 10 20 1.5" + tail, 2,
                   {"deny_heap", "[0, 1]", "'1.5'"});
  ExpectParseError("[fault]\nsqueeze_overflow_mb 0 10 20" + tail, 2,
                   {"squeeze_overflow_mb", "in [1, ", "'0'"});
  ExpectParseError("[fault]\nkill_app 0 10" + tail, 2,
                   {"kill_app", "in [1, ", "'0'"});
  ExpectParseError("[fault]\nkill_app 1 -5" + tail, 2,
                   {"kill_app", "in [0, ", "'-5'"});
  ExpectParseError("[fault]\nunplug_the_server 1" + tail, 2,
                   {"unplug_the_server", "[fault]"});
}

TEST(LoadedScenarioTest, RejectsKillTargetBeyondPopulation) {
  Result<ScenarioSpec> spec = ParseScenario(
      "[fault]\nkill_app 11 5\n[oltp]\nclients 0 10\n");
  ASSERT_TRUE(spec.ok()) << spec.status().ToString();
  const Result<std::unique_ptr<LoadedScenario>> loaded =
      LoadedScenario::Create(spec.value());
  ASSERT_FALSE(loaded.ok());
  EXPECT_NE(loaded.status().message().find("kill_app target 11"),
            std::string::npos)
      << loaded.status().message();
}

TEST(ScenarioConfigTest, RejectsEmptyScenario) {
  EXPECT_FALSE(ParseScenario("database_memory_mb 256\n").ok());
}

TEST(ScenarioConfigTest, RejectsSectionWithoutClients) {
  EXPECT_FALSE(ParseScenario("[oltp]\nmean_locks_per_txn 10\n").ok());
}

TEST(ScenarioConfigTest, RejectsInvalidDerivedParams) {
  // 4 MB database: maxLockMemory (20 %) falls below the 2 MB floor.
  EXPECT_FALSE(
      ParseScenario("database_memory_mb 4\n[oltp]\nclients 0 1\n").ok());
}

TEST(ScenarioConfigTest, LoadFileNotFound) {
  EXPECT_EQ(LoadScenarioFile("/nonexistent/path.conf").status().code(),
            StatusCode::kNotFound);
}

TEST(LoadedScenarioTest, CreateAndRun) {
  Result<ScenarioSpec> spec = ParseScenario(R"(
database_memory_mb 256
duration_s 20
[oltp]
clients 0 5
)");
  ASSERT_TRUE(spec.ok());
  Result<std::unique_ptr<LoadedScenario>> loaded =
      LoadedScenario::Create(spec.value());
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  LoadedScenario& scenario = *loaded.value();
  scenario.runner().Run();
  EXPECT_EQ(scenario.database().clock().now(), 20 * kSecond);
  EXPECT_GT(scenario.runner().total_commits(), 0);
}

TEST(LoadedScenarioTest, ShippedScenarioFilesParse) {
  // Every shipped scenario parses and builds, so a misspelled heap or
  // table in any of them fails here.
  int files = 0;
  for (const char* dir : {"/scenarios", "/scenarios/regression"}) {
    for (const auto& entry : std::filesystem::directory_iterator(
             std::string(LOCKTUNE_SOURCE_DIR) + dir)) {
      if (entry.path().extension() != ".conf") continue;
      ++files;
      const std::string path = entry.path().string();
      const Result<ScenarioSpec> spec = LoadScenarioFile(path);
      ASSERT_TRUE(spec.ok()) << path << ": " << spec.status().ToString();
      const Result<std::unique_ptr<LoadedScenario>> loaded =
          LoadedScenario::Create(spec.value());
      EXPECT_TRUE(loaded.ok()) << path << ": " << loaded.status().ToString();
    }
  }
  EXPECT_GE(files, 11);  // 7 in scenarios/, 4 in scenarios/regression/
}

}  // namespace
}  // namespace locktune
