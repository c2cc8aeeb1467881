// Text-file scenario descriptions for the locktune simulator CLI.
//
// A scenario file is line-based: global `key value` pairs first, then one
// or more workload sections. Example:
//
//     # Figure 11, scaled
//     database_memory_mb 1024
//     mode selftuning
//     duration_s 720
//     lock_timeout_ms -1
//
//     [oltp]
//     clients 0 60          # from t=0 s, 60 clients
//     mean_locks_per_txn 400
//     write_fraction 0.2
//
//     [dss]
//     clients 330 1         # the reporting query arrives at t=330 s
//     scan_locks 800000
//     locks_per_tick 3000
//     hold_time_s 600
//
// [dss], [batch] and [hostile] all run a ScanWorkload (scan_workload.h);
// a key a section leaves out takes the section's default or, in
// [hostile], the default of the section's `archetype`, wherever in the
// section that line stands. Chaos scenarios add a `[fault]` section
// scheduling deterministic fault injection (see docs/ROBUSTNESS.md):
//
//     [fault]
//     deny_heap locklist 120 180      # refuse locklist growth, t=[120,180)s
//     squeeze_overflow_mb 64 60 90    # withhold 64 MB of overflow
//     kill_app 3 45                   # kill application #3 at t=45 s
//
// `#` starts a comment; blank lines are ignored. Every section and key,
// with its values, ranges and spellings, is defined once, in
// ScenarioSchema() (scenario_schema.h), and ParseScenario reads the file
// with that table. Parsing is strict: unknown keys, malformed numbers, or
// out-of-range values produce an error of the form `<file>:<line>: ...`
// naming the offending key and the expected form.
#ifndef LOCKTUNE_WORKLOAD_SCENARIO_CONFIG_H_
#define LOCKTUNE_WORKLOAD_SCENARIO_CONFIG_H_

#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "engine/database.h"
#include "workload/oltp_workload.h"
#include "workload/scan_workload.h"
#include "workload/scenario.h"

namespace locktune {

// One workload section from the file.
struct WorkloadSpec {
  enum class Kind { kOltp, kDss, kBatch, kHostile } kind = Kind::kOltp;
  OltpOptions oltp;
  // Scan sections: the defaults row (the section's, or the [hostile]
  // archetype's) and the fields the file sets over it; LoadedScenario
  // runs ScanDefaults(preset, scan).
  ScanPreset preset = ScanPreset::kDss;
  ScanOptions scan;
  std::vector<std::pair<TimeMs, int>> client_steps;
};

// A fully parsed scenario: database options (including any fault plan) +
// workloads + runner options.
struct ScenarioSpec {
  DatabaseOptions database;
  ScenarioOptions runner;
  std::vector<WorkloadSpec> workloads;

  // Sets the scenario seed and derives the fault plan's seed from it: the
  // plan draws from its own stream, so arming faults never perturbs
  // workload randomness. A later `fault_seed` line replaces the plan's.
  void SetSeed(uint64_t seed);
};

// Parses scenario text. On error, the message is `source_name:line: ...`
// and names the offending key.
[[nodiscard]] Result<ScenarioSpec> ParseScenario(
    const std::string& text, const std::string& source_name = "<scenario>");

// Convenience: parse + reads the file (errors name the file path).
// NOT_FOUND if unreadable.
[[nodiscard]] Result<ScenarioSpec> LoadScenarioFile(const std::string& path);

// Instantiated, runnable scenario (owns the database and workloads).
class LoadedScenario {
 public:
  // Builds the database, workload objects, and runner from a spec.
  [[nodiscard]] static Result<std::unique_ptr<LoadedScenario>> Create(
      const ScenarioSpec& spec);

  Database& database() { return *database_; }
  ScenarioRunner& runner() { return *runner_; }

 private:
  LoadedScenario() = default;

  std::unique_ptr<Database> database_;
  std::vector<std::unique_ptr<Workload>> workloads_;
  std::unique_ptr<ScenarioRunner> runner_;
};

}  // namespace locktune

#endif  // LOCKTUNE_WORKLOAD_SCENARIO_CONFIG_H_
