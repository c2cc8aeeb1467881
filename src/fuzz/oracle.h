// The fuzzer's stacked oracles, in the order they veto a scenario:
//
//  1. run classification — CHECK failure ("invariant"), tick-watchdog
//     abort or harness kill timeout ("livelock"), any other fatal signal
//     ("crash"); a clean non-zero exit is an "error" (the scenario is
//     semantically invalid, e.g. a kill target beyond the population) and
//     deliberately NOT a failure: the generator must not emit those, but
//     the minimizer must not chase them either;
//  2. degradation — the docs/ROBUSTNESS.md ledger contract: a selftuning
//     run whose deny-heap denials were absorbed must show zero OOM aborts.
//
// EvaluateScenario is shared verbatim between the fuzz loop and the
// minimizer's still-fails callback, so a minimized repro provably fails
// the same oracle as its parent.
#ifndef LOCKTUNE_FUZZ_ORACLE_H_
#define LOCKTUNE_FUZZ_ORACLE_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "fuzz/sim_driver.h"

namespace locktune {

struct OracleReport {
  bool failed = false;
  // One of: "invariant", "livelock", "crash", "degradation". Empty when
  // !failed.
  std::string oracle;
  std::string detail;
};

struct OracleOptions {
  std::string sim_binary;
  // Scratch directory for the candidate .conf and its artifacts; contents
  // are overwritten on every evaluation.
  std::string work_dir;
  int64_t timeout_ms = 30'000;
  int64_t tick_watchdog_ms = 2'000;
  // Extra child environment for every run (the oracle self-tests inject
  // LOCKTUNE_TEST_PLANT here).
  std::vector<std::pair<std::string, std::string>> extra_env;
};

// Classifies one finished run in isolation (oracle class 1 above).
OracleReport ClassifyRun(const SimRunResult& run);

// Runs the simulator once on `conf_text`, under LOCKTUNE_PARANOID=1 and the
// tick watchdog, classifies the run, then applies the degradation check.
// Deterministic for a deterministic simulator.
OracleReport EvaluateScenario(const std::string& conf_text,
                              const OracleOptions& options);

// The value of `name` in a metric,value CSV export, or `fallback` when
// absent. Exposed for unit tests.
double MetricValue(const std::string& metrics_csv, const std::string& name,
                   double fallback);

}  // namespace locktune

#endif  // LOCKTUNE_FUZZ_ORACLE_H_
