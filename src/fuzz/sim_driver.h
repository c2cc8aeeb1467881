// Subprocess harness: runs locktune_sim on a scenario file and captures
// everything an oracle needs — exit status, termination signal, wall-clock
// timeout, stdout (series CSV), stderr (summary + CHECK failures + flight
// recorder), and the --metrics-out export.
//
// fork/exec rather than in-process: a fuzzer-provoked crash, sanitizer
// report, or livelock must never take the fuzzer down with it, the kill
// timeout needs a process to SIGKILL, and per-run environment (paranoid
// mode, planted bugs) must not leak between runs.
#ifndef LOCKTUNE_FUZZ_SIM_DRIVER_H_
#define LOCKTUNE_FUZZ_SIM_DRIVER_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace locktune {

struct SimRunRequest {
  std::string sim_binary;
  std::string conf_path;
  // Wall-clock kill budget. A run that exceeds it is SIGKILLed and
  // reported with timed_out = true — the backstop liveness oracle.
  int64_t timeout_ms = 30'000;
  // Forwarded as --tick-watchdog-ms when > 0 (in-process livelock oracle).
  int64_t tick_watchdog_ms = 0;
  // Sets LOCKTUNE_PARANOID=1 in the child (invariant oracle).
  bool paranoid = false;
  // Extra child environment, e.g. {"LOCKTUNE_TEST_PLANT", "invariant"}.
  std::vector<std::pair<std::string, std::string>> extra_env;
  // When non-empty, passed as --metrics-out and read back into the result
  // after the run.
  std::string metrics_path;
  // When non-empty, passed as --trace-out; the file is not read back.
  std::string trace_path;
};

struct SimRunResult {
  bool started = false;    // false: exec failed (bad binary path)
  bool timed_out = false;  // killed by the harness deadline
  int exit_code = -1;      // valid when exited normally
  int term_signal = 0;     // non-zero when signal-terminated (6 = abort)
  std::string stdout_text;
  std::string stderr_text;
  std::string metrics_text;  // contents of metrics_path ("" if unused)

  bool ok() const {
    return started && !timed_out && term_signal == 0 && exit_code == 0;
  }
};

SimRunResult RunSim(const SimRunRequest& request);

}  // namespace locktune

#endif  // LOCKTUNE_FUZZ_SIM_DRIVER_H_
