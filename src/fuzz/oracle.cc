#include "fuzz/oracle.h"

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "workload/scenario_config.h"

namespace locktune {

namespace {

bool Contains(const std::string& haystack, const char* needle) {
  return haystack.find(needle) != std::string::npos;
}

bool WriteFile(const std::string& path, const std::string& text) {
  std::ofstream out(path);
  if (!out) return false;
  out << text;
  out.flush();
  return out.good();
}

// True when the scenario carries any deny-heap pressure. The degradation
// contract (docs/ROBUSTNESS.md) now covers cold-start windows too: this
// gate was originally scoped to steady-state windows (none opening before
// the tuner's first pass) because denial against the cold initial
// locklist could strand one-lock transactions behind an escalation
// convoy (see docs/FUZZING.md). That hole is closed — the victim scan
// widens to waiting applications and the cold locklist takes a bounded
// overflow borrow until the first pass — so the steady-state scoping is
// gone and the convoy repro in scenarios/regression/ keeps it honest.
bool HasDenyHeapFault(const ScenarioSpec& spec) {
  for (const FaultWindowSpec& w : spec.database.fault.windows) {
    if (w.kind == FaultKind::kDenyHeapGrowth) return true;
  }
  return false;
}

// Details must stay single-line: they are embedded in verdict lines and in
// `# Detail:` header comments of regression repro files.
std::string FirstLines(const std::string& text, int n) {
  std::istringstream is(text);
  std::string line;
  std::string out;
  for (int i = 0; i < n && std::getline(is, line); ++i) {
    if (line.empty()) continue;
    if (!out.empty()) out += " | ";
    out += line;
  }
  return out;
}

}  // namespace

double MetricValue(const std::string& metrics_csv, const std::string& name,
                   double fallback) {
  std::istringstream is(metrics_csv);
  std::string line;
  while (std::getline(is, line)) {
    const size_t comma = line.rfind(',');
    if (comma == std::string::npos) continue;
    if (line.substr(0, comma) != name) continue;
    return std::strtod(line.c_str() + comma + 1, nullptr);
  }
  return fallback;
}

OracleReport ClassifyRun(const SimRunResult& run) {
  OracleReport report;
  if (!run.started) {
    report.failed = true;
    report.oracle = "crash";
    report.detail = "simulator failed to start: " +
                    FirstLines(run.stderr_text, 3);
    return report;
  }
  if (run.timed_out) {
    report.failed = true;
    report.oracle = "livelock";
    report.detail = "run exceeded the wall-clock kill budget";
    return report;
  }
  if (Contains(run.stderr_text, "tick watchdog exceeded")) {
    report.failed = true;
    report.oracle = "livelock";
    report.detail = "tick watchdog abort: " + FirstLines(run.stderr_text, 2);
    return report;
  }
  if (Contains(run.stderr_text, "CHECK failed")) {
    report.failed = true;
    report.oracle = "invariant";
    // Surface the CHECK line itself, not the flight-recorder dump.
    const size_t at = run.stderr_text.find("CHECK failed");
    const size_t eol = run.stderr_text.find('\n', at);
    report.detail = run.stderr_text.substr(
        at, eol == std::string::npos ? std::string::npos : eol - at);
    return report;
  }
  if (run.term_signal != 0) {
    report.failed = true;
    report.oracle = "crash";
    report.detail = "terminated by signal " +
                    std::to_string(run.term_signal);
    return report;
  }
  // Normal non-zero exit: a semantic config rejection (e.g. kill target
  // beyond the population). Not an oracle failure — see header.
  return report;
}

OracleReport EvaluateScenario(const std::string& conf_text,
                              const OracleOptions& options) {
  OracleReport report;

  // Reject texts the parser rejects before burning a subprocess; callers
  // (the minimizer especially) treat this as "candidate invalid".
  const Result<ScenarioSpec> spec = ParseScenario(conf_text, "candidate");
  if (!spec.ok()) {
    return report;  // not a failure: invalid candidates can't repro bugs
  }

  const std::string conf_path = options.work_dir + "/candidate.conf";
  if (!WriteFile(conf_path, conf_text)) {
    return report;
  }

  SimRunRequest request;
  request.sim_binary = options.sim_binary;
  request.conf_path = conf_path;
  request.timeout_ms = options.timeout_ms;
  request.tick_watchdog_ms = options.tick_watchdog_ms;
  request.paranoid = true;
  request.extra_env = options.extra_env;
  request.metrics_path = options.work_dir + "/candidate.metrics.csv";
  // Never read back: the trace is written so that fuzzed runs exercise
  // the JSONL trace path (under ASan builds too).
  request.trace_path = options.work_dir + "/candidate.trace.jsonl";
  const SimRunResult run = RunSim(request);
  if (OracleReport r = ClassifyRun(run); r.failed) return r;
  // A clean rejection (see ClassifyRun) has no metrics to check.
  if (run.exit_code != 0) return report;

  // Degradation-ledger contract (docs/ROBUSTNESS.md): under selftuning,
  // absorbed deny-heap denials must never surface as OOM aborts —
  // including windows that open before the tuner's first pass.
  if (spec.value().database.mode == TuningMode::kSelfTuning &&
      HasDenyHeapFault(spec.value())) {
    const double absorbed =
        MetricValue(run.metrics_text, "locktune_fault_absorbed_total", 0);
    const double oom = MetricValue(
        run.metrics_text, "locktune_workload_oom_aborts_total", 0);
    if (absorbed > 0 && oom > 0) {
      char detail[160];
      std::snprintf(detail, sizeof(detail),
                    "ledger absorbed %.0f denials yet %.0f transactions "
                    "OOM-aborted (contract: absorbed => oom_aborts == 0)",
                    absorbed, oom);
      report.failed = true;
      report.oracle = "degradation";
      report.detail = detail;
      return report;
    }
  }

  return report;
}

}  // namespace locktune
