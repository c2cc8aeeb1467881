// locktune_sim — run a lock-memory-tuning scenario from a text file.
//
// Usage:
//   locktune_sim <scenario-file>
//     [--series name,name,...] [--stride N]
//     [--metrics-out PATH|-]   Prometheus text dump of the telemetry
//                              registry after the run (.csv extension
//                              switches to metric,value CSV)
//     [--trace-out PATH|-]     JSONL decision trace: one record per STMM
//                              tuning pass and one per lock event
//     [--stmm-report]          db2pd -stmm style tuning history table
//     [--snapshot]             end-of-run state snapshot
//     [--inspect]              locktune_pd full inspection: snapshot +
//                              metrics registry + flight-recorder tail
//     [--trace-profile PATH]   Chrome trace-event JSON (load in
//                              ui.perfetto.dev): tick/STMM/escalation spans
//                              on virtual time
//     [--flight-dump]          dump the flight-recorder rings at end of run
//                              and arm the dump-on-deadlock-victim path
//     [--tick-watchdog-ms N]   abort (with flight-recorder dump) if one
//                              simulation tick takes more than N wall-clock
//                              milliseconds — the fuzzer's livelock oracle
//
// Prints the sampled series as CSV on stdout, then a summary (commits,
// escalations, lock memory, tuning passes) on stderr. See
// src/workload/scenario_config.h for the file format and scenarios/*.conf
// for ready-made examples.
#include <array>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "common/paranoid.h"
#include "core/stmm_report.h"
#include "engine/db_snapshot.h"
#include "telemetry/chrome_trace.h"
#include "telemetry/crash_handler.h"
#include "telemetry/exporters.h"
#include "telemetry/flight_recorder.h"
#include "telemetry/trace.h"
#include "workload/scenario_config.h"

using namespace locktune;

namespace {

std::vector<std::string> SplitCsv(const std::string& s) {
  std::vector<std::string> out;
  size_t start = 0;
  while (start <= s.size()) {
    const size_t comma = s.find(',', start);
    if (comma == std::string::npos) {
      out.push_back(s.substr(start));
      break;
    }
    out.push_back(s.substr(start, comma - start));
    start = comma + 1;
  }
  return out;
}

int Fail(const std::string& message) {
  std::fprintf(stderr, "locktune_sim: %s\n", message.c_str());
  return 1;
}

// Strict positive-integer parse: rejects empty strings, trailing garbage,
// and values < 1 (std::atoll would silently yield 0 and break the sampler).
bool ParsePositiveInt(const char* s, int64_t* out) {
  char* end = nullptr;
  const long long v = std::strtoll(s, &end, 10);
  if (end == s || *end != '\0' || v < 1) return false;
  *out = v;
  return true;
}

// An output target that is either stdout ("-") or an owned file.
struct OutStream {
  std::ostream* os = nullptr;
  std::unique_ptr<std::ofstream> file;

  bool Open(const std::string& path) {
    if (path == "-") {
      os = &std::cout;
      return true;
    }
    file = std::make_unique<std::ofstream>(path);
    if (!file->is_open()) return false;
    os = file.get();
    return true;
  }
};

bool EndsWith(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

constexpr char kUsage[] =
    "usage: locktune_sim <scenario-file> [--series a,b,...] [--stride N] "
    "[--metrics-out PATH|-] [--trace-out PATH|-] "
    "[--stmm-report] [--snapshot] [--inspect] "
    "[--trace-profile PATH] [--flight-dump] [--tick-watchdog-ms N]";

}  // namespace

int main(int argc, char** argv) {
  // First thing, before any scenario state exists: a crash anywhere after
  // this point (including config parsing) leaves attribution on stderr.
  InstallCrashAttribution();
  if (argc < 2) return Fail(kUsage);
  std::vector<std::string> series = {
      ScenarioRunner::kLockAllocatedMb, ScenarioRunner::kLockUsedMb,
      ScenarioRunner::kThroughputTps, ScenarioRunner::kEscalations};
  size_t stride = 10;
  int64_t tick_watchdog_ms = 0;
  bool stmm_report = false;
  bool snapshot = false;
  bool inspect = false;
  bool flight_dump = false;
  std::string metrics_out;
  std::string trace_out;
  std::string trace_profile_out;
  for (int i = 2; i < argc; ++i) {
    if (std::strcmp(argv[i], "--series") == 0 && i + 1 < argc) {
      series = SplitCsv(argv[++i]);
    } else if (std::strcmp(argv[i], "--stride") == 0 && i + 1 < argc) {
      int64_t value = 0;
      if (!ParsePositiveInt(argv[++i], &value)) {
        return Fail(std::string("--stride requires a positive integer, got "
                                "\"") +
                    argv[i] + "\"\n" + kUsage);
      }
      stride = static_cast<size_t>(value);
    } else if (std::strcmp(argv[i], "--tick-watchdog-ms") == 0 &&
               i + 1 < argc) {
      if (!ParsePositiveInt(argv[++i], &tick_watchdog_ms)) {
        return Fail(std::string("--tick-watchdog-ms requires a positive "
                                "integer, got \"") +
                    argv[i] + "\"\n" + kUsage);
      }
    } else if (std::strcmp(argv[i], "--metrics-out") == 0 && i + 1 < argc) {
      metrics_out = argv[++i];
    } else if (std::strcmp(argv[i], "--trace-out") == 0 && i + 1 < argc) {
      trace_out = argv[++i];
    } else if (std::strcmp(argv[i], "--trace-profile") == 0 && i + 1 < argc) {
      trace_profile_out = argv[++i];
    } else if (std::strcmp(argv[i], "--flight-dump") == 0) {
      flight_dump = true;
    } else if (std::strcmp(argv[i], "--stmm-report") == 0) {
      stmm_report = true;
    } else if (std::strcmp(argv[i], "--snapshot") == 0) {
      snapshot = true;
    } else if (std::strcmp(argv[i], "--inspect") == 0) {
      inspect = true;
    } else {
      return Fail(std::string("unknown argument ") + argv[i] + "\n" +
                  kUsage);
    }
  }

  Result<ScenarioSpec> spec = LoadScenarioFile(argv[1]);
  if (!spec.ok()) return Fail(spec.status().ToString());
  spec.value().runner.tick_watchdog_ms = tick_watchdog_ms;

  Result<std::unique_ptr<LoadedScenario>> loaded =
      LoadedScenario::Create(spec.value());
  if (!loaded.ok()) return Fail(loaded.status().ToString());

  LoadedScenario& scenario = *loaded.value();

  // Hot-path structure gauges (lock table heads, head pool, blocked apps)
  // are inspector-only: registering them changes the metric export, and the
  // default --metrics-out must stay identical across runs.
  if (inspect) {
    scenario.database().locks().RegisterInternalMetrics(
        &scenario.database().metrics());
  }
  // Paranoid runs arm the victim dump too: a deadlock victim under paranoid
  // scrutiny is exactly when the recent event history matters. stderr only,
  // so golden (stdout/file) outputs are unaffected.
  if (flight_dump || ParanoidEnabled()) ArmFlightDumpOnVictim(true);

  std::unique_ptr<ChromeTraceCollector> trace_profile;
  std::ofstream trace_profile_file;
  if (!trace_profile_out.empty()) {
    trace_profile_file.open(trace_profile_out);
    if (!trace_profile_file.is_open()) {
      return Fail("cannot open --trace-profile " + trace_profile_out);
    }
    trace_profile = std::make_unique<ChromeTraceCollector>();
    SetGlobalTraceCollector(trace_profile.get());
  }

  OutStream trace_stream;
  std::unique_ptr<JsonlTraceWriter> trace_writer;
  if (!trace_out.empty()) {
    if (!trace_stream.Open(trace_out)) {
      return Fail("cannot open --trace-out " + trace_out);
    }
    trace_writer = std::make_unique<JsonlTraceWriter>(trace_stream.os);
    scenario.database().set_trace_sink(trace_writer.get());
  }

  scenario.runner().Run();

  if (trace_writer != nullptr) {
    trace_writer->Flush();
    // The trace is the run's only record of its decisions and absorbed
    // faults; losing it to a full disk must not pass as success.
    if (!trace_stream.os->good()) {
      return Fail("cannot write --trace-out " + trace_out);
    }
  }

  if (trace_profile != nullptr) {
    SetGlobalTraceCollector(nullptr);
    trace_profile->WriteJson(trace_profile_file);
    trace_profile_file.flush();
    // Open succeeding is not enough (a full disk fails at write time);
    // a truncated trace would silently fail to load in Perfetto.
    if (!trace_profile_file.good()) {
      return Fail("cannot write --trace-profile " + trace_profile_out);
    }
    std::fprintf(stderr, "trace-profile: %zu events -> %s\n",
                 trace_profile->event_count(), trace_profile_out.c_str());
  }
  if (flight_dump) DumpFlightRecorder(stderr);

  // CSV of the requested series.
  for (const std::string& name : series) {
    if (!scenario.runner().series().Has(name)) {
      return Fail("unknown series " + name);
    }
  }
  std::printf("time_s");
  for (const std::string& name : series) std::printf(",%s", name.c_str());
  std::printf("\n");
  const TimeSeries& first = scenario.runner().series().Get(series[0]);
  for (size_t i = 0; i < first.size(); i += stride) {
    std::printf("%lld",
                static_cast<long long>(first.points()[i].time_ms / 1000));
    for (const std::string& name : series) {
      std::printf(",%.3f",
                  scenario.runner().series().Get(name).points()[i].value);
    }
    std::printf("\n");
  }

  if (!metrics_out.empty()) {
    OutStream metrics_stream;
    if (!metrics_stream.Open(metrics_out)) {
      return Fail("cannot open --metrics-out " + metrics_out);
    }
    if (EndsWith(metrics_out, ".csv")) {
      WriteMetricsCsv(scenario.database().metrics(), *metrics_stream.os);
    } else {
      WritePrometheus(scenario.database().metrics(), *metrics_stream.os);
    }
    metrics_stream.os->flush();
    if (!metrics_stream.os->good()) {
      return Fail("cannot write --metrics-out " + metrics_out);
    }
  }

  const LockManagerStats& stats = scenario.database().locks().stats();
  std::fprintf(stderr, "\ncommits=%lld escalations=%lld (exclusive=%lld) "
               "timeouts=%lld deadlock_victims=%lld oom=%lld\n",
               static_cast<long long>(scenario.runner().total_commits()),
               static_cast<long long>(stats.escalations),
               static_cast<long long>(stats.exclusive_escalations),
               static_cast<long long>(stats.lock_timeouts),
               static_cast<long long>(stats.deadlock_victims),
               static_cast<long long>(stats.out_of_memory_failures));
  std::fprintf(stderr, "lock_memory=%.2fMB used=%.2fMB",
               static_cast<double>(
                   scenario.database().locks().allocated_bytes()) /
                   (1024.0 * 1024.0),
               static_cast<double>(scenario.database().locks().used_bytes()) /
                   (1024.0 * 1024.0));
  if (scenario.database().stmm() != nullptr) {
    std::fprintf(stderr, " lmoc=%.2fMB tuning_passes=%zu",
                 static_cast<double>(scenario.database().stmm()->lmoc()) /
                     (1024.0 * 1024.0),
                 scenario.database().stmm()->history().size());
  }
  std::fprintf(stderr, "\n");
  if (stmm_report && scenario.database().stmm() != nullptr) {
    const auto& history = scenario.database().stmm()->history();
    std::fprintf(stderr, "\nSTMM tuning history (last 40 passes):\n%s%s\n",
                 RenderHistoryTable(history, 40).c_str(),
                 RenderSummary(Summarize(history)).c_str());
  }
  const int apps = static_cast<int>(scenario.runner().store().size());
  if (snapshot && !inspect) {
    std::fprintf(stderr, "\n%s",
                 RenderSnapshot(
                     CaptureSnapshot(scenario.database(), apps)).c_str());
  }
  if (inspect) {
    std::fprintf(stderr, "\n%s",
                 RenderInspector(scenario.database(), apps).c_str());
    // Aggregate phase histogram from the store's SoA phase column; the
    // per-application row walk it replaces stalled the tick watchdog at
    // 10^6 applications (the snapshot's top-holder table above stays the
    // only per-app view, capped at its top-N).
    const std::array<int64_t, kNumAppPhases> phases =
        scenario.runner().store().PhaseCounts();
    std::fprintf(stderr, "\napplication phases (%d slots):\n", apps);
    for (int p = 0; p < kNumAppPhases; ++p) {
      if (phases[static_cast<size_t>(p)] == 0) continue;
      std::fprintf(stderr, "  %-13s %lld\n",
                   AppPhaseName(static_cast<AppPhase>(p)),
                   static_cast<long long>(phases[static_cast<size_t>(p)]));
    }
  }
  return 0;
}
