// locktune_fuzz — seed-deterministic scenario fuzzer for locktune_sim.
//
// Usage:
//   locktune_fuzz [--seed S] [--count N]
//     [--sim PATH]             locktune_sim binary (default: next to this
//                              binary)
//     [--out DIR]              working directory for scenario/artifact
//                              files (default .locktune_fuzz)
//     [--budget-ms N]          wall-clock kill budget per simulator run
//                              (default 30000)
//     [--tick-watchdog-ms N]   per-tick livelock watchdog forwarded to the
//                              simulator (default 2000, 0 = off)
//     [--regression-dir DIR]   write minimized repros here (with a replay
//                              header) instead of only reporting them
//     [--plant NAME]           set LOCKTUNE_TEST_PLANT=NAME in every child
//                              (oracle self-tests; see docs/FUZZING.md)
//     [--no-minimize]          report failures without delta-debugging
//     [--emit-only]            generate and write scenario files, skip
//                              execution (corpus inspection)
//     [--replay FILE]          run the oracle stack on one existing .conf
//                              and exit (1 = failure reproduced)
//
// Determinism contract: stdout is a pure function of the flags (same seed
// and count → byte-identical verdicts and minimized repros); anything
// timing-dependent goes to stderr. Exit 0 = all scenarios passed, 1 =
// at least one oracle failure, 2 = usage error.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "fuzz/minimizer.h"
#include "fuzz/oracle.h"
#include "fuzz/scenario_gen.h"

using namespace locktune;

namespace {

int Fail(const std::string& message) {
  std::fprintf(stderr, "locktune_fuzz: %s\n", message.c_str());
  return 2;
}

bool ParseInt(const char* s, int64_t* out) {
  char* end = nullptr;
  const long long v = std::strtoll(s, &end, 10);
  if (end == s || *end != '\0') return false;
  *out = v;
  return true;
}

bool WriteFile(const std::string& path, const std::string& text) {
  std::ofstream out(path);
  if (!out) return false;
  out << text;
  out.flush();
  return out.good();
}

std::string ReadFileOrEmpty(const std::string& path) {
  std::ifstream in(path);
  if (!in) return "";
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

constexpr char kUsage[] =
    "usage: locktune_fuzz [--seed S] [--count N] [--sim PATH] "
    "[--out DIR] [--budget-ms N] [--tick-watchdog-ms N] "
    "[--regression-dir DIR] [--plant NAME] [--no-minimize] [--emit-only] "
    "[--replay FILE]";

}  // namespace

int main(int argc, char** argv) {
  uint64_t seed = 1;
  int64_t count = 20;
  int64_t budget_ms = 30'000;
  int64_t tick_watchdog_ms = 2'000;
  std::string sim_binary;
  std::string out_dir = ".locktune_fuzz";
  std::string regression_dir;
  std::string plant;
  std::string replay_path;
  bool minimize = true;
  bool emit_only = false;

  for (int i = 1; i < argc; ++i) {
    int64_t iv = 0;
    if (std::strcmp(argv[i], "--seed") == 0 && i + 1 < argc) {
      if (!ParseInt(argv[++i], &iv)) return Fail(kUsage);
      seed = static_cast<uint64_t>(iv);
    } else if (std::strcmp(argv[i], "--count") == 0 && i + 1 < argc) {
      if (!ParseInt(argv[++i], &iv) || iv < 1) return Fail(kUsage);
      count = iv;
    } else if (std::strcmp(argv[i], "--budget-ms") == 0 && i + 1 < argc) {
      if (!ParseInt(argv[++i], &iv) || iv < 1) return Fail(kUsage);
      budget_ms = iv;
    } else if (std::strcmp(argv[i], "--tick-watchdog-ms") == 0 &&
               i + 1 < argc) {
      if (!ParseInt(argv[++i], &iv) || iv < 0) return Fail(kUsage);
      tick_watchdog_ms = iv;
    } else if (std::strcmp(argv[i], "--sim") == 0 && i + 1 < argc) {
      sim_binary = argv[++i];
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_dir = argv[++i];
    } else if (std::strcmp(argv[i], "--regression-dir") == 0 &&
               i + 1 < argc) {
      regression_dir = argv[++i];
    } else if (std::strcmp(argv[i], "--plant") == 0 && i + 1 < argc) {
      plant = argv[++i];
    } else if (std::strcmp(argv[i], "--replay") == 0 && i + 1 < argc) {
      replay_path = argv[++i];
    } else if (std::strcmp(argv[i], "--no-minimize") == 0) {
      minimize = false;
    } else if (std::strcmp(argv[i], "--emit-only") == 0) {
      emit_only = true;
    } else {
      return Fail(std::string("unknown argument ") + argv[i] + "\n" +
                  kUsage);
    }
  }

  if (sim_binary.empty()) {
    // Default: the simulator living next to this binary.
    sim_binary =
        (std::filesystem::path(argv[0]).parent_path() / "locktune_sim")
            .string();
  }

  std::error_code ec;
  std::filesystem::create_directories(out_dir, ec);
  if (ec) return Fail("cannot create --out " + out_dir);

  OracleOptions oracle;
  oracle.sim_binary = sim_binary;
  oracle.work_dir = out_dir;
  oracle.timeout_ms = budget_ms;
  oracle.tick_watchdog_ms = tick_watchdog_ms;
  if (!plant.empty()) {
    oracle.extra_env.emplace_back("LOCKTUNE_TEST_PLANT", plant);
  }

  if (!replay_path.empty()) {
    const std::string text = ReadFileOrEmpty(replay_path);
    if (text.empty()) return Fail("cannot read --replay " + replay_path);
    const OracleReport report = EvaluateScenario(text, oracle);
    if (report.failed) {
      std::printf("replay %s verdict=FAIL oracle=%s detail=%s\n",
                  replay_path.c_str(), report.oracle.c_str(),
                  report.detail.c_str());
      return 1;
    }
    std::printf("replay %s verdict=ok\n", replay_path.c_str());
    return 0;
  }

  if (!emit_only && !std::filesystem::exists(sim_binary)) {
    return Fail("simulator binary not found: " + sim_binary +
                " (pass --sim)");
  }

  int failures = 0;
  for (int64_t i = 0; i < count; ++i) {
    const std::string conf = GenerateScenario(seed, static_cast<uint64_t>(i));
    char name[64];
    std::snprintf(name, sizeof(name), "fuzz_s%llu_i%04lld",
                  static_cast<unsigned long long>(seed),
                  static_cast<long long>(i));
    const std::string conf_path = out_dir + "/" + name + ".conf";
    if (!WriteFile(conf_path, conf)) {
      return Fail("cannot write " + conf_path);
    }
    if (emit_only) {
      std::printf("%s emitted\n", name);
      continue;
    }

    const OracleReport report = EvaluateScenario(conf, oracle);
    if (!report.failed) {
      std::printf("%s verdict=ok\n", name);
      continue;
    }
    ++failures;
    std::printf("%s verdict=FAIL oracle=%s detail=%s\n", name,
                report.oracle.c_str(), report.detail.c_str());

    std::string repro = conf;
    if (minimize) {
      MinimizeStats stats;
      repro = MinimizeScenario(
          conf,
          [&](const std::string& candidate) {
            const OracleReport r = EvaluateScenario(candidate, oracle);
            return r.failed && r.oracle == report.oracle;
          },
          &stats);
      std::printf("%s minimized: %zu -> %zu bytes (%d candidates, %d "
                  "reproduced)\n",
                  name, conf.size(), repro.size(), stats.candidates_tried,
                  stats.candidates_failed);
      std::printf("%s minimized repro:\n%s", name, repro.c_str());
    }

    if (!regression_dir.empty()) {
      std::filesystem::create_directories(regression_dir, ec);
      std::string header;
      header += "# Minimized fuzzer repro. Oracle: " + report.oracle + "\n";
      header += "# Detail: " + report.detail + "\n";
      header += "# Found by: locktune_fuzz --seed " + std::to_string(seed) +
                " --count " + std::to_string(count) + " (scenario index " +
                std::to_string(i) + ")\n";
      header += "# Replay:   locktune_fuzz --replay <this file>\n";
      const std::string repro_path = std::string(regression_dir) + "/" +
                                     name + "_" + report.oracle + ".conf";
      if (!WriteFile(repro_path, header + repro)) {
        return Fail("cannot write " + repro_path);
      }
      std::printf("%s repro written: %s\n", name, repro_path.c_str());
    }
  }

  std::printf("scenarios=%lld failures=%d\n",
              static_cast<long long>(count), failures);
  return failures == 0 ? 0 : 1;
}
