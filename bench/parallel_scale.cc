// parallel_scale — wall-clock scaling of the parallel execution mode.
//
// Measures LockManager throughput with real worker threads in parallel mode
// (SetParallelMode) at 1/2/4/8 threads under two mixes:
//
//   uncontended_tN   each thread grants X row locks on its own table, so
//                    nearly every request runs the shared-lock fast path on
//                    a private shard set — the scaling headroom case
//   hot_shard_tN     every thread takes compatible S locks on the same 64
//                    rows, so the striped shard mutexes and shared heads
//                    serialize — the scaling floor case
//   serial_classic   1 thread with parallel mode off: the classic exclusive
//                    path as a reference point for the t1 rows
//
// Output is the same machine-readable CSV as lockpath_bench
// (name,ops,seconds,ops_per_sec). `--json PATH` additionally writes a
// scaling report: per-mix throughput at each thread count,
// speedup_over_one_thread, and vs_serial_classic —
// every parallel row's throughput relative to the classic exclusive path,
// so fast-path overhead and scaling wins are priced against the same
// yardstick. `--quick` shrinks iteration counts to smoke-test levels (the
// bench_parallel_smoke ctest entry). Performance claims use the benchmark
// in perfbench/ (perfbench/README.md).
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/units.h"
#include "lock/escalation_policy.h"
#include "lock/lock_manager.h"
#include "telemetry/lock_profiler.h"

using namespace locktune;

namespace {

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

struct Measurement {
  int64_t ops = 0;
  double seconds = 0.0;
};

// Where the repetition's latch wait time went, from the lock-path profiler
// (LOCKTUNE_PROFILE builds; absent otherwise). Shares sum to 1 when any
// wait was recorded.
struct Attribution {
  bool present = false;
  double wait_ms = 0.0;  // total contended wait across all sites
  double wait_share[kProfileSiteCount] = {};
  uint64_t fast_grants = 0;
  uint64_t fast_bails = 0;
  uint64_t release_bails = 0;
  uint64_t opt_validation_fails = 0;
  uint64_t opt_pessimizes = 0;
};

Attribution Attribute(const ProfileSnapshot& snap) {
  Attribution a;
  if (!snap.compiled_in) return a;
  a.present = true;
  uint64_t total_ns = 0;
  for (const SiteProfile& site : snap.sites) total_ns += site.wait.sum_ns;
  a.wait_ms = static_cast<double>(total_ns) / 1e6;
  for (int i = 0; i < kProfileSiteCount; ++i) {
    a.wait_share[i] =
        total_ns > 0
            ? static_cast<double>(snap.sites[i].wait.sum_ns) /
                  static_cast<double>(total_ns)
            : 0.0;
  }
  a.fast_grants = snap.fast_grants;
  a.fast_bails = snap.fast_bails;
  a.release_bails = snap.release_bails;
  a.opt_validation_fails = snap.opt_validation_fails;
  a.opt_pessimizes = snap.opt_pessimizes;
  return a;
}

struct ResultRow {
  std::string name;
  Measurement m;
  Attribution attr;
};

// Best measurements in insertion order, so the CSV and the JSON sections
// list mixes in run order (t1..t8 within each mix).
std::vector<ResultRow> g_results;

void Report(const std::string& name, const Measurement& m,
            const Attribution& attr) {
  g_results.push_back({name, m, attr});
  std::printf("%s,%lld,%.6f,%.0f", name.c_str(),
              static_cast<long long>(m.ops), m.seconds,
              m.seconds > 0 ? static_cast<double>(m.ops) / m.seconds : 0.0);
  if (attr.present) {
    // Self-describing key=value columns after the fixed four.
    std::printf(",wait_ms=%.3f", attr.wait_ms);
    for (int i = 0; i < kProfileSiteCount; ++i) {
      std::printf(",wait_share_%s=%.3f",
                  ProfileSiteName(static_cast<ProfileSite>(i)),
                  attr.wait_share[i]);
    }
    std::printf(",fast_grants=%llu,fast_bails=%llu,release_bails=%llu",
                static_cast<unsigned long long>(attr.fast_grants),
                static_cast<unsigned long long>(attr.fast_bails),
                static_cast<unsigned long long>(attr.release_bails));
    std::printf(",opt_validation_fails=%llu,opt_pessimizes=%llu",
                static_cast<unsigned long long>(attr.opt_validation_fails),
                static_cast<unsigned long long>(attr.opt_pessimizes));
  }
  std::printf("\n");
}

// Best of five repetitions, same rationale as lockpath_bench: the minimum
// is the least-disturbed run, and the cold first repetition doubles as
// warm-up. `body()` returns one full repetition's measurement and times its
// own region, so harness construction and thread teardown can be excluded
// or included as each mix requires.
constexpr int kReps = 5;

template <typename Body>
void RunBest(const std::string& name, Body body) {
  Measurement best;
  Attribution best_attr;
  for (int rep = 0; rep < kReps; ++rep) {
    // Fresh profiler epoch per repetition so the attribution reported is
    // the best repetition's, not a blur across all five.
    ResetProfileForTesting();
    const Measurement m = body();
    if (rep == 0 || m.seconds * static_cast<double>(best.ops) <
                        best.seconds * static_cast<double>(m.ops)) {
      best = m;
      best_attr = Attribute(CaptureProfile());
    }
  }
  Report(name, best, best_attr);
}

struct Harness {
  std::unique_ptr<EscalationPolicy> policy;
  std::unique_ptr<LockManager> lm;

  static Harness Make() {
    Harness h;
    h.policy = std::make_unique<FixedMaxlocksPolicy>(98.0);
    LockManagerOptions opts;
    opts.initial_blocks = 64;
    opts.max_lock_memory = 256 * kMiB;
    opts.database_memory = kGiB;
    opts.policy = h.policy.get();
    opts.grow_callback = [](int64_t) { return true; };
    h.lm = std::make_unique<LockManager>(std::move(opts));
    return h;
  }
};

// Spawns `threads` workers running `work(worker_index)` and measures spawn
// through last join. Thread start-up cost is inside the measurement for
// every repetition equally; the per-worker op count is fixed, so total ops
// grow with thread count and ops/sec is aggregate throughput.
template <typename Work>
double RunWorkers(int threads, Work work) {
  const Clock::time_point start = Clock::now();
  std::vector<std::thread> workers;
  workers.reserve(static_cast<size_t>(threads));
  for (int t = 0; t < threads; ++t) {
    workers.emplace_back([&work, t] { work(t); });
  }
  for (auto& th : workers) th.join();
  return SecondsSince(start);
}

// Each worker repeatedly grants a batch of X row locks on its own table and
// commits — the same steady state as lockpath_bench's
// uncontended_grant_release, but with every request crossing the parallel
// fast path and its shard mutexes.
void BenchUncontended(int threads, int64_t txns_per_thread) {
  constexpr int kRowsPerTxn = 64;
  RunBest("uncontended_t" + std::to_string(threads), [&]() -> Measurement {
    Harness h = Harness::Make();
    h.lm->SetParallelMode(true);
    const double seconds = RunWorkers(threads, [&](int t) {
      const AppId app = t + 1;
      for (int64_t txn = 0; txn < txns_per_thread; ++txn) {
        for (int r = 0; r < kRowsPerTxn; ++r) {
          h.lm->Lock(app, RowResource(t, r), LockMode::kX);
        }
        h.lm->ReleaseAll(app);
      }
    });
    h.lm->SetParallelMode(false);
    return {threads * txns_per_thread * kRowsPerTxn, seconds};
  });
}

// Every worker takes compatible S locks on the same 64 rows of one table:
// all traffic lands on the same few shards and the same granted groups, so
// the striped mutexes serialize most of the work. This is the adversarial
// mix — the number to watch is how far below uncontended_tN it sits, not
// whether it scales.
void BenchHotShard(int threads, int64_t txns_per_thread) {
  constexpr int kRowsPerTxn = 64;
  RunBest("hot_shard_t" + std::to_string(threads), [&]() -> Measurement {
    Harness h = Harness::Make();
    h.lm->SetParallelMode(true);
    const double seconds = RunWorkers(threads, [&](int t) {
      const AppId app = t + 1;
      for (int64_t txn = 0; txn < txns_per_thread; ++txn) {
        for (int r = 0; r < kRowsPerTxn; ++r) {
          h.lm->Lock(app, RowResource(9, r), LockMode::kS);
        }
        h.lm->ReleaseAll(app);
      }
    });
    h.lm->SetParallelMode(false);
    return {threads * txns_per_thread * kRowsPerTxn, seconds};
  });
}

// The classic exclusive path (parallel mode off) on one thread: the
// reference the t1 rows are compared against to price the fast path's
// shard-mutex and atomic overhead when no parallelism is available.
void BenchSerialClassic(int64_t txns) {
  constexpr int kRowsPerTxn = 64;
  RunBest("serial_classic", [&]() -> Measurement {
    Harness h = Harness::Make();
    const Clock::time_point start = Clock::now();
    for (int64_t txn = 0; txn < txns; ++txn) {
      for (int r = 0; r < kRowsPerTxn; ++r) {
        h.lm->Lock(1, RowResource(0, r), LockMode::kX);
      }
      h.lm->ReleaseAll(1);
    }
    return {txns * kRowsPerTxn, SecondsSince(start)};
  });
}

double OpsPerSec(const Measurement& m) {
  return m.seconds > 0 ? static_cast<double>(m.ops) / m.seconds : 0.0;
}

// Writes the --json scaling report: raw rows plus per-mix speedup of each
// thread count over that mix's t1 row.
bool WriteJson(const std::string& path) {
  std::ofstream out(path);
  if (!out.is_open()) return false;
  char buf[160];
  out << "{\n  \"benchmark\": \"parallel_scale\",\n"
      << "  \"unit\": \"ops_per_sec\",\n"
      // Scaling numbers are only meaningful relative to the cores the run
      // actually had: on a 1-CPU host, flat throughput at 8 threads IS the
      // good outcome (no collapse under the striped mutexes).
      << "  \"host_cpus\": " << std::thread::hardware_concurrency() << ",\n"
      << "  \"runs\": {\n";
  for (size_t i = 0; i < g_results.size(); ++i) {
    const ResultRow& row = g_results[i];
    std::snprintf(buf, sizeof(buf),
                  "    \"%s\": {\"ops\": %lld, \"seconds\": %.6f, "
                  "\"ops_per_sec\": %.0f",
                  row.name.c_str(), static_cast<long long>(row.m.ops),
                  row.m.seconds, OpsPerSec(row.m));
    out << buf;
    if (row.attr.present) {
      // Why the speedup moved: which latch the wait time sat on, and how
      // often the fast path actually served requests.
      std::snprintf(buf, sizeof(buf),
                    ", \"contention\": {\"wait_ms\": %.3f, \"wait_share\": {",
                    row.attr.wait_ms);
      out << buf;
      for (int s = 0; s < kProfileSiteCount; ++s) {
        std::snprintf(buf, sizeof(buf), "\"%s\": %.3f%s",
                      ProfileSiteName(static_cast<ProfileSite>(s)),
                      row.attr.wait_share[s],
                      s + 1 < kProfileSiteCount ? ", " : "");
        out << buf;
      }
      std::snprintf(buf, sizeof(buf),
                    "}, \"fast_grants\": %llu, \"fast_bails\": %llu, "
                    "\"release_bails\": %llu, ",
                    static_cast<unsigned long long>(row.attr.fast_grants),
                    static_cast<unsigned long long>(row.attr.fast_bails),
                    static_cast<unsigned long long>(row.attr.release_bails));
      out << buf;
      std::snprintf(
          buf, sizeof(buf),
          "\"opt_validation_fails\": %llu, \"opt_pessimizes\": %llu}",
          static_cast<unsigned long long>(row.attr.opt_validation_fails),
          static_cast<unsigned long long>(row.attr.opt_pessimizes));
      out << buf;
    }
    out << "}" << (i + 1 < g_results.size() ? ",\n" : "\n");
  }
  out << "  },\n  \"speedup_over_one_thread\": {\n";
  std::map<std::string, double> base;  // mix -> t1 ops/sec
  for (const ResultRow& row : g_results) {
    const size_t cut = row.name.rfind("_t1");
    if (cut != std::string::npos && cut + 3 == row.name.size()) {
      base[row.name.substr(0, cut)] = OpsPerSec(row.m);
    }
  }
  std::vector<std::string> lines;
  for (const ResultRow& row : g_results) {
    const size_t cut = row.name.rfind("_t");
    if (cut == std::string::npos) continue;
    const auto it = base.find(row.name.substr(0, cut));
    if (it == base.end() || it->second <= 0) continue;
    std::snprintf(buf, sizeof(buf), "    \"%s\": %.2f", row.name.c_str(),
                  OpsPerSec(row.m) / it->second);
    lines.emplace_back(buf);
  }
  for (size_t i = 0; i < lines.size(); ++i) {
    out << lines[i] << (i + 1 < lines.size() ? ",\n" : "\n");
  }
  // Every parallel row against the classic exclusive path's throughput: the
  // t1 entries price the fast path's latch/atomic overhead on one thread,
  // the tN entries show what parallel mode buys (or costs) net of it.
  out << "  },\n  \"vs_serial_classic\": {\n";
  double classic = 0.0;
  for (const ResultRow& row : g_results) {
    if (row.name == "serial_classic") classic = OpsPerSec(row.m);
  }
  lines.clear();
  if (classic > 0) {
    for (const ResultRow& row : g_results) {
      if (row.name == "serial_classic") continue;
      std::snprintf(buf, sizeof(buf), "    \"%s\": %.2f", row.name.c_str(),
                    OpsPerSec(row.m) / classic);
      lines.emplace_back(buf);
    }
  }
  for (size_t i = 0; i < lines.size(); ++i) {
    out << lines[i] << (i + 1 < lines.size() ? ",\n" : "\n");
  }
  out << "  }\n}\n";
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
    } else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else {
      std::fprintf(stderr, "usage: parallel_scale [--quick] [--json PATH]\n");
      return 1;
    }
  }

  // Per-thread work is fixed, so t8 does 8x the t1 ops: scaling shows up as
  // flat seconds, not shrinking seconds.
  const int64_t txns = quick ? 200 : 20'000;
  const int64_t hot_txns = quick ? 100 : 4'000;
  std::printf("name,ops,seconds,ops_per_sec\n");
  BenchSerialClassic(txns);
  for (const int threads : {1, 2, 4, 8}) BenchUncontended(threads, txns);
  for (const int threads : {1, 2, 4, 8}) BenchHotShard(threads, hot_txns);

  if (!json_path.empty() && !WriteJson(json_path)) {
    std::fprintf(stderr, "parallel_scale: cannot write %s\n",
                 json_path.c_str());
    return 1;
  }
  return 0;
}
