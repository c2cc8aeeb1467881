// lockpath_bench — wall-clock microbenchmarks of the lock-manager hot paths.
//
// Unlike the fig*/ablation benches (which replay paper experiments in
// virtual time), this harness measures real elapsed time of the lock
// subsystem itself, so hot-path regressions show up as ops/sec drops:
//
//   uncontended_grant_release  batched row grants + commit-time ReleaseAll
//   contended_shared           compatible S grants sharing lock heads
//   wait_enqueue_dequeue       block on X conflict, release, grant cascade
//   escalation_burst           quota-driven escalation + row-lock sweep
//   idle_tick                  DetectDeadlocks + ExpireTimedOutWaiters with
//                              many connected apps and zero waiters
//   fig9_wallclock             full Figure 9 scenario (skipped by --quick)
//
// Each microbenchmark reports its best of five repetitions (see RunBest).
// Output is machine-readable CSV (name,ops,seconds,ops_per_sec) on stdout.
// These are microbenchmarks for attributing a change; performance claims
// use the benchmark in perfbench/ (perfbench/README.md). `--quick` shrinks
// iteration counts to smoke-test levels (used by the bench_smoke ctest
// entry).
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <memory>

#include "common/sim_clock.h"
#include "common/units.h"
#include "engine/database.h"
#include "lock/escalation_policy.h"
#include "lock/lock_manager.h"
#include "workload/oltp_workload.h"
#include "workload/scenario.h"

using namespace locktune;

namespace {

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

void Report(const char* name, int64_t ops, double seconds) {
  std::printf("%s,%lld,%.6f,%.0f\n", name, static_cast<long long>(ops),
              seconds, seconds > 0 ? static_cast<double>(ops) / seconds : 0.0);
}

// Each microbenchmark's timed loop runs kReps times and the fastest
// repetition is reported: the minimum is the least-disturbed run, which
// strips scheduler noise that otherwise swamps sub-second loops. The first
// repetition doubles as warm-up (cold caches make it the slowest, so the
// minimum naturally excludes it).
constexpr int kReps = 5;

// `body()` performs one timed repetition and returns the ops it completed.
template <typename Body>
void RunBest(const char* name, Body body) {
  int64_t best_ops = 0;
  double best_seconds = 0.0;
  for (int rep = 0; rep < kReps; ++rep) {
    const Clock::time_point start = Clock::now();
    const int64_t ops = body();
    const double seconds = SecondsSince(start);
    if (rep == 0 || seconds * static_cast<double>(best_ops) <
                        best_seconds * static_cast<double>(ops)) {
      best_ops = ops;
      best_seconds = seconds;
    }
  }
  Report(name, best_ops, best_seconds);
}

struct Harness {
  std::unique_ptr<EscalationPolicy> policy;
  std::unique_ptr<LockManager> lm;

  // `blocks` 128 KB blocks, FixedMaxlocksPolicy(`maxlocks_percent`), and an
  // always-granting growth callback so the block list never hard-fails.
  static Harness Make(int64_t blocks, double maxlocks_percent,
                      const SimClock* clock = nullptr,
                      DurationMs lock_timeout = -1) {
    Harness h;
    h.policy = std::make_unique<FixedMaxlocksPolicy>(maxlocks_percent);
    LockManagerOptions opts;
    opts.initial_blocks = blocks;
    opts.max_lock_memory = 256 * kMiB;
    opts.database_memory = kGiB;
    opts.policy = h.policy.get();
    opts.clock = clock;
    opts.lock_timeout = lock_timeout;
    h.lm = std::make_unique<LockManager>(std::move(opts));
    return h;
  }
};

// One app repeatedly grants a batch of X row locks and commits. The rows
// repeat across transactions, so after warm-up every head comes from the
// pool and every probe hits warmed slot arrays — the steady state the
// allocator work targets.
void BenchUncontended(int64_t txns) {
  constexpr int kRowsPerTxn = 64;
  Harness h = Harness::Make(/*blocks=*/64, /*maxlocks_percent=*/98.0);
  RunBest("uncontended_grant_release", [&] {
    int64_t ops = 0;
    for (int64_t t = 0; t < txns; ++t) {
      for (int r = 0; r < kRowsPerTxn; ++r) {
        h.lm->Lock(1, RowResource(1, r), LockMode::kX);
      }
      h.lm->ReleaseAll(1);
      ops += kRowsPerTxn;
    }
    return ops;
  });
}

// Eight apps take compatible S locks on the same rows, so every head holds
// a multi-member granted group; commits interleave.
void BenchContendedShared(int64_t rounds) {
  constexpr int kApps = 8;
  constexpr int kRowsPerTxn = 32;
  Harness h = Harness::Make(/*blocks=*/64, /*maxlocks_percent=*/98.0);
  RunBest("contended_shared", [&] {
    int64_t ops = 0;
    for (int64_t t = 0; t < rounds; ++t) {
      for (int app = 1; app <= kApps; ++app) {
        for (int r = 0; r < kRowsPerTxn; ++r) {
          h.lm->Lock(app, RowResource(1, r), LockMode::kS);
        }
      }
      for (int app = 1; app <= kApps; ++app) h.lm->ReleaseAll(app);
      ops += kApps * kRowsPerTxn;
    }
    return ops;
  });
}

// App 2 blocks on app 1's X row lock every iteration; releasing app 1
// drives the FIFO grant cascade that dequeues and grants app 2.
void BenchWaitEnqueueDequeue(int64_t rounds) {
  Harness h = Harness::Make(/*blocks=*/64, /*maxlocks_percent=*/98.0);
  RunBest("wait_enqueue_dequeue", [&] {
    int64_t ops = 0;
    for (int64_t t = 0; t < rounds; ++t) {
      h.lm->Lock(1, RowResource(1, 7), LockMode::kX);
      h.lm->Lock(2, RowResource(1, 7), LockMode::kX);  // blocks
      h.lm->ReleaseAll(1);                             // grants app 2
      h.lm->ReleaseAll(2);
      ops += 2;
    }
    return ops;
  });
}

// A 1 % MAXLOCKS quota over one block (2048 slots) forces an escalation
// every ~20 structures: each iteration sweeps the app's row locks into a
// table lock (the ReleaseRowLocksOnTable / held-list hot path).
void BenchEscalationBurst(int64_t rounds) {
  constexpr int kRowsPerTxn = 48;
  Harness h = Harness::Make(/*blocks=*/1, /*maxlocks_percent=*/1.0);
  RunBest("escalation_burst", [&] {
    int64_t ops = 0;
    for (int64_t t = 0; t < rounds; ++t) {
      for (int r = 0; r < kRowsPerTxn; ++r) {
        h.lm->Lock(1, RowResource(1, r), LockMode::kX);
      }
      h.lm->ReleaseAll(1);
      ops += kRowsPerTxn;
    }
    return ops;
  });
  if (h.lm->stats().escalations == 0) {
    std::fprintf(stderr, "escalation_burst: no escalations happened; "
                 "quota mis-sized\n");
  }
}

// The per-tick maintenance pass with a populated but quiescent system:
// many connected apps holding grants, a clock and LOCKTIMEOUT configured,
// and zero waiters. This is the common case of the 100 ms scenario tick.
void BenchIdleTick(int64_t ticks) {
  constexpr int kApps = 256;
  SimClock clock;
  Harness h = Harness::Make(/*blocks=*/64, /*maxlocks_percent=*/98.0, &clock,
                            /*lock_timeout=*/10 * kSecond);
  for (int app = 1; app <= kApps; ++app) {
    for (int r = 0; r < 4; ++r) {
      h.lm->Lock(app, RowResource(app % 16, app * 8 + r), LockMode::kS);
    }
  }
  RunBest("idle_tick", [&] {
    for (int64_t t = 0; t < ticks; ++t) {
      h.lm->DetectDeadlocks();
      h.lm->ExpireTimedOutWaiters();
    }
    return ticks;
  });
}

// End-to-end anchor: the Figure 9 ramp scenario in real elapsed seconds
// (ops = committed transactions). Catches regressions the microbenchmarks
// miss because they compose every path at realistic ratios.
void BenchFig9Wallclock() {
  DatabaseOptions o;
  o.params.database_memory = 512 * kMiB;
  o.params.initial_locklist_pages = 96;
  std::unique_ptr<Database> db = Database::Open(o).value();
  OltpWorkload oltp(db->catalog(), OltpOptions{});
  ClientTimeline tl;
  tl.workload = &oltp;
  tl.steps = {{0, 1},
              {20 * kSecond, 20},
              {40 * kSecond, 50},
              {60 * kSecond, 90},
              {90 * kSecond, 130}};
  ScenarioOptions so;
  so.duration = 10 * kMinute;
  ScenarioRunner runner(db.get(), {tl}, so);
  const Clock::time_point start = Clock::now();
  runner.Run();
  Report("fig9_wallclock", runner.total_commits(), SecondsSince(start));
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
    } else {
      std::fprintf(stderr, "usage: lockpath_bench [--quick]\n");
      return 1;
    }
  }

  std::printf("name,ops,seconds,ops_per_sec\n");
  BenchUncontended(quick ? 2'000 : 50'000);
  BenchContendedShared(quick ? 500 : 10'000);
  BenchWaitEnqueueDequeue(quick ? 2'000 : 50'000);
  BenchEscalationBurst(quick ? 500 : 10'000);
  BenchIdleTick(quick ? 10'000 : 500'000);
  if (!quick) BenchFig9Wallclock();
  return 0;
}
