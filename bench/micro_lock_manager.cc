// Microbenchmarks — cost of the primitive operations on the request path.
//
// The paper's synchronous growth and the MAXLOCKS refresh period (0x80)
// both exist because lock-request-path work must stay cheap; these
// benchmarks quantify the primitives: grant/release cycles, block list
// alloc/free, curve evaluation, tuner decisions, escalation, a wait and
// its grant cascade, deadlock detection, the per-tick checks, and the OLTP
// workload's row draws and construction.
#include <benchmark/benchmark.h>

#include <memory>
#include <vector>

#include "common/random.h"
#include "common/sim_clock.h"
#include "core/lock_memory_tuner.h"
#include "engine/catalog.h"
#include "lock/lock_manager.h"
#include "lock/maxlocks_curve.h"
#include "memory/block_list.h"
#include "workload/oltp_workload.h"

namespace locktune {
namespace {

std::unique_ptr<LockManager> MakeManager(EscalationPolicy* policy,
                                         int64_t blocks = 64,
                                         const SimClock* clock = nullptr) {
  LockManagerOptions o;
  o.initial_blocks = blocks;
  o.max_lock_memory = kGiB / 5;
  o.database_memory = kGiB;
  o.policy = policy;
  o.clock = clock;
  o.lock_timeout = clock != nullptr ? 10 * kSecond : -1;
  return std::make_unique<LockManager>(std::move(o));
}

void BM_BlockListAllocFree(benchmark::State& state) {
  BlockList list;
  for (int i = 0; i < 8; ++i) list.AddBlock();
  for (auto _ : state) {
    Result<LockBlock*> slot = list.AllocateSlot();
    benchmark::DoNotOptimize(slot);
    list.FreeSlot(slot.value());
  }
}
BENCHMARK(BM_BlockListAllocFree);

void BM_RowLockGrantRelease(benchmark::State& state) {
  FixedMaxlocksPolicy policy(98.0);
  auto lm = MakeManager(&policy);
  int64_t row = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        lm->Lock(1, RowResource(1, row), LockMode::kX));
    (void)lm->Release(1, RowResource(1, row));
    ++row;
  }
}
BENCHMARK(BM_RowLockGrantRelease);

void BM_RowLockSharedByManyApps(benchmark::State& state) {
  // Cost of joining an existing granted group of `range(0)` share holders.
  FixedMaxlocksPolicy policy(98.0);
  auto lm = MakeManager(&policy);
  const int holders = static_cast<int>(state.range(0));
  for (AppId app = 2; app < 2 + holders; ++app) {
    (void)lm->Lock(app, RowResource(1, 7), LockMode::kS);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(lm->Lock(1, RowResource(1, 7), LockMode::kS));
    (void)lm->Release(1, RowResource(1, 7));
  }
}
BENCHMARK(BM_RowLockSharedByManyApps)->Arg(1)->Arg(8)->Arg(64)->Arg(512);

void BM_WaitEnqueueDequeue(benchmark::State& state) {
  // App 2 blocks on app 1's X row lock; releasing app 1 runs the FIFO
  // grant cascade that dequeues and grants app 2.
  FixedMaxlocksPolicy policy(98.0);
  auto lm = MakeManager(&policy);
  for (auto _ : state) {
    (void)lm->Lock(1, RowResource(1, 7), LockMode::kX);
    benchmark::DoNotOptimize(lm->Lock(2, RowResource(1, 7), LockMode::kX));
    lm->ReleaseAll(1);
    lm->ReleaseAll(2);
  }
}
BENCHMARK(BM_WaitEnqueueDequeue);

void BM_ReleaseAllPerLock(benchmark::State& state) {
  // Amortized per-lock cost of commit-time bulk release.
  FixedMaxlocksPolicy policy(98.0);
  auto lm = MakeManager(&policy);
  const int64_t locks = state.range(0);
  for (auto _ : state) {
    state.PauseTiming();
    for (int64_t r = 0; r < locks; ++r) {
      (void)lm->Lock(1, RowResource(1, r), LockMode::kS);
    }
    state.ResumeTiming();
    lm->ReleaseAll(1);
  }
  state.SetItemsProcessed(state.iterations() * locks);
}
BENCHMARK(BM_ReleaseAllPerLock)->Arg(100)->Arg(10'000);

// Policy with an externally settable per-application limit, so the bench
// can arm an escalation precisely.
class SettableLimitPolicy : public EscalationPolicy {
 public:
  int64_t MaxStructuresPerApp(const LockMemoryState&) override {
    return limit_;
  }
  double CurrentPercent(const LockMemoryState&) override { return 100.0; }
  void set_limit(int64_t limit) { limit_ = limit; }

 private:
  int64_t limit_ = INT64_MAX;
};

void BM_Escalation(benchmark::State& state) {
  // Converting `range(0)` row locks into one table lock.
  const int64_t rows = state.range(0);
  for (auto _ : state) {
    state.PauseTiming();
    SettableLimitPolicy policy;
    auto lm = MakeManager(&policy, /*blocks=*/rows / kLocksPerBlock + 2);
    for (int64_t r = 0; r < rows; ++r) {
      (void)lm->Lock(1, RowResource(1, r), LockMode::kS);
    }
    policy.set_limit(1);  // the next request must escalate
    state.ResumeTiming();
    benchmark::DoNotOptimize(lm->Lock(1, RowResource(1, rows), LockMode::kS));
    state.PauseTiming();
    lm.reset();
    state.ResumeTiming();
  }
  state.SetItemsProcessed(state.iterations() * rows);
}
BENCHMARK(BM_Escalation)->Arg(1000)->Arg(50'000);

void BM_MaxlocksCurveEvaluate(benchmark::State& state) {
  MaxlocksCurve curve;
  double x = 0.0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(curve.Evaluate(x));
    x += 0.1;
    if (x > 100.0) x = 0.0;
  }
}
BENCHMARK(BM_MaxlocksCurveEvaluate);

void BM_TunerDecision(benchmark::State& state) {
  TuningParams params;
  LockMemoryTuner tuner(params);
  LockTunerInputs in;
  in.allocated = 64 * kMiB;
  in.used = 20 * kMiB;
  in.num_applications = 130;
  for (auto _ : state) {
    benchmark::DoNotOptimize(tuner.Tune(in));
  }
}
BENCHMARK(BM_TunerDecision);

void BM_DeadlockDetection(benchmark::State& state) {
  // Waits-for analysis with range(0) blocked applications (no cycle).
  FixedMaxlocksPolicy policy(98.0);
  auto lm = MakeManager(&policy);
  const int waiters = static_cast<int>(state.range(0));
  (void)lm->Lock(1, RowResource(1, 1), LockMode::kX);
  for (AppId app = 2; app < 2 + waiters; ++app) {
    (void)lm->Lock(app, RowResource(1, 1), LockMode::kX);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(lm->DetectDeadlocks());
  }
}
BENCHMARK(BM_DeadlockDetection)->Arg(10)->Arg(100)->Arg(1000);

void BM_DeadlockDetectionCyclic(benchmark::State& state) {
  // range(0) applications share S on one row and all convert to X: every
  // conversion waits for every other holder, a complete waits-for graph in
  // which half of the edges close a cycle and run the victim search.
  FixedMaxlocksPolicy policy(98.0);
  auto lm = MakeManager(&policy);
  const int apps = static_cast<int>(state.range(0));
  for (AppId app = 1; app <= apps; ++app) {
    (void)lm->Lock(app, RowResource(1, 1), LockMode::kS);
  }
  for (AppId app = 1; app <= apps; ++app) {
    (void)lm->Lock(app, RowResource(1, 1), LockMode::kX);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(lm->DetectDeadlocks());
  }
}
BENCHMARK(BM_DeadlockDetectionCyclic)->Arg(10)->Arg(100)->Arg(1000);

void BM_DeadlockDetectionCrowdedTable(benchmark::State& state) {
  // escalation_storm's shape: range(0) applications each hold IX on one
  // table and X on one of its rows. Four fifths of them convert the table
  // to X, the way an escalation does, and queue on its head; the rest queue
  // X requests for the first converter's row behind one another. Each
  // conversion waits for every other IX holder and each row request for
  // the row's holder and every request queued ahead of it.
  FixedMaxlocksPolicy policy(98.0);
  auto lm = MakeManager(&policy);
  const int apps = static_cast<int>(state.range(0));
  const int converters = apps * 4 / 5;
  for (AppId app = 1; app <= apps; ++app) {
    (void)lm->Lock(app, RowResource(1, app), LockMode::kX);
  }
  for (AppId app = 1; app <= converters; ++app) {
    (void)lm->Lock(app, TableResource(1), LockMode::kX);
  }
  for (AppId app = converters + 1; app <= apps; ++app) {
    (void)lm->Lock(app, RowResource(1, 1), LockMode::kX);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(lm->DetectDeadlocks());
  }
}
BENCHMARK(BM_DeadlockDetectionCrowdedTable)->Arg(128)->Arg(1024);

void BM_IdleTickChecks(benchmark::State& state) {
  // The deadlock and timeout checks every scenario tick runs, in their
  // common case: 256 applications hold grants under a clock and a 10 s
  // LOCKTIMEOUT, and none waits.
  FixedMaxlocksPolicy policy(98.0);
  SimClock clock;
  auto lm = MakeManager(&policy, /*blocks=*/64, &clock);
  for (AppId app = 1; app <= 256; ++app) {
    for (int r = 0; r < 4; ++r) {
      (void)lm->Lock(app, RowResource(app % 16, app * 8 + r), LockMode::kS);
    }
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(lm->DetectDeadlocks());
    benchmark::DoNotOptimize(lm->ExpireTimedOutWaiters());
  }
}
BENCHMARK(BM_IdleTickChecks);

void BM_OltpNextAccess(benchmark::State& state) {
  // One row draw of the default OLTP workload: the table pick, the Zipf
  // rank and the S/X choice. Every lock request of the figure scenarios
  // starts with one.
  const Catalog catalog = Catalog::TpccTpch();
  OltpWorkload workload(catalog, OltpOptions{});
  Rng rng(42);
  for (auto _ : state) {
    benchmark::DoNotOptimize(workload.NextAccess(rng));
  }
}
BENCHMARK(BM_OltpNextAccess);

void BM_OltpWorkloadConstruct(benchmark::State& state) {
  // Building the OLTP workload over the tpcc tables at catalog scale
  // range(0): the ζ sums of every table's Zipf generator dominate. Scale 100
  // puts five tables past the 2^24-term exact prefix.
  const Catalog catalog =
      Catalog::TpccTpch(static_cast<double>(state.range(0)));
  for (auto _ : state) {
    OltpWorkload workload(catalog, OltpOptions{});
    benchmark::DoNotOptimize(&workload);
  }
}
BENCHMARK(BM_OltpWorkloadConstruct)
    ->Arg(1)
    ->Arg(100)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace locktune

BENCHMARK_MAIN();
