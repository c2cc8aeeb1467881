// Figures 3 & 4 — the paper's two background illustrations, regenerated
// from the live data structures.
//
// Figure 3 (lock queuing, §2.3): four applications touch one row — two
// share-mode readers join the granted group, an exclusive writer chains
// behind them, a fourth share request queues behind the writer (no
// overtaking) — and the chain drains in FIFO "post" order as holders
// release. The trace below is the lock manager's `lock_event` records, as
// a trace sink (telemetry/trace.h) receives them.
//
// Figure 4 (Oracle page memory, §2.3): the on-page layout of the ITL
// model — lock bytes referencing ITL slots, slots added on demand and
// never reclaimed.
#include <cstdio>
#include <string>

#include "baseline/oracle_itl.h"
#include "bench/bench_util.h"
#include "common/units.h"
#include "lock/lock_manager.h"
#include "telemetry/trace.h"

using namespace locktune;

namespace {

const char* Outcome(LockOutcome o) {
  switch (o) {
    case LockOutcome::kGranted:
      return "GRANTED";
    case LockOutcome::kWaiting:
      return "WAITS";
    case LockOutcome::kOutOfMemory:
      return "OOM";
  }
  return "?";
}

}  // namespace

int main() {
  bench::PrintHeader("Figures 3 & 4", "Lock queuing and Oracle page memory",
                     "Traces generated from the live lock structures.");

  // ---- Figure 3 ----
  std::printf("Figure 3 — lock queuing on row_x:\n");
  FixedMaxlocksPolicy policy(90.0);
  LockManagerOptions opts;
  opts.initial_blocks = 4;
  opts.max_lock_memory = 8 * kMiB;
  opts.database_memory = 64 * kMiB;
  opts.policy = &policy;
  LockManager lm(std::move(opts));
  MemoryTraceSink events;
  lm.set_trace_sink(&events);
  const ResourceId row_x = RowResource(1, 42);

  struct Step {
    AppId app;
    LockMode mode;
    const char* narrative;
  };
  const Step steps[] = {
      {1, LockMode::kS, "app_1 reads row_x: share lock"},
      {2, LockMode::kS, "app_2 reads row_x: shares the lock object"},
      {3, LockMode::kX, "app_3 wants exclusive: chains behind the group"},
      {4, LockMode::kS, "app_4 wants share: queues up behind app_3"},
  };
  int shared_grants = 0;  // of app_1 and app_2
  for (const Step& s : steps) {
    const LockResult r = lm.Lock(s.app, row_x, s.mode);
    if (s.app <= 2 && r.outcome == LockOutcome::kGranted) ++shared_grants;
    std::printf("  app_%d requests %-2s -> %-7s  (%s)\n", s.app,
                std::string(ModeName(s.mode)).c_str(), Outcome(r.outcome),
                s.narrative);
  }
  std::printf("  app_1 and app_2 release:\n");
  lm.ReleaseAll(1);
  lm.ReleaseAll(2);
  std::printf("    app_3 blocked=%d  (X granted in arrival order)\n",
              lm.IsBlocked(3));
  std::printf("    app_4 blocked=%d  (still behind app_3 - FIFO post)\n",
              lm.IsBlocked(4));
  lm.ReleaseAll(3);
  std::printf("  app_3 releases:\n    app_4 blocked=%d, holds %s\n",
              lm.IsBlocked(4),
              std::string(ModeName(lm.HeldMode(4, row_x))).c_str());
  std::printf("\n  lock-event trace:\n");
  std::string wait_end_order;  // the apps' WAIT_END records, in trace order
  for (const TraceRecord& rec : events.records()) {
    std::printf("    %s\n", rec.ToJson().c_str());
    if (*rec.Find("event") != "\"WAIT_END\"") continue;
    wait_end_order +=
        (wait_end_order.empty() ? "app_" : " then app_") + *rec.Find("app");
  }

  // ---- Figure 4 ----
  std::printf("\nFigure 4 — Oracle page memory (ITL) on one data page:\n");
  OracleItlOptions itl_opts;
  itl_opts.rows_per_page = 8;
  itl_opts.initial_itl_slots = 2;
  itl_opts.max_itl_slots = 4;
  OracleItlSimulator itl(itl_opts);
  std::printf("  page: %d rows, %d initial ITL slots (max %d)\n",
              itl_opts.rows_per_page, itl_opts.initial_itl_slots,
              itl_opts.max_itl_slots);
  const auto lock_row = [&](TxnId txn, int64_t row) {
    const auto out = itl.LockRow(txn, 0, row);
    const char* label =
        out == OracleItlSimulator::RowLockOutcome::kGranted ? "lock byte set"
        : out == OracleItlSimulator::RowLockOutcome::kWaitItl
            ? "WAITS: ITL full (row itself is free!)"
            : "WAITS: row busy";
    std::printf("  txn %lld locks row %lld -> %s\n",
                static_cast<long long>(txn), static_cast<long long>(row),
                label);
  };
  lock_row(101, 0);
  lock_row(102, 1);
  lock_row(103, 2);  // grows the ITL to slot 3
  lock_row(104, 3);  // grows the ITL to slot 4 (the max)
  lock_row(105, 4);  // ITL exhausted: page-level blocking on a free row
  std::printf("  permanent ITL growth: %lld bytes (reclaimed only by "
              "table reorganization)\n",
              static_cast<long long>(itl.ExtraItlBytes()));
  itl.Commit(101);
  std::printf("  txn 101 commits; its lock byte stays set:\n");
  const int64_t cleanouts_at_commit = itl.stats().cleanouts;
  lock_row(106, 0);  // pays the cleanout
  const int64_t visitor_cleanouts =
      itl.stats().cleanouts - cleanouts_at_commit;
  std::printf("  deferred cleanouts so far: %lld (the visitor paid for "
              "txn 101's exit)\n",
              static_cast<long long>(itl.stats().cleanouts));

  std::printf("\nsummary:\n");
  bench::Claim("Fig 3: compatible requests share the lock",
               "app_1+app_2 share",
               std::to_string(shared_grants) + " of 2 GRANTED",
               bench::AtLeast(shared_grants, 2));
  // 1 when the waits ended in the order they were requested.
  bench::Claim("Fig 3: requesters serviced in request order",
               "post, no queue jumping", "WAIT_END " + wait_end_order,
               bench::AtLeast(wait_end_order == "app_3 then app_4", 1));
  bench::Claim("Fig 4: ITL exhaustion blocks free rows",
               "page-level locking in effect",
               std::to_string(itl.stats().itl_waits) + " ITL wait(s)",
               bench::AtLeast(itl.stats().itl_waits, 1));
  // One committed transaction left one lock byte; its next visitor, not
  // the commit, clears it.
  bench::Claim("Fig 4: lock bytes outlive commit", "cleanout by next visitor",
               std::to_string(visitor_cleanouts) + " cleanout paid by txn 106",
               bench::Within(visitor_cleanouts, 1, 1));
  return bench::ExitStatus();
}
