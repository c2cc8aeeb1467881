// Ablation — the asynchronous shrink rate δ_reduce (§3.4).
//
// The paper chooses a *slow* 5 %/interval decay: peak lock demand should
// not cause permanent reservation, but "the slow reduction stabilizes the
// control of the heap allocation". The sweep runs steady load, a 77 % client
// drop, and a rebound, and reports per δ:
//   * steady churn: total allocation movement while demand is stable
//     (aggressive decay overreacts to transient dips);
//   * shrink steps and byte-seconds of overhead while decaying;
//   * recovery: how long after the rebound until the allocation is back.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "engine/database.h"
#include "workload/oltp_workload.h"
#include "workload/scenario.h"

using namespace locktune;

int main() {
  constexpr TimeMs kDropAt = 2 * kMinute;
  constexpr TimeMs kReboundAt = 7 * kMinute;
  bench::PrintHeader(
      "Ablation", "delta_reduce sweep (Fig 12 scenario + rebound)",
      "40 heavy clients (3000-lock transactions) steady, -> 8 at t=120 s, "
      "-> 40 at t=420 s; 512 MB database; delta_reduce in "
      "{1%, 5% (paper), 10%, 25%, 50%}.");

  std::printf("%8s %12s %14s %22s %12s %14s\n", "delta", "steady_MB",
              "shrink_steps", "left_at_rebound_pct", "recovery_s",
              "escalations");
  const double deltas[] = {0.01, 0.05, 0.10, 0.25, 0.50};
  struct Row {
    int shrink_steps;
    double left_pct;
    double cut_beyond_delta_mb;  // worst cut past delta x level
  };
  std::vector<Row> rows;
  for (double delta : deltas) {
    DatabaseOptions o;
    o.params.database_memory = 512 * kMiB;
    o.params.delta_reduce = delta;
    // Heavy transactions so the steady allocation sits far above the
    // per-application minimum — otherwise the clamp, not delta_reduce,
    // dictates the decay.
    o.params.min_structures_per_app = 0;
    std::unique_ptr<Database> db = Database::Open(o).value();
    OltpOptions heavy;
    heavy.mean_locks_per_txn = 3000;
    heavy.locks_per_tick = 150;
    OltpWorkload oltp(db->catalog(), heavy);
    ClientTimeline tl;
    tl.workload = &oltp;
    tl.steps = {{0, 40}, {kDropAt, 8}, {kReboundAt, 40}};
    ScenarioOptions so;
    so.duration = 10 * kMinute;
    ScenarioRunner runner(db.get(), {tl}, so);
    runner.Run();

    const TimeSeries& alloc =
        runner.series().Get(ScenarioRunner::kLockAllocatedMb);
    const auto at = [&](size_t i) { return alloc.points()[i].value; };
    const size_t drop_idx = kDropAt / kSecond;
    const size_t rebound_idx = kReboundAt / kSecond;

    const double steady = bench::MeanOver(alloc, drop_idx - 60, drop_idx);

    // Decay shape between the drop and the rebound.
    int shrink_steps = 0;
    double cut_beyond_delta_mb = 0.0;
    for (size_t i = drop_idx + 1; i < rebound_idx; ++i) {
      if (at(i) < at(i - 1) - 1e-9) {
        ++shrink_steps;
        cut_beyond_delta_mb = std::max(
            cut_beyond_delta_mb, at(i - 1) - at(i) - delta * at(i - 1));
      }
    }
    // How much of the peak reservation survives until the rebound: the
    // slow-decay cost the paper accepts for stability.
    const double left_pct = 100.0 * at(rebound_idx - 1) / steady;

    // Recovery after the rebound: back to 95 % of the old steady level.
    TimeMs recovered = -1;
    for (size_t i = rebound_idx; i < alloc.size(); ++i) {
      if (at(i) >= 0.95 * steady) {
        recovered = alloc.points()[i].time_ms - kReboundAt;
        break;
      }
    }
    std::printf("%7.0f%% %12.2f %14d %22.1f %12lld %14lld\n", delta * 100.0,
                steady, shrink_steps, left_pct,
                static_cast<long long>(recovered / 1000),
                static_cast<long long>(db->locks().stats().escalations));
    rows.push_back({shrink_steps, left_pct, cut_beyond_delta_mb});
  }
  std::printf(
      "\nreading: the slower the decay, the more of the peak reservation is "
      "still held when load returns (memory other heaps could have used); "
      "from 10%% up every rate reaches the maxFree floor before the rebound, "
      "25-50%% in two or three cuts that give up the shock absorber the free "
      "band provides. 5%% cuts a small step every interval of the slump and "
      "is still releasing memory at the rebound — the reclamation 3.4 trades "
      "for stability.\n");

  std::printf("\nsummary:\n");
  double left_rise = 0.0;  // largest increase from one rate to the next
  for (size_t i = 1; i < rows.size(); ++i) {
    left_rise = std::max(left_rise, rows[i].left_pct - rows[i - 1].left_pct);
  }
  char left[64];
  std::snprintf(left, sizeof(left), "%.1f%% left at 1%%, %.1f%% at 50%%",
                rows.front().left_pct, rows.back().left_pct);
  bench::Claim("slower decay keeps more memory (3.4)",
               "reserve falls as delta rises", left,
               bench::AtMost(left_rise, 0.0));
  // The slump spans ten 30 s tuning passes; at 5 % each one cuts, by at
  // most delta_reduce of the level plus one 128 KB block of rounding.
  const Row& paper = rows[1];
  bench::Claim("5% cuts every interval of the slump", "slow decay",
               std::to_string(paper.shrink_steps) + " shrink steps",
               bench::AtLeast(paper.shrink_steps,
                              (kReboundAt - kDropAt) / (30 * kSecond)));
  bench::Claim("5% steps stay small", "5% per interval",
               bench::Mb(paper.cut_beyond_delta_mb) + " past 5% at worst",
               bench::AtMost(paper.cut_beyond_delta_mb, bench::kBlockMb));
  bench::Claim("25-50% slash the heap in a few cuts", "1-3 cuts",
               std::to_string(rows[3].shrink_steps) + " and " +
                   std::to_string(rows[4].shrink_steps) + " shrink steps",
               bench::AtMost(std::max(rows[3].shrink_steps,
                                      rows[4].shrink_steps),
                             3));
  return bench::ExitStatus();
}
