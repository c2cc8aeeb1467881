// Ablation — the [minFreeLockMemory, maxFreeLockMemory] dead band (§3.3).
//
// The paper keeps 50-60 % of the lock memory free: the 50 % floor absorbs a
// 100 % burst without synchronous allocation, and the 10-point spread
// avoids constant resizing. This sweep runs a fluctuating OLTP load under
// different bands and reports resize churn, synchronous growth events, and
// memory overhead.
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
  bench::PrintHeader(
      "Ablation", "minFree/maxFree dead band sweep",
      "Heavy OLTP load (3000-lock transactions) oscillating 15 <-> 40 "
      "clients every 2 min for 10 min; 512 MB database.");

  struct Band {
    double min_free;
    double max_free;
    const char* note;
  };
  const Band bands[] = {
      {0.50, 0.60, "paper"},
      {0.50, 0.52, "narrow spread"},
      {0.20, 0.30, "little headroom"},
      {0.70, 0.80, "excess headroom"},
      {0.30, 0.70, "wide spread"},
  };

  std::printf("%8s %8s %14s %18s %18s %14s  %s\n", "minFree", "maxFree",
              "resizes", "sync_grow_blocks", "mean_alloc_MB",
              "mean_used_MB", "note");
  struct Row {
    int resizes;
    int64_t sync_blocks;
    double mean_alloc_mb;
  };
  std::vector<Row> rows;
  for (const Band& band : bands) {
    DatabaseOptions o;
    o.params.database_memory = 512 * kMiB;
    o.params.min_free_fraction = band.min_free;
    o.params.max_free_fraction = band.max_free;
    o.params.min_structures_per_app = 0;  // isolate the band's effect
    std::unique_ptr<Database> db = Database::Open(o).value();
    OltpOptions heavy;
    heavy.mean_locks_per_txn = 3000;
    heavy.locks_per_tick = 150;
    OltpWorkload oltp(db->catalog(), heavy);
    ClientTimeline tl;
    tl.workload = &oltp;
    tl.steps = {{0, 15}};
    for (int cycle = 1; cycle <= 4; ++cycle) {
      tl.steps.push_back({cycle * 2 * kMinute, cycle % 2 == 1 ? 40 : 15});
    }
    ScenarioOptions so;
    so.duration = 10 * kMinute;
    ScenarioRunner runner(db.get(), {tl}, so);
    runner.Run();

    // Resize churn: count tuning passes whose action changed the size.
    int resizes = 0;
    for (const StmmIntervalRecord& rec : db->stmm()->history()) {
      if (rec.action == LockTunerAction::kGrow ||
          rec.action == LockTunerAction::kShrink ||
          rec.action == LockTunerAction::kDouble) {
        ++resizes;
      }
    }
    const TimeSeries& alloc =
        runner.series().Get(ScenarioRunner::kLockAllocatedMb);
    const TimeSeries& used =
        runner.series().Get(ScenarioRunner::kLockUsedMb);
    const Row row{resizes, db->locks().stats().sync_growth_blocks,
                  bench::MeanOver(alloc, 0, alloc.size())};
    std::printf("%7.0f%% %7.0f%% %14d %18lld %18.2f %14.2f  %s\n",
                band.min_free * 100, band.max_free * 100, row.resizes,
                static_cast<long long>(row.sync_blocks), row.mean_alloc_mb,
                bench::MeanOver(used, 0, used.size()), band.note);
    rows.push_back(row);
  }
  std::printf(
      "\nreading: little headroom forces more synchronous growth during "
      "surges and excess headroom carries more memory, while the paper's "
      "50-60%% band sits between them. A 2-point spread resizes about as "
      "often as the paper's 10-point one under this load: the constant "
      "resizing 3.3 guards against does not show here.\n");

  std::printf("\nsummary:\n");
  const Row& paper = rows[0];
  const Row& narrow = rows[1];
  const Row& little = rows[2];
  const Row& excess = rows[3];
  bench::Claim("little headroom forces synchronous growth",
               "minFree absorbs a burst",
               std::to_string(little.sync_blocks) + " blocks vs " +
                   std::to_string(paper.sync_blocks) + " (paper band)",
               bench::AtLeast(little.sync_blocks - paper.sync_blocks, 1));
  bench::Claim("excess headroom carries more memory", "wasted memory",
               bench::Ratio(excess.mean_alloc_mb / paper.mean_alloc_mb) +
                   " the paper band's mean",
               bench::AtLeast(excess.mean_alloc_mb / paper.mean_alloc_mb, 1.0));
  // Known deviations: the paper's "constant resizing" is not reproduced;
  // only the direction holds.
  bench::Claim("a narrow spread resizes at least as often",
               "spread avoids resizing",
               std::to_string(narrow.resizes) + " vs " +
                   std::to_string(paper.resizes) + " (paper band)",
               bench::AtLeast(narrow.resizes - paper.resizes, 0));
  return bench::ExitStatus();
}
