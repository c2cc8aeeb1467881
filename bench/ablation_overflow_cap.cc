// Ablation — C1, the overflow consumption cap (§3.2).
//
// Synchronous lock growth may take at most C1 = 65 % of the database
// overflow memory, "so that lock memory cannot consume all of the available
// database overflow memory which represents the last available memory
// reserve". The sweep replays the Figure 11 burst under different C1 values
// and reports how constrained growth was (escalations + doubling passes)
// and how far the overflow reserve was drawn down.
#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "engine/database.h"
#include "workload/scenario.h"
#include "workload/scenario_config.h"

using namespace locktune;

int main() {
  bench::PrintHeader(
      "Ablation", "overflow cap C1 sweep (Fig 11 burst)",
      "60 OLTP clients + 800k-lock DSS burst at t=120 s; 1 GB database; "
      "C1 in {0.25, 0.45, 0.65 (paper), 0.85, 1.0}.");

  std::printf("%6s %14s %16s %18s %20s\n", "C1", "escalations",
              "double_passes", "min_overflow_MB", "burst_settle_alloc_MB");
  struct Row {
    int64_t escalations;
    int double_passes;
    double min_overflow_mb;
    double settle_alloc_mb;
  };
  std::vector<Row> rows;
  // The Figure 11 scenario, with the burst at t=120 s and a 5 min report.
  ScenarioSpec spec = bench::LoadScenario("fig11_dss.conf");
  spec.runner.duration = 6 * kMinute;
  spec.workloads[1].client_steps = {{2 * kMinute, 1}};
  spec.workloads[1].scan.hold_time = 5 * kMinute;
  for (double c1 : {0.25, 0.45, 0.65, 0.85, 1.0}) {
    spec.database.params.overflow_cap_c1 = c1;
    std::unique_ptr<LoadedScenario> loaded =
        LoadedScenario::Create(spec).value();
    Database& db = loaded->database();
    ScenarioRunner& runner = loaded->runner();
    runner.Run();

    int double_passes = 0;
    for (const StmmIntervalRecord& rec : db.stmm()->history()) {
      if (rec.action == LockTunerAction::kDouble) ++double_passes;
    }
    const Row row{
        db.locks().stats().escalations, double_passes,
        runner.series().Get(ScenarioRunner::kOverflowMb).MinValue(),
        runner.series().Get(ScenarioRunner::kLockAllocatedMb).Last()};
    std::printf("%6.2f %14lld %16d %18.1f %20.1f\n", c1,
                static_cast<long long>(row.escalations), row.double_passes,
                row.min_overflow_mb, row.settle_alloc_mb);
    rows.push_back(row);
  }
  std::printf(
      "\nreading: a small C1 denies synchronous growth mid-burst — "
      "escalations appear and the doubling rule has to climb back over "
      "several intervals. From 0.65 up the burst is absorbed without an "
      "escalation and the overflow reserve bottoms out at the same level: "
      "this burst never asks for more than 0.65 of the overflow, so raising "
      "C1 to 1.0 neither helps nor drains the reserve §3.2 protects.\n");

  std::printf("\nsummary:\n");
  const Row& tight = rows[0];
  const Row& low = rows[1];
  const Row& paper = rows[2];
  bench::Claim("a small C1 escalates mid-burst", "escalations when capped",
               std::to_string(tight.escalations) + " and " +
                   std::to_string(low.escalations) + " at C1 0.25, 0.45",
               bench::AtLeast(std::min(tight.escalations, low.escalations), 1));
  bench::Claim("then doubling recovers (3.3)", "double each interval",
               std::to_string(tight.double_passes) + " and " +
                   std::to_string(low.double_passes) + " doubling passes",
               bench::AtLeast(std::min(tight.double_passes, low.double_passes),
                              1));
  bench::Claim("C1 = 0.65 absorbs the burst", "no escalation",
               std::to_string(paper.escalations) + " escalations",
               bench::AtMost(paper.escalations, 0));
  // Locks may take at most C1 = 65 % of the overflow, whose goal is 10 % of
  // the 1 GB database, so at least 35 % of that goal stays free.
  bench::Claim("C1 = 0.65 keeps a reserve (3.2)", ">= 35% of overflow",
               bench::Mb(paper.min_overflow_mb) + " at the lowest",
               bench::AtLeast(paper.min_overflow_mb, 0.35 * 0.10 * 1024.0));
  const double extra = rows[4].settle_alloc_mb - paper.settle_alloc_mb;
  bench::Claim("C1 = 1.0 gains nothing", "0.65 suffices",
               bench::Mb(extra) + " more settled lock memory",
               bench::AtMost(extra, 0.0));
  return bench::ExitStatus();
}
