// Figure 11 — lock memory adaptation when a DSS reporting query with
// massive row-locking requirements is injected into a steady OLTP system.
//
// 60 OLTP clients run in steady state (lock memory settles at the 2 MB
// minimum — 0.2 % of database memory, analogous to the paper's 8 MB =
// 0.15 %). At t=330 s a single reporting query begins scanning
// tpch_lineitem with S row locks. Lock memory grows by an order of tens
// within ~30 s, peaking around 10 % of database memory, with no exclusive
// escalations: the adaptive lockPercentPerApplication lets the single
// reader dominate lock memory because total consumption stays far from
// maxLockMemory.
#include <cstdio>
#include <memory>

#include "bench/bench_util.h"
#include "engine/database.h"
#include "workload/scenario.h"
#include "workload/scenario_config.h"

using namespace locktune;

int main() {
  bench::PrintHeader(
      "Figure 11",
      "Lock memory adaptation for OLTP with sudden injection of DSS",
      "60 OLTP clients steady for 5.5 min; a reporting query scanning "
      "800 k rows (S locks, 30 000/s) injected at t=330 s; 1 GB database.");

  // The run is scenarios/fig11_dss.conf, the file locktune_sim runs.
  const ScenarioSpec spec = bench::LoadScenario("fig11_dss.conf");
  std::unique_ptr<LoadedScenario> loaded = LoadedScenario::Create(spec).value();
  Database& db = loaded->database();
  ScenarioRunner& runner = loaded->runner();
  runner.Run();
  const WorkloadSpec& dss = spec.workloads[1];
  const TimeMs inject_at = dss.client_steps.front().first;

  std::printf("\nseries:\n");
  bench::PrintSeries(runner.series(),
                     {ScenarioRunner::kLockAllocatedMb,
                      ScenarioRunner::kLockUsedMb,
                      ScenarioRunner::kThroughputTps,
                      ScenarioRunner::kMaxlocksPercent},
                     /*stride=*/15);

  const TimeSeries& alloc =
      runner.series().Get(ScenarioRunner::kLockAllocatedMb);
  const size_t inject_idx = static_cast<size_t>(inject_at / kSecond) - 1;
  const double steady = bench::MeanOver(alloc, inject_idx - 60, inject_idx);
  const double peak = alloc.MaxValue();
  const double dbmem_mb =
      static_cast<double>(spec.database.params.database_memory) /
      (1024.0 * 1024.0);
  const TimeMs grew = alloc.FirstTimeAtLeast(steady * 20.0);
  const TimeSeries& tps = runner.series().Get(ScenarioRunner::kThroughputTps);
  const double tps_before = bench::MeanOver(tps, inject_idx - 60, inject_idx);
  const double tps_end = bench::MeanOver(tps, alloc.size() - 120, alloc.size());
  // Application 61: the DSS client connects after the 60 OLTP clients.
  const int64_t dss_held = db.locks().HeldStructures(61);

  std::printf("\nsummary:\n");
  // Known deviations: the floor here is the 2 MB minLockMemory of 60
  // clients, 0.20 % of this 1 GB database, against the paper's 0.15 %.
  bench::Claim("steady-state lock memory before injection",
               "8 MB = 0.15% of memory",
               bench::Mb(steady) + " = " +
                   std::to_string(100.0 * steady / dbmem_mb) + "%",
               bench::Within(100.0 * steady / dbmem_mb, 0.15, 0.20));
  // Known deviations: the paper's 60x over a 0.15 % floor is 45x over this
  // 0.20 % floor, so the growth may fall to 45x.
  bench::Claim("lock memory growth factor", "~60x",
               bench::Ratio(peak / steady),
               bench::Within(peak / steady, 60.0 * 0.15 / 0.20, 1.1 * 60.0));
  // "~10 %" is read off the paper's plot: within a point of it.
  bench::Claim("peak as share of database memory", "~10%",
               std::to_string(100.0 * peak / dbmem_mb) + "%",
               bench::Within(100.0 * peak / dbmem_mb, 9.0, 11.0));
  // The 20x point within "~25 s", read as one 30 s tuning interval.
  bench::Claim(
      "growth speed", "60x within ~25 s",
      grew < 0 ? "n/a"
               : std::to_string((grew - inject_at) / 1000) +
                     " s to 20x after injection",
      bench::Within(grew - inject_at, 0, 30 * kSecond));
  bench::Claim("exclusive lock escalations", "none",
               std::to_string(db.locks().stats().exclusive_escalations),
               bench::AtMost(db.locks().stats().exclusive_escalations, 0));
  // Alive: at least half of the pre-injection OLTP rate.
  bench::Claim("OLTP keeps running through the report", "reduced but alive",
               std::to_string(tps_end) + " tx/s at the end",
               bench::AtLeast(tps_end / tps_before, 0.5));
  // The reader holds every lock of its scan, unescalated.
  bench::Claim("single reader dominates lock memory",
               "allowed while far from max",
               std::to_string(dss_held) + " structures held "
               "by the DSS application",
               bench::AtLeast(dss_held, dss.scan.total_locks));
  return bench::ExitStatus();
}
