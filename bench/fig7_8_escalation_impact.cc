// Figures 7 & 8 — the impact of lock escalation under a static,
// under-configured LOCKLIST (0.4 MB for 130 OLTP clients).
//
// Figure 7: as the system ramps up, lock requests saturate the static lock
// memory, escalations fire, and escalation *reduces* the lock memory in use
// (one table lock replaces thousands of row locks).
// Figure 8: the escalated table locks destroy concurrency — only a handful
// of the 130 clients make forward progress and throughput collapses to
// nearly zero. A self-tuning run of the same workload is printed alongside
// as the reference.
#include <cstdio>
#include <memory>

#include "bench/bench_util.h"
#include "engine/database.h"
#include "workload/scenario.h"
#include "workload/scenario_config.h"

using namespace locktune;

namespace {

struct RunResult {
  TimeSeriesSet series;
  int64_t commits = 0;
  int64_t escalations = 0;
  int64_t exclusive_escalations = 0;
  double steady_tps = 0.0;
};

RunResult Run(const ScenarioSpec& spec) {
  std::unique_ptr<LoadedScenario> loaded = LoadedScenario::Create(spec).value();
  Database& db = loaded->database();
  ScenarioRunner& runner = loaded->runner();
  runner.Run();
  RunResult r;
  r.series = runner.series();
  r.commits = runner.total_commits();
  r.escalations = db.locks().stats().escalations;
  r.exclusive_escalations = db.locks().stats().exclusive_escalations;
  r.steady_tps = bench::MeanOver(
      runner.series().Get(ScenarioRunner::kThroughputTps), 60, 240);
  return r;
}

}  // namespace

int main() {
  bench::PrintHeader(
      "Figures 7 & 8", "Impact of lock escalation (static 0.4 MB LOCKLIST)",
      "130 OLTP clients, 512 MB database; static LOCKLIST=100 pages with "
      "MAXLOCKS=10% vs. the self-tuning configuration.");

  // The static run is scenarios/static_escalation.conf; the reference is
  // the same scenario under self-tuning.
  const ScenarioSpec spec = bench::LoadScenario("static_escalation.conf");
  ScenarioSpec self_tuned = spec;
  self_tuned.database.mode = TuningMode::kSelfTuning;
  const RunResult fixed = Run(spec);
  const RunResult tuned = Run(self_tuned);

  std::printf("\nFigure 7 series (static config): lock memory in use\n");
  bench::PrintSeries(fixed.series,
                     {ScenarioRunner::kLockUsedMb,
                      ScenarioRunner::kEscalations},
                     /*stride=*/10);
  std::printf("\nFigure 8 series (static config): throughput collapse\n");
  bench::PrintSeries(fixed.series,
                     {ScenarioRunner::kThroughputTps,
                      ScenarioRunner::kBlockedApps},
                     /*stride=*/10);
  std::printf("\nreference series (self-tuning): throughput\n");
  bench::PrintSeries(tuned.series,
                     {ScenarioRunner::kThroughputTps,
                      ScenarioRunner::kLockAllocatedMb},
                     /*stride=*/10);

  std::printf("\nsummary:\n");
  const TimeSeries& used = fixed.series.Get(ScenarioRunner::kLockUsedMb);
  const double commit_ratio = static_cast<double>(fixed.commits) /
                              static_cast<double>(tuned.commits);
  bench::Claim("static config escalates", "> 0 escalations",
               std::to_string(fixed.escalations) + " (" +
                   std::to_string(fixed.exclusive_escalations) +
                   " exclusive)",
               bench::AtLeast(fixed.escalations, 1));
  // Figure 7's in-use curve falls from its peak to a fraction of it; "drops"
  // is read as below half the peak.
  bench::Claim("escalation reduces lock memory in use",
               "usage drops after escal.",
               bench::Mb(used.MaxValue()) + " peak -> " +
                   bench::Mb(used.Last()) + " final",
               bench::AtMost(used.Last() / used.MaxValue(), 0.5));
  // "Practically zero" is read as under 5 % of the self-tuned rate on the
  // same clients.
  bench::Claim("throughput drops practically to zero",
               "~0 tx/s after escalation",
               std::to_string(fixed.steady_tps) + " tx/s steady",
               bench::AtMost(fixed.steady_tps / tuned.steady_tps, 0.05));
  // Healthy: within a quarter of the 57.5 tx/s that the same 130 clients
  // reach self-tuned in Figure 9 (EXPERIMENTS.md); this run starts all of
  // them at once instead of ramping.
  bench::Claim("self-tuned reference throughput", "healthy",
               std::to_string(tuned.steady_tps) + " tx/s steady",
               bench::AtLeast(tuned.steady_tps, 0.75 * 57.5));
  bench::Claim("self-tuned escalations", "0",
               std::to_string(tuned.escalations),
               bench::AtMost(tuned.escalations, 0));
  // "<< 1" is read as at most a tenth.
  bench::Claim("static/self-tuned commit ratio", "<< 1",
               std::to_string(commit_ratio), bench::AtMost(commit_ratio, 0.1));
  return bench::ExitStatus();
}
