// scale_sweep — end-to-end simulator throughput from 1 k to 1 M client
// applications (docs/SCALE.md).
//
// Each point builds a self-tuning Database plus a ScenarioRunner with N
// mostly-idle OLTP clients (long think times, small transactions — the
// million-connection shape the SoA store and the deadline-wheel scheduler
// target) and runs a virtual duration scaled down as N grows, so every
// point finishes in comparable wall time. Per point it reports:
//
//   ops / ops_per_sec   committed transactions and commits per wall second
//   avg_tick_ms         mean wall time of one simulation tick (schedule +
//                       sweep + reconcile + serial phases)
//   tuner_pass_ms       wall time of one forced STMM tuning pass at that
//                       scale, timed after the run on warm state
//   locks_per_sec       granted lock requests per wall second
//
// Output is the machine-readable CSV the other benches emit
// (name,ops,seconds,ops_per_sec[,key=value...]); performance claims use the
// benchmark in perfbench/ (perfbench/README.md). `--quick` runs the two small
// points at smoke durations (the bench_scale_smoke ctest entry); `--apps N`
// runs just the point with that client count (the CI scale-smoke job runs the
// 100 k point this way).
//
// Wall-clock caveat: on a throttled or 1-CPU CI host the absolute numbers
// compress; the shape to watch is that commits/s stays roughly flat while
// apps grow 1000x — per-tick cost must track the *runnable* population, not
// the connected one.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "common/units.h"
#include "engine/database.h"
#include "workload/oltp_workload.h"
#include "workload/scenario.h"

using namespace locktune;

namespace {

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

struct SweepPoint {
  const char* name;
  int apps;
  DurationMs duration;        // full-run virtual time
  DurationMs quick_duration;  // --quick virtual time (0 = skip in quick)
};

// Virtual durations shrink as N grows so each point's wall time stays in
// the same ballpark: the per-tick work is proportional to the runnable
// population, which is proportional to N at a fixed think time.
constexpr SweepPoint kPoints[] = {
    {"scale_1k", 1'000, 60 * kSecond, 5 * kSecond},
    {"scale_10k", 10'000, 20 * kSecond, 2 * kSecond},
    {"scale_100k", 100'000, 5 * kSecond, 1 * kSecond},
    {"scale_1m", 1'000'000, 2 * kSecond, 0},
};

void RunPoint(const SweepPoint& point, DurationMs duration) {
  DatabaseOptions db_opts;
  // The sweep measures scheduler/lock-path scale, not lock-heap sizing:
  // with the paper's 500-structure floor a million applications would
  // demand minLockMemory = 32 GB and pin every pass against the clamp, so
  // the floor is left to min_lock_memory_floor alone and lock memory is
  // sized by observed demand (idle connections hold nothing).
  db_opts.params.min_structures_per_app = 0;
  // Scale the catalog with the population so row-conflict density is
  // constant across points. A fixed catalog turns the large points into a
  // contention experiment instead: collision probability grows with N²,
  // waiters hold their earlier row locks across ticks, actives accumulate,
  // and past ~250 k applications the run crosses the classic lock-thrashing
  // phase transition and gridlocks (that cliff is real and belongs to the
  // contention-atlas work, not this sweep — docs/SCALE.md).
  db_opts.catalog_scale =
      std::max(1.0, static_cast<double>(point.apps) / 1000.0);
  // Size databaseMemory for the population too. The cold-start herd holds
  // roughly two ticks' transactions concurrently (~2 structures per
  // connected app at this profile), and before the first tuning pass every
  // grow is synchronous — capped at LMOmax = C1 · overflow ≈ 6.5 % of
  // databaseMemory. At the 512 MiB default that cap is ~546 k structures:
  // past ~272 k applications the herd blows through it and each denied
  // allocation runs the O(apps) escalation victim scan — a quadratic
  // storm that turns the point into a gridlock benchmark. ~5 KiB of
  // (virtual, never backed) databaseMemory per application keeps the sync
  // cap at ~5 structures per app, 2.5× the herd's peak demand.
  db_opts.params.database_memory =
      std::max<Bytes>(512 * kMiB, static_cast<Bytes>(point.apps) * 5120);
  std::unique_ptr<Database> db = Database::Open(db_opts).value();

  // Mostly-idle clients: a short transaction every ~2 s of think time, so
  // at any tick ~tick/think of the population is runnable and the rest
  // sits parked in the deadline wheel.
  OltpOptions wl_opts;
  wl_opts.mean_locks_per_txn = 8;
  wl_opts.locks_per_tick = 8;
  wl_opts.think_time = 2000;
  OltpWorkload workload(db->catalog(), wl_opts);

  ClientTimeline timeline;
  timeline.workload = &workload;
  timeline.steps = {{0, point.apps}};

  ScenarioOptions opts;
  opts.duration = duration;
  ScenarioRunner runner(db.get(), {timeline}, opts);

  const Clock::time_point start = Clock::now();
  runner.Run();
  const double seconds = SecondsSince(start);

  const int64_t commits = runner.total_commits();
  const int64_t ticks = duration / opts.tick;
  const LockManagerStats locks = db->locks().stats();

  double tuner_ms = 0.0;
  if (db->stmm() != nullptr) {
    const Clock::time_point t0 = Clock::now();
    db->stmm()->RunTuningPass();
    tuner_ms = SecondsSince(t0) * 1e3;
  }

  std::printf(
      "%s,%lld,%.6f,%.0f,apps=%d,ticks=%lld,avg_tick_ms=%.3f,"
      "tuner_pass_ms=%.3f,locks_per_sec=%.0f,escalations=%lld,waits=%lld\n",
      point.name, static_cast<long long>(commits), seconds,
      seconds > 0 ? static_cast<double>(commits) / seconds : 0.0, point.apps,
      static_cast<long long>(ticks),
      ticks > 0 ? seconds * 1e3 / static_cast<double>(ticks) : 0.0, tuner_ms,
      seconds > 0 ? static_cast<double>(locks.grants) / seconds : 0.0,
      static_cast<long long>(locks.escalations),
      static_cast<long long>(locks.lock_waits));
  std::fflush(stdout);
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  int only_apps = 0;
  DurationMs duration_override = 0;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
    } else if (std::strcmp(argv[i], "--apps") == 0 && i + 1 < argc) {
      only_apps = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--duration-s") == 0 && i + 1 < argc) {
      duration_override = static_cast<DurationMs>(std::atof(argv[++i]) *
                                                  static_cast<double>(kSecond));
    } else {
      std::fprintf(stderr,
                   "usage: scale_sweep [--quick] [--apps N] [--duration-s S]\n");
      return 1;
    }
  }

  std::printf("name,ops,seconds,ops_per_sec\n");
  bool ran = false;
  for (const SweepPoint& point : kPoints) {
    if (only_apps != 0) {
      if (point.apps != only_apps) continue;
      DurationMs d = quick ? point.quick_duration != 0 ? point.quick_duration
                                                       : point.duration
                           : point.duration;
      if (duration_override != 0) d = duration_override;
      RunPoint(point, d);
      ran = true;
      continue;
    }
    if (quick && point.quick_duration == 0) continue;
    RunPoint(point, quick ? point.quick_duration : point.duration);
    ran = true;
  }
  if (only_apps != 0 && !ran) {
    // Off-grid population: synthesize a point (2 s of virtual time unless
    // --duration-s says otherwise), so intermediate N are measurable
    // without editing the grid.
    const SweepPoint custom{
        "scale_custom", only_apps,
        duration_override != 0 ? duration_override : 2 * kSecond, 0};
    RunPoint(custom, custom.duration);
    ran = true;
  }
  if (!ran) {
    std::fprintf(stderr, "scale_sweep: no sweep point with %d apps\n",
                 only_apps);
    return 1;
  }
  return 0;
}
