// Scenario driver: scripted client timelines over a Database.
//
// A scenario is a set of client groups, each sharing a Workload and an
// active-client step function over virtual time (ramp, surge, reduction,
// injection). The runner advances the simulation tick by tick, drives every
// connected application, runs deadlock detection, and samples the metric
// series each experiment reports (lock memory allocated/used, throughput,
// escalations, ...).
#ifndef LOCKTUNE_WORKLOAD_SCENARIO_H_
#define LOCKTUNE_WORKLOAD_SCENARIO_H_

#include <memory>
#include <vector>

#include "common/time_series.h"
#include "engine/database.h"
#include "workload/app_store.h"
#include "workload/workload.h"

namespace locktune {

// Step function of active clients: `steps` are (from_time, client_count)
// pairs sorted by time; the count holds until the next step.
struct ClientTimeline {
  Workload* workload = nullptr;  // borrowed
  std::vector<std::pair<TimeMs, int>> steps;

  int ActiveAt(TimeMs t) const;
  int MaxClients() const;
};

struct ScenarioOptions {
  DurationMs tick = 100;
  DurationMs sample_period = 1 * kSecond;
  DurationMs deadlock_check_period = 1 * kSecond;
  DurationMs duration = 1 * kMinute;
  uint64_t seed = 42;
  // Registers the kill/user-abort metric counters. Chaos scenarios set
  // this (scenario_config does it whenever a [fault] or [hostile] section
  // is present); it stays off otherwise so fault-free metric exports are
  // byte-identical to earlier versions.
  bool robustness_metrics = false;
  // Livelock watchdog: wall-clock budget for one simulation tick, in real
  // milliseconds (0 = off). A tick that exceeds it aborts via
  // LOCKTUNE_CHECK, leaving the grep-stable "CHECK failed" marker plus
  // flight-recorder dump. This bounds *slow* ticks (convoys, livelock with
  // progress); a tick that never returns is the supervising harness's
  // problem (locktune_fuzz pairs this with a kill timeout). Wall-clock by
  // design, so it never perturbs virtual-time determinism.
  int64_t tick_watchdog_ms = 0;
};

class ScenarioRunner {
 public:
  // `db` and the workloads inside `groups` are borrowed.
  ScenarioRunner(Database* db, std::vector<ClientTimeline> groups,
                 const ScenarioOptions& options);

  ScenarioRunner(const ScenarioRunner&) = delete;
  ScenarioRunner& operator=(const ScenarioRunner&) = delete;

  // Runs the scenario to options().duration.
  void Run();

  // Runs until the given virtual time (callable repeatedly for phased
  // assertions in tests).
  void RunUntil(TimeMs until);

  const TimeSeriesSet& series() const { return series_; }
  const ScenarioOptions& options() const { return options_; }
  Database* db() { return db_; }

  // Aggregates over all applications. O(1): every application mirrors its
  // counter bumps into `totals_`, so sample points and metric callbacks do
  // not re-sum the whole client population.
  int64_t total_commits() const { return totals_.commits; }
  int64_t total_deadlock_aborts() const { return totals_.deadlock_aborts; }
  int64_t total_timeout_aborts() const { return totals_.timeout_aborts; }
  int64_t total_oom_aborts() const { return totals_.oom_aborts; }
  int64_t total_user_aborts() const { return totals_.user_aborts; }
  int64_t total_kill_aborts() const { return totals_.kill_aborts; }

  // The SoA store holding every application: slot i is application id
  // i + 1. Per-application reads (`id(i)`, `connected(i)`, `stats(i)`),
  // the aggregate phase histogram, and `set_compiler(i, ...)` before the
  // run.
  const AppStore& store() const { return store_; }
  AppStore& store() { return store_; }

  // Series names sampled each sample_period.
  static const char kLockAllocatedMb[];
  static const char kLockUsedMb[];
  static const char kLmocMb[];
  static const char kThroughputTps[];
  static const char kEscalations[];
  static const char kExclusiveEscalations[];
  static const char kLockWaits[];
  static const char kMaxlocksPercent[];
  static const char kOverflowMb[];
  static const char kClients[];
  static const char kBlockedApps[];

 private:
  // The phases around each tick's sweep: BeginTick applies timelines and
  // due connection kills; FinishTick reconciles the scheduler
  // (FinishSweep), advances virtual time (STMM passes run inside), and
  // runs the periodic deadlock/timeout checks and sampling. Between the
  // two, RunUntil ticks the store's runnable work list in index order.
  void BeginTick(TimeMs now);
  void FinishTick(TimeMs now);
  void ApplyTimelines(TimeMs now);
  void Sample(TimeMs now);
  // Registers the workload metric family (`locktune_workload_*`) with the
  // database's registry: commit/abort counters, throughput, client count,
  // and the heaviest per-app held-lock count.
  void RegisterMetrics();

  Database* db_;
  std::vector<ClientTimeline> groups_;
  ScenarioOptions options_;
  // SoA state + event-driven scheduler for every application (slot i is
  // application id i + 1).
  AppStore store_;
  // store index range [group_start_[g], group_start_[g+1]) belongs to
  // group g.
  std::vector<size_t> group_start_;
  ApplicationStats totals_;  // shared stat sink for every application
  TimeSeriesSet series_;
  TimeMs next_sample_ = 0;
  TimeMs next_deadlock_check_ = 0;
  int64_t last_sample_commits_ = 0;
  double last_sample_tps_ = 0.0;
  int last_total_active_ = -1;
  // Wall-clock stamp of the current tick's start (steady_clock ns), valid
  // between BeginTick and FinishTick when the watchdog is armed.
  int64_t tick_start_ns_ = 0;
  // Deliberate-defect hooks for the fuzzer's oracle tests, selected by the
  // LOCKTUNE_TEST_PLANT environment variable (read once at construction;
  // empty — the production state — disables them all). See
  // docs/FUZZING.md.
  enum class PlantedBug { kNone, kInvariant, kLivelock };
  PlantedBug planted_ = PlantedBug::kNone;
};

}  // namespace locktune

#endif  // LOCKTUNE_WORKLOAD_SCENARIO_H_
