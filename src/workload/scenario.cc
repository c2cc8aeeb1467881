#include "workload/scenario.h"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <thread>
#include <vector>

#include "common/check.h"
#include "common/paranoid.h"
#include "telemetry/chrome_trace.h"
#include "telemetry/metrics.h"
#include "telemetry/trace.h"

namespace locktune {

const char ScenarioRunner::kLockAllocatedMb[] = "lock_allocated_mb";
const char ScenarioRunner::kLockUsedMb[] = "lock_used_mb";
const char ScenarioRunner::kLmocMb[] = "lmoc_mb";
const char ScenarioRunner::kThroughputTps[] = "throughput_tps";
const char ScenarioRunner::kEscalations[] = "escalations";
const char ScenarioRunner::kExclusiveEscalations[] = "exclusive_escalations";
const char ScenarioRunner::kLockWaits[] = "lock_waits";
const char ScenarioRunner::kMaxlocksPercent[] = "maxlocks_percent";
const char ScenarioRunner::kOverflowMb[] = "overflow_mb";
const char ScenarioRunner::kClients[] = "clients";
const char ScenarioRunner::kBlockedApps[] = "blocked_apps";

namespace {

constexpr double kBytesPerMb = 1024.0 * 1024.0;

// Wall-clock nanoseconds for the tick watchdog. steady_clock, never the
// wall calendar: immune to NTP steps, and legal under locklint LL001
// (virtual time still comes exclusively from SimClock).
int64_t WallNowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

int ClientTimeline::ActiveAt(TimeMs t) const {
  int active = 0;
  for (const auto& [from, count] : steps) {
    if (from > t) break;
    active = count;
  }
  return active;
}

int ClientTimeline::MaxClients() const {
  int max_clients = 0;
  for (const auto& [from, count] : steps) {
    max_clients = std::max(max_clients, count);
  }
  return max_clients;
}

ScenarioRunner::ScenarioRunner(Database* db, std::vector<ClientTimeline> groups,
                               const ScenarioOptions& options)
    : db_(db),
      groups_(std::move(groups)),
      options_(options),
      store_(db, options.tick) {
  LOCKTUNE_CHECK(db != nullptr);
  LOCKTUNE_CHECK(options.tick > 0);
  LOCKTUNE_CHECK(options.tick_watchdog_ms >= 0);
  // Deliberate-defect plants for oracle self-tests (docs/FUZZING.md). The
  // variable is unset outside tests/fuzz_e2e, so this is a no-op in
  // production runs.
  if (const char* plant = std::getenv("LOCKTUNE_TEST_PLANT");
      plant != nullptr && *plant != '\0') {
    if (std::strcmp(plant, "invariant") == 0) {
      planted_ = PlantedBug::kInvariant;
    } else if (std::strcmp(plant, "livelock") == 0) {
      planted_ = PlantedBug::kLivelock;
    } else {
      LOCKTUNE_CHECK(false && "unknown LOCKTUNE_TEST_PLANT value");
    }
  }
  // First sample lands one full period in, so every sample window covers
  // the same span.
  next_sample_ = db->clock().now() + options_.sample_period;
  store_.set_stats_sink(&totals_);
  AppId next_id = 1;
  Rng seeder(options_.seed);
  for (const ClientTimeline& g : groups_) {
    LOCKTUNE_CHECK(g.workload != nullptr);
    group_start_.push_back(apps_.size());
    for (int i = 0; i < g.MaxClients(); ++i) {
      const uint32_t index =
          store_.Add(next_id++, g.workload, seeder.Next());
      apps_.emplace_back(&store_, index);
    }
  }
  group_start_.push_back(apps_.size());
  RegisterMetrics();
}

void ScenarioRunner::RegisterMetrics() {
  MetricsRegistry& registry = db_->metrics();
  registry.AddCallbackCounter(
      "locktune_workload_commits_total", "transactions committed",
      [this] { return total_commits(); });
  registry.AddCallbackCounter(
      "locktune_workload_deadlock_aborts_total",
      "transactions aborted as deadlock victims",
      [this] { return total_deadlock_aborts(); });
  registry.AddCallbackCounter(
      "locktune_workload_timeout_aborts_total",
      "transactions aborted past LOCKTIMEOUT",
      [this] { return total_timeout_aborts(); });
  registry.AddCallbackCounter(
      "locktune_workload_oom_aborts_total",
      "transactions failed for lack of lock memory",
      [this] { return total_oom_aborts(); });
  if (options_.robustness_metrics) {
    // Only for chaos scenarios: registering these unconditionally would
    // change every fault-free metric export.
    registry.AddCallbackCounter(
        "locktune_workload_user_aborts_total",
        "transactions rolled back by the client (abort storms)",
        [this] { return total_user_aborts(); });
    registry.AddCallbackCounter(
        "locktune_workload_kill_aborts_total",
        "transactions rolled back by mid-flight connection kills",
        [this] { return total_kill_aborts(); });
  }
  registry.AddCallbackCounter(
      "locktune_workload_locks_acquired_total", "row/table locks acquired",
      [this] { return totals_.locks_acquired; });
  registry.AddCallbackCounter(
      "locktune_workload_table_plan_txns_total",
      "transactions compiled to table locking",
      [this] { return totals_.table_plan_txns; });
  registry.AddCallbackGauge(
      "locktune_workload_clients", "connected applications",
      [this] { return static_cast<double>(db_->connected_applications()); });
  registry.AddCallbackGauge(
      "locktune_workload_throughput_tps",
      "commit rate over the last sample period",
      [this] { return last_sample_tps_; });
  registry.AddCallbackGauge(
      "locktune_workload_max_held_locks",
      "most lock structures held by any one application",
      [this] {
        // One aggregate pass under one manager guard; the former
        // per-application HeldStructures loop re-locked the manager once
        // per client, which at 10^6 applications stalled every export.
        return static_cast<double>(db_->locks().MaxHeldStructures());
      });
}

void ScenarioRunner::Run() { RunUntil(options_.duration); }

void ScenarioRunner::RunUntil(TimeMs until) {
  while (db_->clock().now() < until) {
    const TimeMs now = db_->clock().now();
    BeginTick(now);
    // Event-driven sweep: only this tick's runnable applications (running,
    // blocked, or woken by the deadline wheel) are touched; parked and
    // disconnected ones cost nothing. Ascending index order — the same
    // cross-application request order as the legacy all-apps loop.
    for (const uint32_t i : store_.CollectRunnable()) store_.Tick(i);
    FinishTick(now);
  }
}

void ScenarioRunner::BeginTick(TimeMs now) {
  if (options_.tick_watchdog_ms > 0) tick_start_ns_ = WallNowNs();
  ApplyTimelines(now);

  // Fault-plan connection kills. A killed application rolls back and
  // disconnects this tick; the next ApplyTimelines reconnects it if its
  // timeline says it should be active (crash-and-restart).
  if (FaultPlan* fault = db_->fault_plan();
      fault != nullptr && fault->Armed()) {
    for (int32_t victim : fault->TakeDueKills()) {
      // Kill targets are 1-based application indices, like deadlock
      // victims below.
      const size_t idx = static_cast<size_t>(victim - 1);
      LOCKTUNE_CHECK(idx < apps_.size());
      store_.KillConnection(static_cast<uint32_t>(idx));
    }
  }
}

void ScenarioRunner::FinishTick(TimeMs now) {
  if (ChromeTraceCollector* trace = GlobalTraceCollector()) {
    // Virtual-time tick span: sim time advances exactly one tick per
    // iteration, so the spans tile the timeline.
    trace->Span("tick", kTracePidSim, kTraceTidTicks, SimTimeToTraceUs(now),
                options_.tick * 1000,
                "{\"clients\":" +
                    std::to_string(db_->connected_applications()) + "}");
  }

  // Scheduler reconciliation: applications that parked during the sweep
  // (committed, aborted, began holding) leave the runnable set and enter
  // the deadline wheel.
  store_.FinishSweep();

  // Advance virtual time; due STMM tuning passes run inside.
  db_->Tick(options_.tick);

  if (now >= next_deadlock_check_) {
    next_deadlock_check_ = now + options_.deadlock_check_period;
    for (AppId victim : db_->locks().DetectDeadlocks()) {
      // Victim AppIds are 1-based application indices by construction.
      const size_t idx = static_cast<size_t>(victim - 1);
      LOCKTUNE_CHECK(idx < apps_.size());
      store_.AbortForDeadlock(static_cast<uint32_t>(idx));
    }
    for (AppId victim : db_->locks().ExpireTimedOutWaiters()) {
      const size_t idx = static_cast<size_t>(victim - 1);
      LOCKTUNE_CHECK(idx < apps_.size());
      store_.AbortForTimeout(static_cast<uint32_t>(idx));
    }
  }

  if (db_->clock().now() >= next_sample_) {
    next_sample_ += options_.sample_period;
    Sample(db_->clock().now());
  }

  // Planted defects for the fuzzer's oracle self-tests; `planted_` is
  // kNone unless LOCKTUNE_TEST_PLANT is set.
  if (planted_ == PlantedBug::kInvariant && ParanoidEnabled() &&
      now >= 5 * kSecond) {
    LOCKTUNE_CHECK(false && "planted invariant violation");
  }
  if (planted_ == PlantedBug::kLivelock && now >= 2 * kSecond) {
    // Finite but grossly over-budget ticks: the watchdog (not the outer
    // kill timeout) is what should catch this shape of livelock.
    std::this_thread::sleep_for(std::chrono::milliseconds(250));
  }

  if (options_.tick_watchdog_ms > 0) {
    const int64_t elapsed_ms = (WallNowNs() - tick_start_ns_) / 1'000'000;
    if (elapsed_ms > options_.tick_watchdog_ms) {
      std::fprintf(stderr,
                   "locktune: tick at t=%lld ms took %lld ms of wall time "
                   "(watchdog budget %lld ms)\n",
                   static_cast<long long>(now),
                   static_cast<long long>(elapsed_ms),
                   static_cast<long long>(options_.tick_watchdog_ms));
      LOCKTUNE_CHECK(false && "tick watchdog exceeded (livelock?)");
    }
  }
}

void ScenarioRunner::ApplyTimelines(TimeMs now) {
  int total_active = 0;
  for (size_t g = 0; g < groups_.size(); ++g) {
    const int want = groups_[g].ActiveAt(now);
    total_active += want;
    const size_t start = group_start_[g];
    const size_t end = group_start_[g + 1];
    LOCKTUNE_CHECK(static_cast<size_t>(want) <= end - start);
    for (size_t i = start; i < end; ++i) {
      const bool should_connect = i - start < static_cast<size_t>(want);
      const uint32_t index = static_cast<uint32_t>(i);
      if (should_connect && !store_.connected(index)) {
        store_.Connect(index);
      } else if (!should_connect && store_.connected(index)) {
        store_.Disconnect(index);
      }
    }
  }
  db_->set_connected_applications(total_active);
  if (total_active != last_total_active_) {
    if (TraceSink* sink = db_->trace_sink();
        sink != nullptr && last_total_active_ >= 0) {
      TraceRecord rec(now, "clients_change");
      rec.Int("from", last_total_active_).Int("to", total_active);
      sink->Append(rec);
    }
    last_total_active_ = total_active;
  }
}

void ScenarioRunner::Sample(TimeMs now) {
  const LockManagerStats& stats = db_->locks().stats();
  const double seconds =
      static_cast<double>(options_.sample_period) / 1000.0;
  const int64_t commits = total_commits();

  series_.Record(kLockAllocatedMb, now,
                 static_cast<double>(db_->locks().allocated_bytes()) /
                     kBytesPerMb);
  series_.Record(kLockUsedMb, now,
                 static_cast<double>(db_->locks().used_bytes()) / kBytesPerMb);
  series_.Record(kLmocMb, now,
                 db_->stmm() != nullptr
                     ? static_cast<double>(db_->stmm()->lmoc()) / kBytesPerMb
                     : static_cast<double>(db_->locks().allocated_bytes()) /
                           kBytesPerMb);
  last_sample_tps_ =
      static_cast<double>(commits - last_sample_commits_) / seconds;
  series_.Record(kThroughputTps, now, last_sample_tps_);
  last_sample_commits_ = commits;
  series_.Record(kEscalations, now, static_cast<double>(stats.escalations));
  series_.Record(kExclusiveEscalations, now,
                 static_cast<double>(stats.exclusive_escalations));
  series_.Record(kLockWaits, now, static_cast<double>(stats.lock_waits));
  series_.Record(kMaxlocksPercent, now,
                 db_->locks().CurrentMaxlocksPercent());
  series_.Record(kOverflowMb, now,
                 static_cast<double>(db_->memory().overflow_bytes()) /
                     kBytesPerMb);
  series_.Record(kClients, now,
                 static_cast<double>(db_->connected_applications()));
  series_.Record(kBlockedApps, now,
                 static_cast<double>(db_->locks().waiting_app_count()));
}

}  // namespace locktune
