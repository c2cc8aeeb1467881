// The database facade: wires the shared memory set, the lock manager, the
// escalation policy, and (when self-tuning is on) the STMM controller. The
// structured trace sink is forwarded to every producer of trace records.
//
// Three configurations are supported, matching the paper's comparisons:
//  * self-tuning DB2 9 (adaptive MAXLOCKS curve + STMM lock memory tuning);
//  * static pre-STMM DB2 (fixed LOCKLIST pages + fixed MAXLOCKS percent,
//    no growth — the Figure 7/8 baseline);
//  * SQL Server 2005-style (grow-only lock memory up to 60 % of engine
//    memory, escalation at 40 % used or 5000 locks per application).
//
// Threads: one thread drives a Database, as the paper's tuner treats the
// lock list as one serialized structure. A caller who shares one between
// threads wraps it in their own mutex.
#ifndef LOCKTUNE_ENGINE_DATABASE_H_
#define LOCKTUNE_ENGINE_DATABASE_H_

#include <memory>

#include "common/sim_clock.h"
#include "common/status.h"
#include "core/config.h"
#include "core/pmc_model.h"
#include "core/stmm_controller.h"
#include "engine/catalog.h"
#include "fault/degradation_ledger.h"
#include "fault/fault_plan.h"
#include "lock/escalation_policy.h"
#include "lock/lock_manager.h"
#include "memory/database_memory.h"
#include "telemetry/metrics.h"
#include "telemetry/trace.h"

namespace locktune {

enum class TuningMode {
  kSelfTuning,  // the paper's algorithm
  kStatic,      // fixed LOCKLIST + fixed MAXLOCKS, no growth
  kSqlServer,   // SQL Server 2005-style rules (§2.3)
};

struct DatabaseOptions {
  TuningParams params;
  TuningMode mode = TuningMode::kSelfTuning;

  // kStatic configuration.
  int64_t static_locklist_pages = 100;     // 0.4 MB, the Figure 7 value
  double static_maxlocks_percent = 10.0;   // the pre-STMM product default

  // DB2 LOCKTIMEOUT: negative waits forever (the product default).
  DurationMs lock_timeout = -1;

  // Catalog scale factor (row-count ranges).
  double catalog_scale = 1.0;

  // Chaos layer: a non-empty spec arms a deterministic FaultPlan
  // (memory-pressure windows, scheduled connection kills) and creates the
  // degradation ledger. The default empty spec builds neither, leaving
  // every code path and metric export byte-identical to a fault-free run.
  FaultPlanSpec fault;
};

class Database {
 public:
  // Builds and wires all subsystems; fails on invalid options.
  [[nodiscard]] static Result<std::unique_ptr<Database>> Open(
      const DatabaseOptions& opts);

  Database(const Database&) = delete;
  Database& operator=(const Database&) = delete;

  // Advances virtual time and runs any due tuning passes. In paranoid mode
  // (common/paranoid.h) every tick ends with ValidateInvariants(); a
  // violation aborts loudly instead of drifting into a wrong golden file.
  void Tick(DurationMs dt);

  // Full-structure validation across the wired subsystems: lock manager
  // accounting (block list, lock table/pool conservation, per-app held
  // lists), database memory budget conservation, and STMM lock-memory
  // accounting. Read-only; never changes observable output.
  [[nodiscard]] Status ValidateInvariants() const;

  SimClock& clock() { return clock_; }
  const SimClock& clock() const { return clock_; }
  DatabaseMemory& memory() { return *memory_; }
  LockManager& locks() { return *locks_; }
  Catalog& catalog() { return catalog_; }
  const DatabaseOptions& options() const { return options_; }
  // Null in kStatic and kSqlServer modes.
  StmmController* stmm() { return stmm_.get(); }
  // Null unless DatabaseOptions::fault was non-empty.
  FaultPlan* fault_plan() { return fault_.get(); }
  DegradationLedger* degradation_ledger() { return ledger_.get(); }
  const DegradationLedger* degradation_ledger() const { return ledger_.get(); }
  PmcModel& pmcs() { return pmcs_; }
  MemoryHeap* lock_heap() { return lock_heap_; }
  MemoryHeap* buffer_pool_heap() { return buffer_pool_; }
  MemoryHeap* sort_heap() { return sort_; }

  // Connected application count, reported to the tuner (minLockMemory).
  int connected_applications() const { return connected_applications_; }
  void set_connected_applications(int n) { connected_applications_ = n; }

  // The unified telemetry registry. All subsystems register their metric
  // families at Open(); scenario runners add the workload family when they
  // attach. Exporters (telemetry/exporters.h) walk it.
  MetricsRegistry& metrics() { return metrics_; }
  const MetricsRegistry& metrics() const { return metrics_; }

  // Installs the structured decision-trace sink, forwarded to the lock
  // manager (lock events), the STMM controller (tuning passes) and the
  // degradation ledger (fault records). Borrowed; null disables.
  void set_trace_sink(TraceSink* sink);
  TraceSink* trace_sink() const { return trace_sink_; }

 private:
  explicit Database(const DatabaseOptions& opts);

  [[nodiscard]] Status Init();

  DatabaseOptions options_;
  SimClock clock_;
  Catalog catalog_;
  MetricsRegistry metrics_;
  TraceSink* trace_sink_ = nullptr;
  std::unique_ptr<DatabaseMemory> memory_;
  // Built before the subsystems they hook into; both null for a fault-free
  // run.
  std::unique_ptr<DegradationLedger> ledger_;
  std::unique_ptr<FaultPlan> fault_;
  std::unique_ptr<EscalationPolicy> policy_;
  std::unique_ptr<LockManager> locks_;
  PmcModel pmcs_;
  std::unique_ptr<StmmController> stmm_;
  MemoryHeap* lock_heap_ = nullptr;
  MemoryHeap* buffer_pool_ = nullptr;
  MemoryHeap* sort_ = nullptr;
  MemoryHeap* package_cache_ = nullptr;
  int connected_applications_ = 0;
  // SQL Server mode: lock memory grows on demand up to 60 % of engine
  // memory but is never returned (§2.3).
  bool GrowSqlServerStyle(int64_t blocks);
};

}  // namespace locktune

#endif  // LOCKTUNE_ENGINE_DATABASE_H_
