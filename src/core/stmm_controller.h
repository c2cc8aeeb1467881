// The STMM controller: executes the combined synchronous/asynchronous
// self-tuning of lock memory (paper §3).
//
// Synchronous path (request time): the lock manager's growth callback lands
// in GrantSynchronousGrowth(), which allows lock memory to expand into
// database overflow memory block by block, bounded by maxLockMemory and by
// LMOmax = C1 · (overflow + LMO). Memory taken this way (LMO) is a
// transient debt against the overflow area.
//
// Asynchronous path (every tuning interval): RunTuningPass() asks the
// LockMemoryTuner for a new target, resizes the lock memory toward it —
// shrinking performance consumers when overflow cannot cover growth, and
// donating freed lock memory back — restores the overflow area to its goal,
// and externalizes the new on-disk configuration value (LMOC).
#ifndef LOCKTUNE_CORE_STMM_CONTROLLER_H_
#define LOCKTUNE_CORE_STMM_CONTROLLER_H_

#include <functional>
#include <vector>

#include "common/sim_clock.h"
#include "common/units.h"
#include "core/config.h"
#include "core/lock_memory_tuner.h"
#include "core/pmc_model.h"
#include "lock/lock_manager.h"
#include "memory/database_memory.h"

namespace locktune {

class DegradationLedger;
class MetricsRegistry;
class TraceSink;

// What one tuning pass saw and did (history entry for experiments).
struct StmmIntervalRecord {
  TimeMs time = 0;
  Bytes lock_allocated_before = 0;
  Bytes lock_allocated = 0;  // after the pass
  Bytes lock_used = 0;
  Bytes lmoc = 0;
  Bytes overflow = 0;
  double maxlocks_percent = 0.0;
  int64_t escalations_delta = 0;
  LockTunerAction action = LockTunerAction::kNone;
  DurationMs next_interval = 0;  // interval chosen for the next pass
};

class StmmController {
 public:
  // All pointers are borrowed and must outlive the controller. `lock_heap`
  // is the heap that mirrors the lock manager's block list;
  // `num_applications` reports currently connected applications (the
  // paper's num_applications in minLockMemory).
  StmmController(const TuningParams& params, const SimClock* clock,
                 DatabaseMemory* memory, MemoryHeap* lock_heap,
                 LockManager* locks, PmcModel* pmcs,
                 std::function<int()> num_applications);

  StmmController(const StmmController&) = delete;
  StmmController& operator=(const StmmController&) = delete;

  // Runs one tuning pass per tuning interval elapsed on the clock. Call
  // once per simulation tick.
  void Poll();

  // One asynchronous tuning pass, immediately.
  void RunTuningPass();

  // Lock manager growth callback: grants `blocks` 128 KB blocks from
  // database overflow memory, subject to maxLockMemory and LMOmax. Returns
  // false (and remembers the constraint for the doubling rule) when denied.
  bool GrantSynchronousGrowth(int64_t blocks);

  // §3.6: the stable lock memory view given to the SQL compiler —
  // 10 % of databaseMemory regardless of the instantaneous allocation.
  Bytes CompilerLockMemoryView() const {
    return params_.CompilerLockMemory();
  }

  // The on-disk configured lock memory (LOCKLIST as externalized).
  Bytes lmoc() const { return lmoc_; }
  // Lock memory currently borrowed from overflow (transient).
  Bytes lmo() const { return lmo_; }
  // Bytes of LMO taken through the cold-start borrow path — growth granted
  // past an injected denial before the first tuning pass, bounded by
  // MinLockMemory (docs/ROBUSTNESS.md). Monotone; repaid like any LMO.
  Bytes cold_borrow_bytes() const { return cold_borrow_; }
  bool growth_was_constrained() const { return growth_constrained_; }

  const TuningParams& params() const { return params_; }
  const std::vector<StmmIntervalRecord>& history() const { return history_; }
  // The current (possibly adapted) tuning interval.
  DurationMs tuning_interval() const { return timer_.period(); }

  // Decision tracing: each tuning pass appends one `kind:"tuning_pass"`
  // record (inputs, chosen action, human-readable why). Borrowed; null
  // disables tracing.
  void set_trace_sink(TraceSink* sink) { trace_ = sink; }
  TraceSink* trace_sink() const { return trace_; }

  // Chaos layer: absorbed denials and recoveries are recorded here.
  // Borrowed; null (the default) disables the bookkeeping, not the backoff.
  void set_degradation_ledger(DegradationLedger* ledger) { ledger_ = ledger; }

  // Backoff-on-denial state (tests / inspector). A streak counts
  // consecutive tuning passes whose asynchronous grow was refused by the
  // memory set; while holdoff passes remain the controller does not
  // re-request the same grow.
  int grow_denial_streak() const { return grow_denial_streak_; }
  int grow_holdoff_passes() const { return grow_holdoff_; }

  // Cross-subsystem budget conservation (paranoid mode / tests): the lock
  // heap's committed size equals the lock manager's block-list allocation
  // (the two accountings of the same memory), sizes are block-granular, and
  // the externalized LMOC plus the transient overflow debt LMO cover the
  // committed size. Returns OK or INTERNAL naming the violated invariant.
  [[nodiscard]] Status CheckConsistency() const;

  // Registers the tuner metric family (`locktune_stmm_*`): per-action pass
  // counters, lmoc/lmo/interval gauges, the free-band position, and a
  // resize-magnitude histogram. The pass counters and the histogram are read
  // from history(), so they count every pass, including any run before
  // registration.
  void RegisterMetrics(MetricsRegistry* registry);

 private:
  // Grows lock memory by up to `want` bytes (block multiple), shrinking
  // PMCs when overflow is short. Returns bytes actually added.
  Bytes GrowLockMemory(Bytes want);
  // Shrinks lock memory by up to `want` bytes of entirely free blocks.
  Bytes ShrinkLockMemory(Bytes want);
  // Moves overflow toward its goal by shrinking or growing PMCs.
  void RestoreOverflowGoal();

  TuningParams params_;
  const SimClock* clock_;
  DatabaseMemory* memory_;
  MemoryHeap* lock_heap_;
  LockManager* locks_;
  PmcModel* pmcs_;
  std::function<int()> num_applications_;

  // Shortens/lengthens the tuning interval per the pass outcome.
  void AdaptInterval(LockTunerAction action);

  LockMemoryTuner tuner_;
  PeriodicTimer timer_;
  Bytes lmoc_;
  Bytes lmo_ = 0;
  Bytes cold_borrow_ = 0;
  bool growth_constrained_ = false;
  int64_t last_escalations_ = 0;
  int quiet_passes_ = 0;
  // Attenuated retry after denied asynchronous growth: set by
  // GrowLockMemory when DatabaseMemory::GrowHeap refuses (never on a mere
  // clamp-to-zero), consumed by RunTuningPass to hold off re-requests.
  bool grow_denied_ = false;
  int grow_denial_streak_ = 0;
  int grow_holdoff_ = 0;
  std::vector<StmmIntervalRecord> history_;

  DegradationLedger* ledger_ = nullptr;
  TraceSink* trace_ = nullptr;
};

}  // namespace locktune

#endif  // LOCKTUNE_CORE_STMM_CONTROLLER_H_
