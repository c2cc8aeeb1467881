// Structure-of-arrays application state plus the event-driven scheduler.
//
// The per-connection state machine (think → acquire row locks at the
// workload's rate → optionally hold → commit, strict two-phase locking)
// lives here as parallel columns instead of one heap object per client.
// The split is by temperature:
//
//  * hot columns — phase, think/hold countdown, locks acquired this
//    transaction, scheduler generation — are flat vectors the per-tick
//    sweep walks cache-line by cache-line;
//  * cold rows — RNG, transaction profile, workload/compiler pointers,
//    stat counters — are out of line and touched only when an
//    application actually runs.
//
// Scheduling is event-driven so a million mostly-idle connections cost
// nothing per tick: applications in a timed phase (kThinking, kHolding)
// park in a deadline wheel keyed by the tick their timer expires;
// kRunning and kBlocked applications stay in a runnable bitmap that is
// swept in ascending index order (the lock manager observes requests in
// the same cross-application order as the legacy all-apps loop, which is
// what keeps the goldens byte-identical). See docs/SCALE.md.
#ifndef LOCKTUNE_WORKLOAD_APP_STORE_H_
#define LOCKTUNE_WORKLOAD_APP_STORE_H_

#include <array>
#include <cstdint>
#include <deque>
#include <type_traits>
#include <vector>

#include "common/random.h"
#include "engine/database.h"
#include "engine/query_compiler.h"
#include "workload/workload.h"

namespace locktune {

enum class AppPhase {
  kDisconnected,
  kThinking,
  kRunning,
  kHolding,  // scan finished, locks retained until the hold timer expires
  kBlocked,
};

inline constexpr int kNumAppPhases = 5;

// Stable short name, e.g. "thinking".
const char* AppPhaseName(AppPhase phase);

// Monotonic event counts, per application and in the runner's aggregate.
struct ApplicationStats {
  int64_t commits = 0;
  int64_t table_plan_txns = 0;  // txns compiled to table locking
  int64_t deadlock_aborts = 0;
  int64_t timeout_aborts = 0;  // lock waits past LOCKTIMEOUT
  int64_t oom_aborts = 0;  // txns failed for lack of lock memory
  int64_t user_aborts = 0;  // client rollbacks (abort storms)
  int64_t kill_aborts = 0;  // mid-txn connection kills (faults)
  int64_t locks_acquired = 0;
  int64_t blocked_ticks = 0;
};

class AppStore {
 public:
  // `db` is borrowed and must outlive the store. `tick` is the simulation
  // tick length the runner drives with.
  AppStore(Database* db, DurationMs tick);

  AppStore(const AppStore&) = delete;
  AppStore& operator=(const AppStore&) = delete;

  // Appends one application slot; returns its index. All slots must be
  // added before the first CollectRunnable (the hot columns never move
  // after that).
  uint32_t Add(AppId id, Workload* workload, uint64_t seed);

  // Shared aggregate: every counter bump is mirrored into `sink`
  // (borrowed), so the owner reads totals in O(1). Set before any
  // application runs.
  void set_stats_sink(ApplicationStats* sink) { sink_ = sink; }

  // Optional SQL compiler (§3.6) for one application: when set, each
  // transaction's locking granularity is chosen at start from the
  // compiler's lock memory view.
  void set_compiler(uint32_t i, const QueryCompiler* compiler) {
    cold_[i].compiler = compiler;
  }

  size_t size() const { return phase_.size(); }
  AppId id(uint32_t i) const { return cold_[i].id; }
  AppPhase phase(uint32_t i) const {
    return static_cast<AppPhase>(phase_[i]);
  }
  bool connected(uint32_t i) const {
    return phase(i) != AppPhase::kDisconnected;
  }
  const ApplicationStats& stats(uint32_t i) const { return cold_[i].stats; }

  // --- lifecycle (timeline application, fault kills, deadlock/timeout
  // treatment — never from the tick sweep) ---

  // Connection management (scenario timelines). Disconnecting
  // mid-transaction aborts it and releases all locks.
  void Connect(uint32_t i);
  void Disconnect(uint32_t i);

  // Deadlock victim treatment: abort the transaction and retry after the
  // workload's think time.
  void AbortForDeadlock(uint32_t i);

  // Lock-timeout treatment (DB2 SQL0911N RC 68): same rollback-and-retry.
  void AbortForTimeout(uint32_t i);

  // Fault-plan treatment: the connection dies abruptly; any in-flight
  // transaction is rolled back and counted as a kill abort.
  void KillConnection(uint32_t i);

  // --- the per-tick schedule/sweep/reconcile cycle ---
  //
  // Exactly once per simulation tick, in order:
  //   1. CollectRunnable() — advances the wheel one tick, wakes parked
  //      applications whose deadline arrived, and returns the rebuilt
  //      runnable work list (ascending application index).
  //   2. Tick(i) for every i in that list, in order.
  //   3. FinishSweep() — applications that parked during the sweep
  //      (committed, aborted, began holding) leave the runnable set and
  //      enter the wheel.

  const std::vector<uint32_t>& CollectRunnable();
  void Tick(uint32_t i);
  void FinishSweep();

  // Applications per phase, from one sweep of the phase column (one byte
  // per application). The aggregate view diagnostic tools render instead
  // of per-application rows, which at 10^6 applications stalled the tick
  // watchdog (docs/SCALE.md).
  std::array<int64_t, kNumAppPhases> PhaseCounts() const;

 private:
  struct ColdApp {
    ColdApp(AppId id, Workload* workload, uint64_t seed)
        : id(id), workload(workload), rng(seed) {}
    AppId id;
    Workload* workload;  // borrowed
    Rng rng;
    const QueryCompiler* compiler = nullptr;  // borrowed, may be null
    TransactionProfile profile;
    bool table_plan = false;  // current transaction uses table locking
    ApplicationStats stats;
  };

  // Deadline-wheel entry. `gen` snapshots gen_[index] at park time; a
  // mismatch at pop time means the application disconnected (and possibly
  // reconnected) since, and the entry is dead.
  // locklint: hot-column
  struct WheelEntry {
    uint32_t index = 0;
    uint32_t gen = 0;
    int64_t due = 0;  // absolute tick the timer expires
  };
  static_assert(std::is_trivially_copyable_v<WheelEntry>,
                "wheel slots swap and re-file entries wholesale");

  // Slots in the deadline wheel (power of two). Timers longer than one
  // revolution wrap: their entries are re-filed into the same slot and
  // re-examined once per revolution, so a long hold costs one comparison
  // every kWheelSlots ticks rather than a decrement every tick.
  static constexpr int64_t kWheelSlots = 1024;

  // Bumps `field` in application `i`'s stats and in the aggregate sink.
  void Count(uint32_t i, int64_t ApplicationStats::* field, int64_t n = 1) {
    cold_[i].stats.*field += n;
    if (sink_ != nullptr) sink_->*field += n;
  }

  void StartTransaction(uint32_t i);
  void RunAcquisition(uint32_t i);
  void Commit(uint32_t i);
  void AbortToThinking(uint32_t i);

  // Files `i` into the wheel at the tick its timer_ expires. The deadline
  // is relative to the last collected tick: a timer set during (or after)
  // the sweep of tick T first decrements at T+1 and fires at
  // T + max(1, ceil(timer/tick)); a Connect during BeginTick of T+1 sees
  // its first decrement that same tick T+1, and the identical formula
  // lands on the legacy fire tick because current_tick_ still reads T.
  void Park(uint32_t i);

  void SetRunnable(uint32_t i) {
    runnable_[i >> 6] |= uint64_t{1} << (i & 63);
  }
  void ClearRunnable(uint32_t i) {
    runnable_[i >> 6] &= ~(uint64_t{1} << (i & 63));
  }

  Database* db_;
  const DurationMs tick_;
  ApplicationStats* sink_ = nullptr;  // borrowed aggregate, may be null

  // Hot columns, indexed by application slot. phase_ is the raw AppPhase
  // byte; timer_ is the think/hold countdown the legacy per-tick decrement
  // maintained (still authoritative — the wheel deadline is derived from
  // it, never the reverse).
  std::vector<uint8_t> phase_;
  std::vector<DurationMs> timer_;
  std::vector<int64_t> acquired_;  // row locks acquired this transaction
  std::vector<uint32_t> gen_;      // bumped on disconnect; validates wheel

  // Runnable bitmap (kRunning and kBlocked applications, plus this tick's
  // wheel wake-ups), swept ascending to build work_.
  std::vector<uint64_t> runnable_;
  std::vector<uint32_t> work_;

  std::deque<ColdApp> cold_;  // pointer-stable: Add never moves a row

  std::vector<std::vector<WheelEntry>> wheel_{
      static_cast<size_t>(kWheelSlots)};
  std::vector<WheelEntry> slot_scratch_;
  // Tick counter; -1 until the first CollectRunnable so connects made
  // before tick 0 fire on it (see Park).
  int64_t current_tick_ = -1;
};

}  // namespace locktune

#endif  // LOCKTUNE_WORKLOAD_APP_STORE_H_
