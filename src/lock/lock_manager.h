// The lock manager: multigranularity locking with escalation and
// memory-aware growth (paper §2.2, §3.3, §3.5).
//
// Responsibilities:
//  * grant/queue table and row locks with the System R compatibility rules,
//    taking the required intent table lock before any row lock;
//  * account every granted or waiting request as one 64 B lock structure
//    allocated from the 128 KB block list;
//  * when the block list is exhausted, grow synchronously through a caller-
//    supplied callback (wired to database overflow memory by the engine);
//  * when an application exceeds its policy quota, or memory cannot grow,
//    escalate: convert the application's intent table lock on its most
//    row-locked table to S or X and release those row locks;
//  * maintain a FIFO "post" wait discipline (Figure 3) and detect deadlocks
//    through the waits-for graph.
//
// Threads: one thread drives a LockManager (and the Database that owns
// it); a caller who shares one between threads wraps it in their own mutex.
// The grow callback and the trace sink run in the middle of a request, so
// they must not call back into the manager.
#ifndef LOCKTUNE_LOCK_LOCK_MANAGER_H_
#define LOCKTUNE_LOCK_LOCK_MANAGER_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <optional>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/check.h"
#include "common/sim_clock.h"
#include "common/stats.h"
#include "common/status.h"
#include "common/units.h"
#include "lock/escalation_policy.h"
#include "lock/lock_head.h"
#include "lock/lock_mode.h"
#include "lock/lock_table.h"
#include "lock/resource.h"
#include "memory/block_list.h"
#include "telemetry/flight_recorder.h"

namespace locktune {

class MetricsRegistry;
class TraceSink;

// Outcome of a Lock() call, from the requesting application's viewpoint.
enum class LockOutcome {
  kGranted,      // the request (and any implied intent lock) is granted
  kWaiting,      // the application is blocked; poll IsBlocked()
  kOutOfMemory,  // no lock structure available and escalation freed nothing
};

struct LockResult {
  LockOutcome outcome = LockOutcome::kGranted;
  // True when this request triggered a lock escalation (completed or
  // initiated) somewhere in the system.
  bool escalated = false;
};

// One application's lock footprint, as reported by TopLockHolders.
struct AppLockUsage {
  AppId app = 0;
  int64_t held_structures = 0;
  bool blocked = false;
};

// Monotonic counters, readable at any time (stats() returns a snapshot).
struct LockManagerStats {
  int64_t lock_requests = 0;
  int64_t grants = 0;
  int64_t lock_waits = 0;             // requests that blocked
  int64_t escalations = 0;            // completed escalations
  int64_t exclusive_escalations = 0;  // escalated to an X table lock
  int64_t escalation_attempts = 0;
  int64_t deadlock_victims = 0;
  int64_t lock_timeouts = 0;  // waiters expired by ExpireTimedOutWaiters
  int64_t out_of_memory_failures = 0;
  int64_t sync_growth_blocks = 0;  // blocks added on the request path
  // Escalations taken because the application prefers escalation over lock
  // memory growth (§6.1 selective escalation).
  int64_t preferred_escalations = 0;
};

struct LockManagerOptions {
  // Initial lock memory (the LOCKLIST configuration), in 128 KB blocks.
  int64_t initial_blocks = 16;
  // Upper bound the lock memory may ever reach (maxLockMemory). The tuner
  // may update it later via set_max_lock_memory().
  Bytes max_lock_memory = 0;
  // Total database memory (used by SQL Server-style policies).
  Bytes database_memory = 0;
  // Synchronous growth: invoked with a block count when the lock list is
  // exhausted. Must return true and account the memory (e.g. take it from
  // database overflow) to permit growth. Null means no growth (static
  // configuration).
  std::function<bool(int64_t blocks)> grow_callback;
  // Escalation policy. Not owned; must outlive the manager. Required.
  EscalationPolicy* policy = nullptr;
  // Virtual clock for lock-wait timing. Optional; without it, timeouts and
  // the wait-time histogram are disabled.
  const SimClock* clock = nullptr;
  // DB2 LOCKTIMEOUT: how long a request may wait before the caller is told
  // to roll back. Negative = wait forever (the DB2 default).
  DurationMs lock_timeout = -1;
};

class LockManager {
 public:
  explicit LockManager(LockManagerOptions options);

  LockManager(const LockManager&) = delete;
  LockManager& operator=(const LockManager&) = delete;

  // Requests `mode` on `resource` for `app`. Row requests implicitly take
  // the intent table lock first. Re-requests by a holder are no-ops or
  // conversions. An application must not issue requests while blocked.
  // `resource` must satisfy FitsPackedKey (CHECKed here and in Release and
  // HeldMode).
  LockResult Lock(AppId app, const ResourceId& resource, LockMode mode);

  // Releases everything `app` holds or waits for (commit/abort under strict
  // two-phase locking), granting unblocked waiters.
  void ReleaseAll(AppId app);

  // Releases one granted resource. Only tests and bench/micro_lock_manager
  // call it; escalation releases rows through ReleaseRowLocksOnTable and
  // commit through ReleaseAll. Finds the entry by scanning `app`'s held
  // list, O(held).
  [[nodiscard]] Status Release(AppId app, const ResourceId& resource);

  // True while `app` has a waiting request (possibly an escalation
  // conversion) that has not been granted.
  bool IsBlocked(AppId app) const;

  // Runs waits-for cycle detection and returns one victim per cycle found,
  // deduplicated in first-found order. A waiting application waits for
  // every other holder whose granted mode conflicts with its wanted mode
  // and, for a new request, for every waiter queued ahead of it. A path-
  // tracking DFS visits the waiting applications; when an edge reaches an
  // application s already on the path, the victim is the topmost path
  // entry above s holding the fewest lock structures if that count is
  // strictly below s's own, and s otherwise (an equal minimum keeps s).
  // The DFS start order follows a hash map's iteration order, which the
  // goldens pin (docs/PERFORMANCE.md §4–§5). Costs O(apps) to find the
  // waiters, plus O(waiters + list entries) to build the graph: each wait
  // head's waiters and each (head, wanted mode)'s conflicting holders are
  // listed once and shared by the nodes waiting there, not copied per
  // waiter. The DFS then examines every edge to an unfinished node, and
  // skips the entries of finished ones through path-compressed links.
  // Victims are *reported*, not aborted: the caller must ReleaseAll() each
  // (and roll back its transaction). Repeated calls without intervening
  // ReleaseAll return the same victims, and stats() counts them on every
  // call.
  std::vector<AppId> DetectDeadlocks();

  // Reports applications whose wait has exceeded the configured
  // lock_timeout (DB2's SQL0911N RC 68). Like deadlock victims they are
  // only reported; the caller rolls them back with ReleaseAll(). Requires
  // a clock and a non-negative lock_timeout; returns empty otherwise.
  std::vector<AppId> ExpireTimedOutWaiters();

  // §6.1 selective escalation: applications marked escalation-preferred
  // escalate instead of growing lock memory when the lock list is full,
  // conserving memory for caching and sorting.
  void SetEscalationPreferred(AppId app, bool preferred);
  bool IsEscalationPreferred(AppId app) const;

  // Installs the structured trace sink: every lock event is also appended
  // to it as one `kind:"lock_event"` record (telemetry/trace.h). Borrowed;
  // null disables.
  void set_trace_sink(TraceSink* sink);

  // --- tuning interface (used by the STMM lock memory tuner) ---

  // Adds `count` blocks of lock memory. The caller is responsible for the
  // memory accounting.
  void AddBlocks(int64_t count);

  // Removes `count` entirely-free blocks from the end of the list;
  // all-or-nothing (paper §2.2). FAILED_PRECONDITION when fewer than
  // `count` blocks are freeable.
  [[nodiscard]] Status TryRemoveBlocks(int64_t count);

  void set_max_lock_memory(Bytes bytes);
  Bytes max_lock_memory() const { return max_lock_memory_; }

  // --- introspection ---
  LockMemoryState MemoryState() const;
  // Snapshot of the monotonic counters.
  LockManagerStats stats() const;
  Bytes allocated_bytes() const;
  Bytes used_bytes() const;
  int64_t block_count() const;
  int64_t entirely_free_blocks() const;
  // Current lockPercentPerApplication as externalized by the policy.
  double CurrentMaxlocksPercent() const;
  // Lock structures held (granted + waiting) by `app`.
  int64_t HeldStructures(AppId app) const;
  // Most lock structures held by any one application, in one pass over the
  // applications.
  int64_t MaxHeldStructures() const;
  // The `top_n` applications in [1, max_app_id] holding the most lock
  // structures (ties broken by ascending app id), including blocked
  // zero-holders. One pass over the applications, so the snapshot probe
  // costs O(apps) at 10^6 connected applications (docs/SCALE.md).
  std::vector<AppLockUsage> TopLockHolders(int max_app_id, int top_n) const;
  // Granted mode of `app` on `resource` (kNone when not held).
  LockMode HeldMode(AppId app, const ResourceId& resource) const;
  int64_t waiting_app_count() const;
  // Distribution of completed lock-wait durations (ms). Only populated
  // when a clock was supplied.
  const Histogram& wait_time_histogram() const { return wait_times_; }
  // Verifies block list and per-app accounting invariants (for tests).
  [[nodiscard]] Status CheckConsistency() const;

  // Registers the lock metric family (`locktune_lock_*`): request/grant/
  // wait/escalation counters, memory and block-churn gauges, and the
  // wait-time histogram. Callback-based — the hot path is untouched; values
  // are read at Collect() time.
  void RegisterMetrics(MetricsRegistry* registry);

  // Registers the hot-path structure gauges (`locktune_lock_table_heads`,
  // `locktune_lock_table_directory_slots`, `locktune_lock_head_pool_*`,
  // `locktune_lock_blocked_apps`): resident heads, directory slots (8 bytes
  // each), head-pool slab/free counts, and the blocked-application count.
  // Kept separate from RegisterMetrics so default runs keep the
  // pre-existing metric set (and byte-identical exports); the inspector
  // (`locktune_sim --inspect`) opts in.
  void RegisterInternalMetrics(MetricsRegistry* registry);

  // --- introspection into the table/pool (tests and gauges) ---
  int64_t lock_table_size() const;
  int64_t lock_table_directory_slots() const;
  int64_t head_pool_free_nodes() const;
  int64_t head_pool_slab_count() const;

 private:
  struct Continuation {
    ResourceId resource;
    LockMode mode;
  };

  // One granted resource in an application's held list. The list has no
  // index: commit (ReleaseAll) and escalation (ReleaseRowLocksOnTable) walk
  // it whole, and the test-only Release scans it. Erasing closes the gap in
  // the same pass, so the list holds no dead entries, and the surviving
  // entries keep grant order — which drives commit-time release order and
  // therefore the grant cascade.
  //
  // `key` is the resource packed as the lock table packs it, so the sweeps
  // read its table and kind without touching the head. `head`
  // back-references the resource's lock head (DB2 chains lock requests to
  // their lock block the same way): pooled head nodes are pointer-stable
  // and a head cannot be erased while this application still holds it, so
  // release and escalation sweeps skip the table probe.
  struct HeldSlot {
    uint64_t key = 0;
    LockHead* head = nullptr;
  };
  static_assert(sizeof(HeldSlot) == 16, "a held entry is two words");

  struct AppState {
    std::vector<HeldSlot> held;  // granted resources in grant order, unique
    // Granted + waiting slots: the held entries, plus one while the
    // application waits on a new (non-conversion) request.
    int64_t held_structures = 0;
    int64_t total_row_locks = 0;  // sum over row_locks_per_table
    std::unordered_map<TableId, int64_t> row_locks_per_table;
    bool waiting = false;
    ResourceId wait_resource;
    LockMode wait_mode = LockMode::kNone;
    bool wait_is_conversion = false;
    bool wait_is_escalation = false;  // complete escalation when granted
    TimeMs wait_since = 0;
    // Bumped on every wait start; timeout-queue entries referencing an
    // older epoch are stale and skipped.
    uint64_t wait_epoch = 0;
    std::optional<Continuation> continuation;
    // Single-entry cache of this application's granted table-lock mode
    // (kNone = known not held), so the per-row coverage check does not
    // re-probe the lock table on every request. Refreshed wherever this
    // application's table-lock holder entry changes; invalidated wholesale
    // by ReleaseAll.
    TableId cached_table = 0;
    LockMode cached_table_mode = LockMode::kNone;
    bool table_cache_valid = false;
    // MRU pointer into row_locks_per_table (values are pointer-stable until
    // their entry is erased), so the per-row-grant count bump skips the map
    // look-up when consecutive grants hit the same table. Nulled whenever
    // any entry may be erased.
    TableId row_cache_table = 0;
    int64_t* row_cache_count = nullptr;
  };

  // Pending LOCKTIMEOUT expiry, queued at wait start. Deadlines are
  // monotone (fixed lock_timeout), so the queue is deadline-ordered by
  // construction and expiry never scans non-expired waiters. Entries whose
  // wait ended early (grant, rollback, connection kill) are invalidated by
  // the wait_epoch bump at wait end, counted in timeout_stale_, and dropped
  // lazily — or eagerly when stale entries dominate (MaybeCompactTimeouts).
  struct TimeoutEntry {
    TimeMs deadline = 0;
    AppId app = 0;
    uint64_t epoch = 0;
  };

  enum class AcquireOutcome { kDone, kBlocked, kNoMemory };

  struct AllocResult {
    LockBlock* slot = nullptr;
    // The requester is waiting on its own escalation conversion; the
    // request resumes as a continuation when it completes.
    bool blocked = false;
    // The allocation went beyond the free-list fast path (growth or victim
    // escalation), so lock-table heads may have been created or erased and
    // pointers obtained before the call are suspect.
    bool table_may_have_changed = false;
  };

  // Full acquisition chain for one request; may recurse for intent locks
  // and set wait state. `state` is GetApp(app); `escalated` reports any
  // escalation triggered.
  AcquireOutcome TryAcquire(AppId app, AppState& state,
                            const ResourceId& resource, LockMode mode,
                            bool* escalated);

  // Acquires `mode` on a single resource (no intent-chain handling).
  AcquireOutcome AcquireOne(AppId app, AppState& state,
                            const ResourceId& resource, LockMode mode,
                            bool* escalated);

  // Allocates one lock structure: from the block list, else by synchronous
  // growth, else by escalating the heaviest row-lock holders (immediately
  // when possible, otherwise by blocking the requester on its own
  // escalation).
  AllocResult AllocateStructure(AppId requester, bool* escalated);

  // Escalates `app`: converts its intent lock on the most row-locked table
  // to S or X and releases those row locks (a waiting app's wait table is
  // never selected — its conversion entry there must stay untouched).
  // Returns kDone when completed, kBlocked when the conversion had to
  // wait, kNoMemory when the app has no row locks to escalate. With
  // `only_if_immediate`, never blocks: returns kNoMemory instead (used
  // for victims other than the requester). With `silent_probe`, a failed
  // attempt is not counted in stats — the phase-2 convoy widening probes
  // waiting victims on every allocation failure, and charging each
  // hopeless probe would swamp `escalation_attempts` with retries of a
  // case the scan already knows is contended.
  AcquireOutcome EscalateApp(AppId app, bool only_if_immediate = false,
                             bool silent_probe = false);

  // Releases all of `app`'s row locks on `table` (escalation completion),
  // dropping their held entries in the same stable pass.
  void ReleaseRowLocksOnTable(AppId app, TableId table);

  // Grants eligible waiters on `resource` (and on any resources unlocked as
  // a consequence), processing the cascade to fixpoint.
  void ProcessQueue(const ResourceId& resource);

  // Called when `app`'s waiting request was granted: clears wait state,
  // completes escalation, and issues any continuation.
  void OnWaitGranted(AppId app, const ResourceId& resource);

  // Appends `resource` (whose lock head is `head`) to the held list.
  void AddHeldEntry(AppState& state, const ResourceId& resource,
                    LockHead* head);

  // Erases `resource`'s entry from the held list, found by a scan from the
  // newest entry.
  void EraseHeldEntry(AppState& state, const ResourceId& resource);

  AppState& GetApp(AppId app);

  LockHead* FindHead(const ResourceId& resource);
  const LockHead* FindHead(const ResourceId& resource) const;

  // Granted table-lock mode of `app` on `table`, served from the AppState
  // single-entry cache when possible.
  LockMode CachedTableMode(AppId app, AppState& state, TableId table) const;

  // Records `mode` as `state`'s granted table-lock mode on `table` (call at
  // every site that grants, converts, or releases a table lock).
  static void NoteTableMode(AppState& state, TableId table, LockMode mode) {
    state.cached_table = table;
    state.cached_table_mode = mode;
    state.table_cache_valid = true;
  }

  // Counts one granted row lock on `table`, through the MRU entry pointer.
  static void BumpRowCount(AppState& state, TableId table) {
    if (state.row_cache_count != nullptr && state.row_cache_table == table) {
      ++*state.row_cache_count;
    } else {
      int64_t& count = state.row_locks_per_table[table];
      ++count;
      state.row_cache_table = table;
      state.row_cache_count = &count;
    }
    ++state.total_row_locks;
  }

  void DrainWorkList();

  // How far ahead of its cursor CheckConsistency prefetches held entries.
  static constexpr size_t kCheckPrefetchEntries = 16;

  LockManagerOptions options_;
  Bytes max_lock_memory_;

  // Stamps wait-state entry, queues its timeout and emits WAIT_BEGIN.
  void MarkWaitStart(AppId app, AppState& state);

  // Ends `state`'s wait for timeout-queue purposes: bumps wait_epoch so any
  // queued entry is stale, and counts/compacts the staleness.
  void NoteWaitEnded(AppState& state);

  // Rebuilds the timeout queue without stale entries once they dominate
  // (amortized O(1) per ended wait).
  void MaybeCompactTimeouts();

  // Records a lock event (wait begin/end, escalation, timeout, deadlock
  // victim, out of lock memory, synchronous growth) in the flight recorder
  // and, for all kinds but the wait pair, the armed Chrome trace, then
  // appends it to the trace sink, when one is installed, as one
  // `lock_event` record.
  void Emit(EventKind kind, AppId app, const ResourceId& resource,
            LockMode mode, int64_t value);

  BlockList blocks_;
  LockTable table_;
  std::unordered_map<AppId, AppState> apps_;
  std::unordered_set<AppId> escalation_preferred_;
  std::deque<ResourceId> work_list_;
  bool draining_ = false;
  // Applications currently blocked on a wait. Maintained at wait start/end
  // so the per-tick deadlock/timeout checks are O(1) when nothing waits.
  int64_t blocked_count_ = 0;
  // Deadline-ordered pending timeouts (lazy deletion via wait_epoch).
  std::deque<TimeoutEntry> timeout_queue_;
  // Queue entries invalidated by an early wait end (grant, rollback, kill).
  int64_t timeout_stale_ = 0;
  LockManagerStats stats_;
  TraceSink* trace_sink_ = nullptr;
  Histogram wait_times_{{1, 10, 100, 1000, 10'000, 100'000}};
};

}  // namespace locktune

#endif  // LOCKTUNE_LOCK_LOCK_MANAGER_H_
