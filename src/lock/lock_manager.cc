#include "lock/lock_manager.h"

#include <algorithm>
#include <iterator>

#include "common/check.h"
#include "common/logging.h"
#include "telemetry/chrome_trace.h"
#include "telemetry/flight_recorder.h"
#include "telemetry/metrics.h"
#include "telemetry/trace.h"

namespace locktune {

std::string_view LockEventKindName(LockEventKind kind) {
  switch (kind) {
    case LockEventKind::kWaitBegin:
      return "WAIT_BEGIN";
    case LockEventKind::kWaitEnd:
      return "WAIT_END";
    case LockEventKind::kEscalation:
      return "ESCALATION";
    case LockEventKind::kTimeout:
      return "TIMEOUT";
    case LockEventKind::kDeadlockVictim:
      return "DEADLOCK_VICTIM";
    case LockEventKind::kOutOfLockMemory:
      return "OUT_OF_LOCK_MEMORY";
    case LockEventKind::kSynchronousGrowth:
      return "SYNC_GROWTH";
  }
  return "?";
}

LockManager::LockManager(LockManagerOptions options)
    : options_(std::move(options)),
      max_lock_memory_(options_.max_lock_memory) {
  LOCKTUNE_DCHECK(options_.policy != nullptr && "an escalation policy is required");
  for (int64_t i = 0; i < options_.initial_blocks; ++i) blocks_.AddBlock();
}

LockResult LockManager::Lock(AppId app, const ResourceId& resource,
                             LockMode mode) {
  MutexLock guard(mu_);
  return RequestLocked(app, resource, mode);
}

LockResult LockManager::RequestLocked(AppId app, const ResourceId& resource,
                                      LockMode mode) {
  ++stats_.lock_requests;
  options_.policy->OnLockRequest();
  AppState& state = GetApp(app);
  LOCKTUNE_DCHECK(!state.waiting && "application issued a request while blocked");

  bool escalated = false;
  const AcquireOutcome outcome =
      TryAcquire(app, state, resource, mode, &escalated);
  DrainWorkList();

  LockResult result;
  result.escalated = escalated;
  switch (outcome) {
    case AcquireOutcome::kDone:
      result.outcome = LockOutcome::kGranted;
      break;
    case AcquireOutcome::kBlocked:
      result.outcome = LockOutcome::kWaiting;
      break;
    case AcquireOutcome::kNoMemory:
      result.outcome = LockOutcome::kOutOfMemory;
      ++stats_.out_of_memory_failures;
      Emit(LockEventKind::kOutOfLockMemory, app, resource, mode, 0);
      break;
  }
  return result;
}

BatchResult LockManager::AcquireBatch(AppId app, LockRequestSource& source) {
  // Each item runs the identical path a Lock() call would, in the identical
  // order (the source draws lazily), so a batch is observationally the
  // per-item loop with one mutex acquisition instead of one per item.
  MutexLock guard(mu_);
  BatchResult result;
  while (std::optional<BatchItem> item = source.Next()) {
    const LockResult r = RequestLocked(app, item->resource, item->mode);
    result.escalated |= r.escalated;
    result.outcome = r.outcome;
    if (r.outcome != LockOutcome::kGranted) return result;
    ++result.granted;
  }
  return result;
}

LockManager::AcquireOutcome LockManager::TryAcquire(AppId app,
                                                    AppState& state,
                                                    const ResourceId& resource,
                                                    LockMode mode,
                                                    bool* escalated) {
  if (resource.kind == ResourceKind::kRow) {
    // A table lock covering the row mode makes the row lock unnecessary —
    // this is what keeps an escalated application from re-consuming lock
    // memory on the same table.
    const LockMode table_mode = CachedTableMode(app, state, resource.table);
    if (Covers(table_mode, mode)) {
      ++stats_.grants;
      return AcquireOutcome::kDone;
    }
    // Multigranularity: intent lock on the table first.
    const LockMode intent = IntentModeFor(mode);
    if (!Covers(table_mode, intent)) {
      const AcquireOutcome io = AcquireOne(
          app, state, TableResource(resource.table), intent, escalated);
      if (io == AcquireOutcome::kBlocked) {
        // Resume the full row request once the intent (or escalation)
        // wait is granted.
        state.continuation = Continuation{resource, mode};
        return io;
      }
      if (io == AcquireOutcome::kNoMemory) return io;
      // The intent acquisition may itself have escalated this table to
      // S or X; re-check coverage before taking the row lock.
      if (Covers(CachedTableMode(app, state, resource.table), mode)) {
        ++stats_.grants;
        return AcquireOutcome::kDone;
      }
    }
  }
  const AcquireOutcome out = AcquireOne(app, state, resource, mode, escalated);
  if (out == AcquireOutcome::kBlocked) {
    if (state.wait_is_escalation) {
      // Blocked on an escalation conversion, not on the request itself:
      // re-run the request after the escalation completes.
      state.continuation = Continuation{resource, mode};
    }
  }
  return out;
}

LockManager::AcquireOutcome LockManager::AcquireOne(AppId app,
                                                    AppState& state,
                                                    const ResourceId& resource,
                                                    LockMode mode,
                                                    bool* escalated) {
  // One hash serves every table touch this request makes (find, create).
  const uint64_t hash = ResourceIdHash{}(resource);
  // Do not create the head until a holder or waiter is actually added:
  // early-return paths below must not leave empty heads behind.
  LockHead* found = table_.Find(resource, hash);
  if (found != nullptr) {
    if (LockRequest* holder = found->FindHolder(app); holder != nullptr) {
      if (Covers(holder->mode, mode)) {
        ++stats_.grants;
        return AcquireOutcome::kDone;
      }
      const LockMode target = Supremum(holder->mode, mode);
      if (found->CanGrantConversion(app, target)) {
        found->SetHolderMode(holder, target);
        if (resource.kind == ResourceKind::kTable) {
          NoteTableMode(state, resource.table, target);
        }
        ++stats_.grants;
        return AcquireOutcome::kDone;
      }
      WaitingRequest w;
      w.app = app;
      w.mode = target;
      w.is_conversion = true;
      found->EnqueueConversion(w);
      state.waiting = true;
      state.wait_resource = resource;
      state.wait_mode = target;
      state.wait_is_conversion = true;
      state.wait_is_escalation = false;
      MarkWaitStart(app, state);
      ++stats_.lock_waits;
      return AcquireOutcome::kBlocked;
    }
  }

  // New request: enforce the per-application quota before consuming another
  // lock structure (paper §3.5). Escalation replaces row locks with one
  // table lock; afterwards the request proceeds.
  bool table_stable = true;  // `found` still valid / absence still holds
  const LockMemoryState mem = MemoryStateLocked();
  const int64_t limit = options_.policy->MaxStructuresPerApp(mem);
  const bool over_quota = state.held_structures + 1 > limit;
  const bool memory_forced = options_.policy->ForcesMemoryEscalation(mem);
  if (over_quota || memory_forced) {
    table_stable = false;
    const AcquireOutcome esc = EscalateApp(app);
    if (esc == AcquireOutcome::kDone) *escalated = true;
    if (esc == AcquireOutcome::kBlocked) {
      *escalated = true;
      return AcquireOutcome::kBlocked;  // caller sets the continuation
    }
    // kNoMemory: nothing to escalate (no row locks); proceed regardless —
    // the hard memory limit below still applies.
    // The escalation may have covered the requested resource entirely.
    if (resource.kind == ResourceKind::kRow &&
        Covers(CachedTableMode(app, state, resource.table), mode)) {
      ++stats_.grants;
      return AcquireOutcome::kDone;
    }
    // The escalation released this app's row locks; if `resource` was one
    // of them the holder is gone, which is consistent: re-acquire below.
  }

  const AllocResult alloc = AllocateStructure(app, escalated);
  if (alloc.table_may_have_changed) table_stable = false;
  if (alloc.blocked) return AcquireOutcome::kBlocked;
  if (alloc.slot == nullptr) {
    // Escalation of some application may have covered the request.
    if (resource.kind == ResourceKind::kRow &&
        Covers(CachedTableMode(app, state, resource.table), mode)) {
      ++stats_.grants;
      return AcquireOutcome::kDone;
    }
    return AcquireOutcome::kNoMemory;
  }
  ++state.held_structures;

  // The head is created here, when a holder or waiter is guaranteed to be
  // added. While the table is stable the earlier probe is still good: a
  // found head's node address cannot have changed and an absent key is
  // still absent, so the re-find inside GetOrCreate is skipped. Any
  // escalation above (which can create table heads and erase row heads)
  // invalidates both and forces the full look-up.
  LockHead& head2 = !table_stable ? table_.GetOrCreate(resource, hash)
                    : found != nullptr ? *found
                                       : table_.Create(resource, hash);
  if (head2.CanGrantNew(mode)) {
    LockRequest r;
    r.app = app;
    r.mode = mode;
    r.slot = alloc.slot;
    head2.AddHolder(r);
    AddHeldEntry(state, resource, &head2);
    if (resource.kind == ResourceKind::kRow) {
      BumpRowCount(state, resource.table);
    } else {
      NoteTableMode(state, resource.table, mode);
    }
    ++stats_.grants;
    return AcquireOutcome::kDone;
  }

  WaitingRequest w;
  w.app = app;
  w.mode = mode;
  w.is_conversion = false;
  w.slot = alloc.slot;
  head2.EnqueueNew(w);
  state.waiting = true;
  state.wait_resource = resource;
  state.wait_mode = mode;
  state.wait_is_conversion = false;
  state.wait_is_escalation = false;
  MarkWaitStart(app, state);
  ++stats_.lock_waits;
  return AcquireOutcome::kBlocked;
}

LockManager::AllocResult LockManager::AllocateStructure(AppId requester,
                                                        bool* escalated) {
  AllocResult out;
  Result<LockBlock*> slot = blocks_.AllocateSlot();
  if (slot.ok()) {
    out.slot = slot.value();
    return out;
  }

  // Past this point growth or escalation may create/erase lock-table heads.
  out.table_may_have_changed = true;

  // §6.1 selective escalation: applications that prefer escalation over
  // growth trade their own row locks for a table lock before any new
  // memory is consumed.
  if (escalation_preferred_.count(requester) > 0) {
    const AcquireOutcome esc = EscalateApp(requester);
    if (esc == AcquireOutcome::kDone) {
      *escalated = true;
      ++stats_.preferred_escalations;
      slot = blocks_.AllocateSlot();
      if (slot.ok()) {
        out.slot = slot.value();
        return out;
      }
    } else if (esc == AcquireOutcome::kBlocked) {
      *escalated = true;
      ++stats_.preferred_escalations;
      out.blocked = true;
      return out;
    }
    // kNoMemory: nothing to escalate; fall through to normal growth.
  }

  // Synchronous growth from database overflow memory (paper §3.3).
  if (options_.grow_callback && options_.grow_callback(1)) {
    blocks_.AddBlock();
    ++stats_.sync_growth_blocks;
    options_.policy->OnResize();
    Emit(LockEventKind::kSynchronousGrowth, requester, ResourceId{},
         LockMode::kNone, 1);
    slot = blocks_.AllocateSlot();
    LOCKTUNE_DCHECK(slot.ok());
    out.slot = slot.value();
    return out;
  }

  // Growth denied: escalate the heaviest row-lock holders until a structure
  // frees up. Applications other than the requester are only escalated when
  // the table conversion can be granted immediately — we cannot block an
  // application that is not inside a lock request.
  //
  // Two-phase scan. Phase 1 is the legacy scan over non-waiting holders.
  // Phase 2 widens to *waiting* holders, but only when phase 1 found
  // nobody: in the escalation-convoy shape (docs/FUZZING.md) every heavy
  // holder is blocked converting on the same table, and skipping them all
  // turns a reclaimable locklist into a hard OUT_OF_LOCK_MEMORY. A waiting
  // victim's row locks on tables *other than its wait table* are fair
  // game — EscalateApp never touches the table its wait rides on, and
  // only_if_immediate means no second wait is ever enqueued.
  for (int attempt = 0; attempt < 3; ++attempt) {
    AppId victim = -1;
    int64_t victim_rows = 0;
    bool waiting_phase = false;
    // locklint: ordered-ok(max scan; ties broken by legacy hash order, which
    // the golden suite locks in)
    for (const auto& [id, st] : apps_) {
      if (st.waiting || id == requester) continue;
      if (st.total_row_locks > victim_rows) {
        victim_rows = st.total_row_locks;
        victim = id;
      }
    }
    if (victim < 0) {
      waiting_phase = true;
      // Weigh a waiting victim by the row locks EscalateApp could actually
      // reclaim — everything outside its wait table. A convoy member whose
      // rows all sit on the table it is converting on is not a victim at
      // all, so the probe (and its attempts counter) never fires for it.
      // locklint: ordered-ok(max scan; ties broken by legacy hash order,
      // which the golden suite locks in)
      for (const auto& [id, st] : apps_) {
        if (!st.waiting || id == requester) continue;
        int64_t reclaimable = st.total_row_locks;
        const auto it = st.row_locks_per_table.find(st.wait_resource.table);
        if (it != st.row_locks_per_table.end()) reclaimable -= it->second;
        if (reclaimable > victim_rows) {
          victim_rows = reclaimable;
          victim = id;
        }
      }
    }
    if (victim < 0) break;
    if (EscalateApp(victim, /*only_if_immediate=*/true,
                    /*silent_probe=*/waiting_phase) !=
        AcquireOutcome::kDone) {
      break;  // conflicting table traffic; fall through to self-escalation
    }
    *escalated = true;
    slot = blocks_.AllocateSlot();
    if (slot.ok()) {
      out.slot = slot.value();
      return out;
    }
  }

  // Last resort: the requester escalates its own row locks, waiting for the
  // table lock if it must. This blocking escalation is what devastates
  // concurrency under an undersized static LOCKLIST (Figure 8).
  switch (EscalateApp(requester)) {
    case AcquireOutcome::kDone: {
      *escalated = true;
      slot = blocks_.AllocateSlot();
      if (slot.ok()) out.slot = slot.value();
      return out;
    }
    case AcquireOutcome::kBlocked:
      *escalated = true;
      out.blocked = true;
      return out;
    case AcquireOutcome::kNoMemory:
      return out;  // nothing anywhere to escalate: hard failure
  }
  return out;
}

LockManager::AcquireOutcome LockManager::EscalateApp(AppId app,
                                                     bool only_if_immediate,
                                                     bool silent_probe) {
  if (!silent_probe) ++stats_.escalation_attempts;
  AppState& state = GetApp(app);

  // Pick the table with the most row locks held by this application. A
  // waiting application's wait table is off limits: it has a conversion
  // entry enqueued there (or is mid-request on one of its rows), and
  // escalating would mutate the very holder entry that conversion is
  // keyed on. The two-phase victim scan relies on this to safely escalate
  // waiting victims' *other* tables.
  TableId victim_table = -1;
  int64_t most_rows = 0;
  // locklint: ordered-ok(max scan; ties broken by legacy hash order, which
  // the golden suite locks in)
  for (const auto& [tbl, n] : state.row_locks_per_table) {
    if (state.waiting && state.wait_resource.table == tbl) continue;
    if (n > most_rows) {
      most_rows = n;
      victim_table = tbl;
    }
  }
  if (victim_table < 0) return AcquireOutcome::kNoMemory;

  // Escalate to X when any row lock is U or X, otherwise S.
  LockMode target = LockMode::kS;
  for (const HeldSlot& slot : state.held) {
    const ResourceId& res = slot.res;
    if (res.kind != ResourceKind::kRow || res.table != victim_table) continue;
    const LockHead* h = slot.head;
    LOCKTUNE_DCHECK(h != nullptr);
    const LockRequest* r = h->FindHolder(app);
    LOCKTUNE_DCHECK(r != nullptr);
    if (r->mode == LockMode::kU || r->mode == LockMode::kX) {
      target = LockMode::kX;
      break;
    }
  }

  const ResourceId table_res = TableResource(victim_table);
  const uint64_t table_hash = ResourceIdHash{}(table_res);
  LockHead& head = table_.GetOrCreate(table_res, table_hash);
  LockRequest* holder = head.FindHolder(app);
  LOCKTUNE_DCHECK(holder != nullptr && "row locks imply an intent table lock");
  const LockMode new_mode = Supremum(holder->mode, target);

  if (Covers(holder->mode, new_mode) ||
      head.CanGrantConversion(app, new_mode)) {
    head.SetHolderMode(holder, new_mode);
    NoteTableMode(state, victim_table, new_mode);
    // A probe that lands is a real attempt; only failures stay silent.
    if (silent_probe) ++stats_.escalation_attempts;
    ++stats_.escalations;
    if (target == LockMode::kX) ++stats_.exclusive_escalations;
    ReleaseRowLocksOnTable(app, victim_table);
    Emit(LockEventKind::kEscalation, app, table_res, new_mode, most_rows);
    return AcquireOutcome::kDone;
  }
  if (only_if_immediate) return AcquireOutcome::kNoMemory;

  WaitingRequest w;
  w.app = app;
  w.mode = new_mode;
  w.is_conversion = true;
  head.EnqueueConversion(w);
  state.waiting = true;
  state.wait_resource = table_res;
  state.wait_mode = new_mode;
  state.wait_is_conversion = true;
  state.wait_is_escalation = true;
  MarkWaitStart(app, state);
  ++stats_.lock_waits;
  return AcquireOutcome::kBlocked;
}

void LockManager::ReleaseRowLocksOnTable(AppId app, TableId table) {
  AppState& state = GetApp(app);
  // One stable pass: release the table's row locks and shift every other
  // entry down over the gaps, so the survivors keep grant order.
  size_t kept = 0;
  for (const HeldSlot& slot : state.held) {
    const ResourceId& res = slot.res;
    if (res.kind != ResourceKind::kRow || res.table != table) {
      state.held[kept++] = slot;
      continue;
    }
    LockHead* head = slot.head;
    LOCKTUNE_DCHECK(head != nullptr);
    LockBlock* block = head->RemoveHolder(app);
    LOCKTUNE_DCHECK(block != nullptr);
    blocks_.FreeSlot(block);
    --state.held_structures;
    if (head->waiters().empty()) {
      if (!head->HasHolders()) table_.EraseIfEmpty(res);
    } else {
      work_list_.push_back(res);
    }
  }
  state.held.resize(kept);
  const auto it = state.row_locks_per_table.find(table);
  if (it != state.row_locks_per_table.end()) {
    state.total_row_locks -= it->second;
    state.row_locks_per_table.erase(it);
    state.row_cache_count = nullptr;
  }
}

void LockManager::ReleaseAll(AppId app) {
  MutexLock guard(mu_);
  AppState& state = GetApp(app);

  if (state.waiting) {
    if (LockHead* head = FindHead(state.wait_resource); head != nullptr) {
      bool removed = false;
      LockBlock* slot = head->RemoveWaiter(app, &removed);
      if (removed) {
        if (slot != nullptr) {
          blocks_.FreeSlot(slot);
          --state.held_structures;
        }
        // Removing a waiter can unblock those queued behind it.
        work_list_.push_back(state.wait_resource);
      }
    }
    state.waiting = false;
    state.wait_is_conversion = false;
    state.wait_is_escalation = false;
    --blocked_count_;
    // The queued timeout entry (if any) is now stale.
    NoteWaitEnded(state);
  }
  state.continuation.reset();

  for (const HeldSlot& slot : state.held) {
    LockHead* head = slot.head;
    LOCKTUNE_DCHECK(head != nullptr);
    LockBlock* block = head->RemoveHolder(app);
    LOCKTUNE_DCHECK(block != nullptr);
    blocks_.FreeSlot(block);
    --state.held_structures;
    // Queue the resource only when waiters can actually be granted;
    // ProcessQueue on a waiterless head would only re-probe and erase, so
    // do the erase here and skip the work-list round trip.
    if (head->waiters().empty()) {
      if (!head->HasHolders()) {
        table_.EraseIfEmpty(slot.res, ResourceIdHash{}(slot.res));
      }
    } else {
      work_list_.push_back(slot.res);
    }
  }
  state.held.clear();  // keeps capacity for the next transaction
  state.row_locks_per_table.clear();
  state.total_row_locks = 0;
  state.table_cache_valid = false;
  state.row_cache_count = nullptr;
  LOCKTUNE_DCHECK(state.held_structures == 0);

  DrainWorkList();
}

Status LockManager::Release(AppId app, const ResourceId& resource) {
  MutexLock guard(mu_);
  AppState& state = GetApp(app);
  const uint64_t hash = ResourceIdHash{}(resource);
  LockHead* head = table_.Find(resource, hash);
  if (head == nullptr || head->FindHolder(app) == nullptr) {
    return Status::NotFound("application does not hold " +
                            resource.ToString());
  }
  LockBlock* slot = head->RemoveHolder(app);
  blocks_.FreeSlot(slot);
  --state.held_structures;
  EraseHeldEntry(state, resource);
  if (resource.kind == ResourceKind::kRow) {
    auto it = state.row_locks_per_table.find(resource.table);
    if (it != state.row_locks_per_table.end()) {
      --state.total_row_locks;
      if (--it->second == 0) {
        state.row_locks_per_table.erase(it);
        state.row_cache_count = nullptr;
      }
    }
  } else {
    NoteTableMode(state, resource.table, LockMode::kNone);
  }
  if (head->waiters().empty()) {
    if (!head->HasHolders()) table_.EraseIfEmpty(resource, hash);
  } else {
    work_list_.push_back(resource);
    DrainWorkList();
  }
  return Status::Ok();
}

bool LockManager::IsBlocked(AppId app) const {
  MutexLock guard(mu_);
  const auto it = apps_.find(app);
  return it != apps_.end() && it->second.waiting;
}

void LockManager::ProcessQueue(const ResourceId& resource) {
  const uint64_t hash = ResourceIdHash{}(resource);
  LockHead* headp = table_.Find(resource, hash);
  if (headp == nullptr) return;
  LockHead& head = *headp;

  while (!head.waiters().empty()) {
    const WaitingRequest& w = head.FrontWaiter();
    if (w.is_conversion) {
      LockRequest* holder = head.FindHolder(w.app);
      LOCKTUNE_DCHECK(holder != nullptr);
      if (!head.CanGrantConversion(w.app, w.mode)) break;
      const WaitingRequest granted = head.PopFrontWaiter();
      head.SetHolderMode(holder, granted.mode);
      if (resource.kind == ResourceKind::kTable) {
        NoteTableMode(GetApp(granted.app), resource.table, granted.mode);
      }
      ++stats_.grants;
      OnWaitGranted(granted.app, resource);
    } else {
      if (!Compatible(head.GrantedGroupMode(), w.mode)) break;
      const WaitingRequest granted = head.PopFrontWaiter();
      LockRequest r;
      r.app = granted.app;
      r.mode = granted.mode;
      r.slot = granted.slot;
      head.AddHolder(r);
      AppState& state = GetApp(granted.app);
      AddHeldEntry(state, resource, &head);
      if (resource.kind == ResourceKind::kRow) {
        BumpRowCount(state, resource.table);
      } else {
        NoteTableMode(state, resource.table, granted.mode);
      }
      ++stats_.grants;
      OnWaitGranted(granted.app, resource);
    }
  }

  // The head node's address is stable across OnWaitGranted (pooled nodes
  // never move); re-look-up before erasing in case the cascade already
  // emptied and erased it.
  table_.EraseIfEmpty(resource, hash);
}

void LockManager::OnWaitGranted(AppId app, const ResourceId& resource) {
  AppState& state = GetApp(app);
  LOCKTUNE_DCHECK(state.waiting);
  const bool was_escalation = state.wait_is_escalation;
  const LockMode granted_mode = state.wait_mode;
  if (options_.clock != nullptr) {
    wait_times_.Add(
        static_cast<double>(options_.clock->now() - state.wait_since));
  }
  Emit(LockEventKind::kWaitEnd, app, resource, granted_mode,
       options_.clock != nullptr ? options_.clock->now() - state.wait_since
                                 : 0);
  state.waiting = false;
  state.wait_is_conversion = false;
  state.wait_is_escalation = false;
  --blocked_count_;
  // The queued timeout entry for this wait is now stale.
  NoteWaitEnded(state);

  if (was_escalation) {
    ++stats_.escalations;
    if (granted_mode == LockMode::kX) ++stats_.exclusive_escalations;
    LOCKTUNE_DCHECK(resource.kind == ResourceKind::kTable);
    const int64_t rows_before =
        state.row_locks_per_table.count(resource.table) > 0
            ? state.row_locks_per_table[resource.table]
            : 0;
    ReleaseRowLocksOnTable(app, resource.table);
    Emit(LockEventKind::kEscalation, app, resource, granted_mode,
         rows_before);
  }

  if (state.continuation.has_value()) {
    const Continuation c = *state.continuation;
    state.continuation.reset();
    bool escalated = false;
    const AcquireOutcome out =
        TryAcquire(app, state, c.resource, c.mode, &escalated);
    if (out == AcquireOutcome::kNoMemory) {
      // The resumed request could not get a lock structure. The application
      // is unblocked; the failure is visible in the counters (engines treat
      // it like a statement error).
      ++stats_.out_of_memory_failures;
    }
  }
}

namespace {

// AppId -> dense waits-for node id. Open addressing with linear probing at
// most half full, so a look-up touches one or two adjacent slots of a small
// array instead of chasing a std::unordered_map node.
class DenseIdTable {
 public:
  static constexpr uint32_t kAbsent = UINT32_MAX;

  explicit DenseIdTable(size_t count) {
    int bits = 4;
    while ((size_t{1} << bits) < 2 * count) ++bits;
    shift_ = 32 - bits;
    slots_.resize(size_t{1} << bits);
  }

  // `app` must not be present yet.
  void Insert(AppId app, uint32_t id) {
    size_t i = Home(app);
    while (slots_[i].id != kAbsent) i = (i + 1) & (slots_.size() - 1);
    slots_[i] = {app, id};
  }

  uint32_t Find(AppId app) const {
    for (size_t i = Home(app);; i = (i + 1) & (slots_.size() - 1)) {
      const Slot& slot = slots_[i];
      if (slot.id == kAbsent || slot.app == app) return slot.id;
    }
  }

 private:
  struct Slot {
    AppId app = 0;
    uint32_t id = kAbsent;
  };

  size_t Home(AppId app) const {
    return (static_cast<uint32_t>(app) * 0x9E3779B1u) >> shift_;
  }

  int shift_;
  std::vector<Slot> slots_;
};

}  // namespace

std::vector<AppId> LockManager::DetectDeadlocks() {
  MutexLock guard(mu_);
  // Nothing waits, so no edge exists: the common idle tick costs one
  // counter read instead of an O(apps) scan.
  if (blocked_count_ == 0) return {};

  // Nodes are the waiting applications whose wait head exists, numbered
  // densely in apps_ order. An edge to any other application would lead to
  // a sink (no out-edges, never on a cycle), so such edges are dropped.
  //
  // The DFS starts nodes in the iteration order of `start_order`, a hash
  // map filled in that same apps_ order. Victim choice on overlapping
  // cycles depends on the start order, and the goldens pin it. The map
  // must be built fresh on every call, with no reserve(): its bucket
  // count, and so its iteration order, depends on its insertion history.
  struct Node {
    AppId app;
    const AppState* state;
    const LockHead* head;
  };
  std::vector<Node> nodes;
  std::unordered_map<AppId, uint32_t> start_order;
  // locklint: ordered-ok(the fill order of start_order decides its hash
  // order, the DFS start order below; the dense ids are not observable)
  for (const auto& [app, state] : apps_) {
    if (!state.waiting) continue;
    const LockHead* head = FindHead(state.wait_resource);
    if (head == nullptr) continue;
    start_order.emplace(app, static_cast<uint32_t>(nodes.size()));
    nodes.push_back({app, &state, head});
  }
  const uint32_t n = static_cast<uint32_t>(nodes.size());
  DenseIdTable ids(n);
  for (uint32_t v = 0; v < n; ++v) ids.Insert(nodes[v].app, v);

  // Waits-for adjacency in CSR form: node v's successors are
  // succ[first[v] .. first[v + 1]). A waiting application waits for every
  // *other* holder whose granted mode conflicts with its wanted mode
  // (tombstones hold kNone and conflict with nothing), in the head's
  // holder arrival order; a new request also waits for every waiter queued
  // ahead of it (strict FIFO: it cannot overtake). Edges keep the queue
  // order, duplicates included — an application can be both a conflicting
  // holder and a conversion queued ahead.
  std::vector<uint32_t> first(n + 1);
  std::vector<uint32_t> succ;
  std::vector<int64_t> held(n);
  for (uint32_t v = 0; v < n; ++v) {
    const Node& node = nodes[v];
    first[v] = static_cast<uint32_t>(succ.size());
    held[v] = node.state->held_structures;
    node.head->ForEachHolder([&](const LockRequest& h) {
      if (h.app == node.app || Compatible(h.mode, node.state->wait_mode)) {
        return;
      }
      const uint32_t target = ids.Find(h.app);
      if (target != DenseIdTable::kAbsent) succ.push_back(target);
    });
    if (!node.state->wait_is_conversion) {
      for (const WaitingRequest& w : node.head->waiters()) {
        if (w.app == node.app) break;
        const uint32_t target = ids.Find(w.app);
        if (target != DenseIdTable::kAbsent) succ.push_back(target);
      }
    }
  }
  first[n] = static_cast<uint32_t>(succ.size());

  // Iterative path-tracking DFS. The path is `path` (node ids, bottom to
  // top); `pos` is a grey node's index in it and `cursor` a node's next
  // unexplored edge. A back-edge to grey node s closes a cycle through the
  // path entries above s; its victim is the topmost entry with the fewest
  // held structures among them if that count is below s's own, else s.
  // `lower[i]` links path index i to the nearest index below it with
  // strictly fewer held structures (kNone if none), so the topmost minimum
  // above s is the last link from the top that stays above s.
  constexpr uint32_t kNone = UINT32_MAX;
  enum : uint8_t { kWhite, kGrey, kBlack };
  std::vector<uint8_t> color(n, kWhite);
  std::vector<uint32_t> pos(n);
  std::vector<uint32_t> cursor(first.begin(), first.end() - 1);
  std::vector<uint32_t> path;
  std::vector<uint32_t> lower;
  std::vector<uint8_t> is_victim(n, 0);
  std::vector<uint32_t> victim_ids;
  auto push = [&](uint32_t v) {
    uint32_t below =
        path.empty() ? kNone : static_cast<uint32_t>(path.size() - 1);
    while (below != kNone && held[path[below]] >= held[v]) {
      below = lower[below];
    }
    color[v] = kGrey;
    pos[v] = static_cast<uint32_t>(path.size());
    path.push_back(v);
    lower.push_back(below);
  };
  // locklint: ordered-ok(DFS start order is this map's hash order; victim
  // choice on overlapping cycles is golden-locked to it)
  for (const auto& [app, start] : start_order) {
    if (color[start] != kWhite) continue;
    push(start);
    while (!path.empty()) {
      const uint32_t v = path.back();
      if (cursor[v] == first[v + 1]) {
        color[v] = kBlack;
        path.pop_back();
        lower.pop_back();
        continue;
      }
      const uint32_t s = succ[cursor[v]++];
      if (color[s] == kWhite) {
        push(s);
      } else if (color[s] == kGrey) {
        uint32_t top = static_cast<uint32_t>(path.size() - 1);
        while (lower[top] != kNone && lower[top] > pos[s]) top = lower[top];
        const uint32_t victim = held[path[top]] < held[s] ? path[top] : s;
        if (is_victim[victim] == 0) {
          is_victim[victim] = 1;
          victim_ids.push_back(victim);
        }
      }
    }
  }

  std::vector<AppId> victims;
  victims.reserve(victim_ids.size());
  for (uint32_t v : victim_ids) victims.push_back(nodes[v].app);
  stats_.deadlock_victims += static_cast<int64_t>(victims.size());
  for (uint32_t v : victim_ids) {
    const AppState& state = *nodes[v].state;
    Emit(LockEventKind::kDeadlockVictim, nodes[v].app, state.wait_resource,
         state.wait_mode, state.held_structures);
  }
  // When armed (--flight-dump / paranoid), the first victim selection dumps
  // the event history that led to the cycle — once per process, since
  // victims are routine in contention scenarios.
  if (!victims.empty() && TakeVictimDumpBudget()) {
    std::fprintf(stderr, "deadlock victim selected; dumping flight recorder\n");
    DumpFlightRecorder(stderr);
  }
  return victims;
}

void LockManager::AddBlocks(int64_t count) {
  MutexLock guard(mu_);
  for (int64_t i = 0; i < count; ++i) blocks_.AddBlock();
  if (count > 0) options_.policy->OnResize();
}

Status LockManager::TryRemoveBlocks(int64_t count) {
  MutexLock guard(mu_);
  Status s = blocks_.TryRemoveBlocks(count);
  if (s.ok() && count > 0) options_.policy->OnResize();
  return s;
}

void LockManager::set_max_lock_memory(Bytes bytes) {
  MutexLock guard(mu_);
  max_lock_memory_ = bytes;
  options_.policy->OnResize();
}

LockMemoryState LockManager::MemoryState() const {
  MutexLock guard(mu_);
  return MemoryStateLocked();
}

LockManagerStats LockManager::stats() const {
  MutexLock guard(mu_);
  return stats_;
}

Bytes LockManager::allocated_bytes() const {
  MutexLock guard(mu_);
  return blocks_.allocated_bytes();
}

Bytes LockManager::used_bytes() const {
  MutexLock guard(mu_);
  return blocks_.used_bytes();
}

int64_t LockManager::block_count() const {
  MutexLock guard(mu_);
  return blocks_.block_count();
}

int64_t LockManager::entirely_free_blocks() const {
  MutexLock guard(mu_);
  return blocks_.entirely_free_blocks();
}

double LockManager::CurrentMaxlocksPercent() const {
  MutexLock guard(mu_);
  return options_.policy->CurrentPercent(MemoryStateLocked());
}

int64_t LockManager::HeldStructures(AppId app) const {
  MutexLock guard(mu_);
  const auto it = apps_.find(app);
  return it == apps_.end() ? 0 : it->second.held_structures;
}

int64_t LockManager::MaxHeldStructures() const {
  MutexLock guard(mu_);
  int64_t max_held = 0;
  // locklint: ordered-ok(max over a commutative scan, no output)
  for (const auto& [app, state] : apps_) {
    max_held = std::max(max_held, state.held_structures);
  }
  return max_held;
}

std::vector<AppLockUsage> LockManager::TopLockHolders(int max_app_id,
                                                      int top_n) const {
  MutexLock guard(mu_);
  std::vector<AppLockUsage> holders;
  // locklint: ordered-ok(collected unordered, deterministically sorted below)
  for (const auto& [app, state] : apps_) {
    if (app < 1 || app > max_app_id) continue;
    if (state.held_structures > 0 || state.waiting) {
      holders.push_back({app, state.held_structures, state.waiting});
    }
  }
  std::sort(holders.begin(), holders.end(),
            [](const AppLockUsage& a, const AppLockUsage& b) {
              if (a.held_structures != b.held_structures) {
                return a.held_structures > b.held_structures;
              }
              return a.app < b.app;
            });
  if (static_cast<int>(holders.size()) > top_n && top_n >= 0) {
    holders.resize(static_cast<size_t>(top_n));
  }
  return holders;
}

LockMode LockManager::HeldMode(AppId app, const ResourceId& resource) const {
  MutexLock guard(mu_);
  return HeldModeLockedInternal(app, resource);
}

int64_t LockManager::waiting_app_count() const {
  MutexLock guard(mu_);
  return blocked_count_;
}

Status LockManager::CheckConsistency() const {
  MutexLock guard(mu_);
  if (Status s = blocks_.CheckConsistency(); !s.ok()) return s;
  if (Status s = table_.CheckConsistency(); !s.ok()) return s;
  int64_t slots = 0;
  int64_t blocked = 0;
  // locklint: ordered-ok(validation only; commutative sums, no output)
  for (const auto& [app, state] : apps_) {
    slots += state.held_structures;
    if (state.waiting) ++blocked;
    int64_t held_rows = 0;
    for (const HeldSlot& slot : state.held) {
      const LockHead* head = FindHead(slot.res);
      const LockRequest* holder =
          head == nullptr ? nullptr : head->FindHolder(app);
      if (holder == nullptr) {
        return Status::Internal("held list references a missing grant");
      }
      if (slot.head != head) {
        return Status::Internal("held slot head pointer is stale");
      }
      if (slot.res.kind == ResourceKind::kRow) ++held_rows;
    }
    // Each held entry is one granted structure and a waiting new request
    // owns one more, so a duplicate or missing held entry breaks this.
    const int64_t waiting_new =
        state.waiting && !state.wait_is_conversion ? 1 : 0;
    if (static_cast<int64_t>(state.held.size()) + waiting_new !=
        state.held_structures) {
      return Status::Internal("held entries do not match held_structures");
    }
    int64_t per_table = 0;
    // locklint: ordered-ok(validation only; commutative sum, no output)
    for (const auto& [tbl, n] : state.row_locks_per_table) per_table += n;
    if (held_rows != state.total_row_locks ||
        per_table != state.total_row_locks) {
      return Status::Internal("row-lock counters do not match held rows");
    }
    if (state.table_cache_valid &&
        state.cached_table_mode !=
            HeldModeLockedInternal(app, TableResource(state.cached_table))) {
      return Status::Internal("table-mode cache is stale");
    }
    if (state.row_cache_count != nullptr) {
      const auto rit = state.row_locks_per_table.find(state.row_cache_table);
      if (rit == state.row_locks_per_table.end() ||
          &rit->second != state.row_cache_count) {
        return Status::Internal("row-count cache points at a missing entry");
      }
    }
  }
  if (blocked != blocked_count_) {
    return Status::Internal("blocked_count_ does not match waiting apps");
  }
  if (slots != blocks_.slots_in_use()) {
    return Status::Internal("per-app structure counts do not sum to slots");
  }
  // Timeout queue: deadline-ordered; every entry is either live (matches an
  // in-progress wait) or accounted stale; a waiting application has exactly
  // one live entry when timeouts are configured. A connection kill or grant
  // must never leave a live-looking entry behind.
  {
    const bool timeouts_enabled =
        options_.clock != nullptr && options_.lock_timeout >= 0;
    int64_t stale = 0;
    TimeMs last_deadline = 0;
    std::unordered_map<AppId, int64_t> live_entries;
    bool first = true;
    for (const TimeoutEntry& entry : timeout_queue_) {
      if (!first && entry.deadline < last_deadline) {
        return Status::Internal("timeout queue deadlines are not monotone");
      }
      first = false;
      last_deadline = entry.deadline;
      const auto it = apps_.find(entry.app);
      if (it != apps_.end() && it->second.waiting &&
          it->second.wait_epoch == entry.epoch) {
        ++live_entries[entry.app];
      } else {
        ++stale;
      }
    }
    if (stale != timeout_stale_) {
      return Status::Internal("timeout_stale_ does not match queue contents");
    }
    // locklint: ordered-ok(validation only; no output, early-exit on error)
    for (const auto& [app, count] : live_entries) {
      if (count > 1) {
        return Status::Internal("waiting app has several live timeouts");
      }
    }
    if (timeouts_enabled) {
      // locklint: ordered-ok(validation only; no output, early-exit on error)
      for (const auto& [app, state] : apps_) {
        if (state.waiting && live_entries[app] != 1) {
          return Status::Internal("waiting app lacks its live timeout entry");
        }
      }
    }
  }
  Status head_status = Status::Ok();
  table_.ForEach([&head_status](const ResourceId& res, const LockHead& head) {
    (void)res;
    if (head.empty()) head_status = Status::Internal("empty lock head retained");
  });
  return head_status;
}

std::vector<AppId> LockManager::ExpireTimedOutWaiters() {
  MutexLock guard(mu_);
  std::vector<AppId> expired;
  if (options_.clock == nullptr || options_.lock_timeout < 0) return expired;
  if (blocked_count_ == 0) {
    // Every queued deadline is stale; drop them and make the idle tick O(1).
    timeout_queue_.clear();
    timeout_stale_ = 0;
    return expired;
  }
  const TimeMs now = options_.clock->now();
  // Deadlines are monotone (fixed lock_timeout), so expired entries form a
  // prefix of the queue. Entries whose epoch no longer matches belong to a
  // wait that already ended and are dropped.
  std::vector<TimeoutEntry> still_waiting;
  while (!timeout_queue_.empty() && timeout_queue_.front().deadline <= now) {
    const TimeoutEntry entry = timeout_queue_.front();
    timeout_queue_.pop_front();
    const auto it = apps_.find(entry.app);
    if (it == apps_.end()) {
      --timeout_stale_;
      continue;
    }
    const AppState& state = it->second;
    if (!state.waiting || state.wait_epoch != entry.epoch) {
      // A wait that ended early (grant, rollback, connection kill) left
      // this entry behind; NoteWaitEnded counted it.
      --timeout_stale_;
      continue;
    }
    expired.push_back(entry.app);
    Emit(LockEventKind::kTimeout, entry.app, state.wait_resource,
         state.wait_mode, now - state.wait_since);
    still_waiting.push_back(entry);
  }
  // Victims are only reported; until the caller rolls them back a repeated
  // call must report (and count) them again, so re-queue at the front.
  for (auto rit = still_waiting.rbegin(); rit != still_waiting.rend(); ++rit) {
    timeout_queue_.push_front(*rit);
  }
  stats_.lock_timeouts += static_cast<int64_t>(expired.size());
  LOCKTUNE_DCHECK(timeout_stale_ >= 0);
  return expired;
}

void LockManager::SetEscalationPreferred(AppId app, bool preferred) {
  MutexLock guard(mu_);
  if (preferred) {
    escalation_preferred_.insert(app);
  } else {
    escalation_preferred_.erase(app);
  }
}

bool LockManager::IsEscalationPreferred(AppId app) const {
  MutexLock guard(mu_);
  return escalation_preferred_.count(app) > 0;
}

void LockManager::MarkWaitStart(AppId app, AppState& state) {
  state.wait_since = options_.clock != nullptr ? options_.clock->now() : 0;
  ++state.wait_epoch;
  ++blocked_count_;
  if (options_.clock != nullptr && options_.lock_timeout >= 0) {
    timeout_queue_.push_back(TimeoutEntry{
        state.wait_since + options_.lock_timeout, app, state.wait_epoch});
  }
  Emit(LockEventKind::kWaitBegin, app, state.wait_resource, state.wait_mode,
       0);
}

void LockManager::NoteWaitEnded(AppState& state) {
  // Invalidate the queued timeout entry for the wait that just ended. The
  // epoch bump makes it stale even though it stays queued; the stale count
  // lets expiry and compaction account for it exactly.
  ++state.wait_epoch;
  if (options_.clock != nullptr && options_.lock_timeout >= 0) {
    // MarkWaitStart queued exactly one entry for this wait under the same
    // condition; it is still in the queue (expiry re-queues reported
    // victims) and is stale as of the bump above.
    ++timeout_stale_;
    MaybeCompactTimeouts();
  }
}

void LockManager::MaybeCompactTimeouts() {
  // Rebuild once stale entries are ≥16 and the majority: each surviving
  // entry is copied at most once per halving, so the cost amortizes to O(1)
  // per ended wait, and a kill storm cannot leave an unbounded queue.
  if (timeout_stale_ < 16 ||
      2 * timeout_stale_ < static_cast<int64_t>(timeout_queue_.size())) {
    return;
  }
  std::deque<TimeoutEntry> live;
  for (const TimeoutEntry& entry : timeout_queue_) {
    const auto it = apps_.find(entry.app);
    if (it == apps_.end()) continue;
    if (it->second.waiting && it->second.wait_epoch == entry.epoch) {
      live.push_back(entry);  // deadline order is preserved
    }
  }
  timeout_queue_.swap(live);
  timeout_stale_ = 0;
}

namespace {

FlightEventKind ToFlightKind(LockEventKind kind) {
  switch (kind) {
    case LockEventKind::kWaitBegin:
      return FlightEventKind::kWaitBegin;
    case LockEventKind::kWaitEnd:
      return FlightEventKind::kWaitEnd;
    case LockEventKind::kEscalation:
      return FlightEventKind::kEscalation;
    case LockEventKind::kTimeout:
      return FlightEventKind::kTimeout;
    case LockEventKind::kDeadlockVictim:
      return FlightEventKind::kDeadlockVictim;
    case LockEventKind::kOutOfLockMemory:
      return FlightEventKind::kOutOfLockMemory;
    case LockEventKind::kSynchronousGrowth:
      return FlightEventKind::kSynchronousGrowth;
  }
  return FlightEventKind::kWaitBegin;
}

// Wait begin/end pairs fire for every blocked request — too hot for the
// trace timeline. The structural events are rare and worth a pin.
bool IsColdLockEvent(LockEventKind kind) {
  return kind != LockEventKind::kWaitBegin && kind != LockEventKind::kWaitEnd;
}

}  // namespace

void LockManager::Emit(LockEventKind kind, AppId app,
                       const ResourceId& resource, LockMode mode,
                       int64_t value) {
  const int64_t now = options_.clock != nullptr ? options_.clock->now() : 0;
  // The flight recorder and trace collector see events even when no trace
  // sink is installed (benches, runs without a sampler).
  FlightRecord(ToFlightKind(kind), now, app, resource.table, value);
  if (IsColdLockEvent(kind)) {
    if (ChromeTraceCollector* trace = GlobalTraceCollector()) {
      trace->Instant(std::string(LockEventKindName(kind)), kTracePidSim,
                     kTraceTidLockEvents, SimTimeToTraceUs(now),
                     "{\"app\":" + std::to_string(app) +
                         ",\"table\":" + std::to_string(resource.table) +
                         ",\"value\":" + std::to_string(value) + "}");
    }
  }
  if (trace_sink_ == nullptr) return;
  TraceRecord rec(now, "lock_event");
  rec.Str("event", LockEventKindName(kind))
      .Int("app", app)
      .Str("resource", resource.ToString())
      .Str("mode", ModeName(mode));
  switch (kind) {
    case LockEventKind::kWaitEnd:
      rec.Int("wait_ms", value);
      break;
    case LockEventKind::kEscalation:
      rec.Int("rows_released", value);
      break;
    default:
      if (value != 0) rec.Int("value", value);
      break;
  }
  // The sink's Append takes its own leaf lock under mu_. The virtual call
  // is opaque to locklint's call resolution, so both sink edges are
  // declared here.
  // locklint: lock-edge(LockManager::mu_ -> JsonlTraceWriter::mu_)
  // locklint: lock-edge(LockManager::mu_ -> MemoryTraceSink::mu_)
  trace_sink_->Append(rec);
}

void LockManager::set_trace_sink(TraceSink* sink) {
  MutexLock guard(mu_);
  trace_sink_ = sink;
}

LockManager::AppState& LockManager::GetApp(AppId app) { return apps_[app]; }

LockHead* LockManager::FindHead(const ResourceId& resource) {
  return table_.Find(resource);
}

const LockHead* LockManager::FindHead(const ResourceId& resource) const {
  return table_.Find(resource);
}

LockMode LockManager::HeldModeLockedInternal(AppId app,
                                             const ResourceId& resource)
    const {
  const LockHead* head = FindHead(resource);
  if (head == nullptr) return LockMode::kNone;
  const LockRequest* r = head->FindHolder(app);
  return r == nullptr ? LockMode::kNone : r->mode;
}

LockMode LockManager::CachedTableMode(AppId app, AppState& state,
                                      TableId table) const {
  if (state.table_cache_valid && state.cached_table == table) {
    return state.cached_table_mode;
  }
  const LockMode mode = HeldModeLockedInternal(app, TableResource(table));
  NoteTableMode(state, table, mode);
  return mode;
}

LockMemoryState LockManager::MemoryStateLocked() const {
  LockMemoryState s;
  s.allocated = blocks_.allocated_bytes();
  s.used = blocks_.used_bytes();
  s.capacity_slots = blocks_.capacity_slots();
  s.slots_in_use = blocks_.slots_in_use();
  s.max_lock_memory = max_lock_memory_;
  s.database_memory = options_.database_memory;
  return s;
}

void LockManager::DrainWorkList() {
  if (draining_) return;  // the outer drain loop will pick new entries up
  draining_ = true;
  while (!work_list_.empty()) {
    const ResourceId res = work_list_.front();
    work_list_.pop_front();
    ProcessQueue(res);
  }
  draining_ = false;
}

void LockManager::AddHeldEntry(AppState& state, const ResourceId& resource,
                               LockHead* head) {
  state.held.push_back(HeldSlot{resource, head});
}

void LockManager::EraseHeldEntry(AppState& state, const ResourceId& resource) {
  for (auto it = state.held.rbegin(); it != state.held.rend(); ++it) {
    if (it->res == resource) {
      state.held.erase(std::next(it).base());
      return;
    }
  }
}

void LockManager::RegisterMetrics(MetricsRegistry* registry) {
  const auto counter = [&](const char* name, const char* help,
                           std::function<int64_t()> fn) {
    registry->AddCallbackCounter(name, help, std::move(fn));
  };
  counter("locktune_lock_requests_total", "lock requests issued",
          [this] { return stats().lock_requests; });
  counter("locktune_lock_grants_total", "lock requests granted",
          [this] { return stats().grants; });
  counter("locktune_lock_waits_total", "lock requests that blocked",
          [this] { return stats().lock_waits; });
  counter("locktune_lock_escalations_total", "completed lock escalations",
          [this] { return stats().escalations; });
  counter("locktune_lock_escalations_exclusive_total",
          "escalations that took an X table lock",
          [this] { return stats().exclusive_escalations; });
  counter("locktune_lock_escalation_attempts_total",
          "escalations attempted (completed or not)",
          [this] { return stats().escalation_attempts; });
  counter("locktune_lock_escalations_preferred_total",
          "escalations taken because the app prefers them over growth",
          [this] { return stats().preferred_escalations; });
  counter("locktune_lock_deadlock_victims_total",
          "applications chosen to break deadlock cycles",
          [this] { return stats().deadlock_victims; });
  counter("locktune_lock_timeouts_total", "lock waits past LOCKTIMEOUT",
          [this] { return stats().lock_timeouts; });
  counter("locktune_lock_oom_failures_total",
          "requests failed for lack of lock memory",
          [this] { return stats().out_of_memory_failures; });
  counter("locktune_lock_sync_growth_blocks_total",
          "blocks added synchronously on the request path",
          [this] { return stats().sync_growth_blocks; });
  counter("locktune_lock_blocks_added_total",
          "lock memory blocks ever added",
          [this] {
            MutexLock guard(mu_);
            return blocks_.blocks_added();
          });
  counter("locktune_lock_blocks_removed_total",
          "lock memory blocks ever removed (shrink)",
          [this] {
            MutexLock guard(mu_);
            return blocks_.blocks_removed();
          });

  registry->AddCallbackGauge(
      "locktune_lock_memory_allocated_bytes", "lock memory owned",
      [this] { return static_cast<double>(allocated_bytes()); });
  registry->AddCallbackGauge(
      "locktune_lock_memory_used_bytes", "lock structures in use x 64 B",
      [this] { return static_cast<double>(used_bytes()); });
  registry->AddCallbackGauge(
      "locktune_lock_memory_max_bytes", "maxLockMemory bound",
      [this] { return static_cast<double>(max_lock_memory()); });
  registry->AddCallbackGauge(
      "locktune_lock_blocks", "blocks on the list",
      [this] { return static_cast<double>(block_count()); });
  registry->AddCallbackGauge(
      "locktune_lock_blocks_free", "entirely free blocks (shrinkable)",
      [this] { return static_cast<double>(entirely_free_blocks()); });
  registry->AddCallbackGauge(
      "locktune_lock_waiting_apps", "applications currently blocked",
      [this] { return static_cast<double>(waiting_app_count()); });
  registry->AddCallbackGauge(
      "locktune_lock_maxlocks_percent",
      "current lockPercentPerApplication",
      [this] { return CurrentMaxlocksPercent(); });

  // MetricsRegistry::Collect() evaluates every callback registered here
  // while holding the registry lock, and the callbacks take the manager
  // mutex — the edge that forces the registry lock to be OUTERMOST
  // (rank 0). std::function is opaque to locklint, so it is declared:
  // locklint: lock-edge(MetricsRegistry::mu_ -> LockManager::mu_)
  registry->AddCallbackHistogram(
      "locktune_lock_wait_time_ms", "completed lock-wait durations",
      [this] {
        MutexLock lock(mu_);
        return SnapshotOf(wait_times_);
      });
}

int64_t LockManager::lock_table_size() const {
  MutexLock guard(mu_);
  return table_.size();
}

int64_t LockManager::head_pool_free_nodes() const {
  MutexLock guard(mu_);
  return table_.pool_free_nodes();
}

int64_t LockManager::head_pool_slab_count() const {
  MutexLock guard(mu_);
  return table_.slab_count();
}

void LockManager::RegisterInternalMetrics(MetricsRegistry* registry) {
  registry->AddCallbackGauge(
      "locktune_lock_table_heads", "lock heads resident in the lock table",
      [this] { return static_cast<double>(lock_table_size()); });
  registry->AddCallbackGauge(
      "locktune_lock_head_pool_free", "recycled lock-head nodes available",
      [this] { return static_cast<double>(head_pool_free_nodes()); });
  registry->AddCallbackGauge(
      "locktune_lock_head_pool_slabs", "lock-head slabs ever allocated",
      [this] { return static_cast<double>(head_pool_slab_count()); });
  registry->AddCallbackGauge(
      "locktune_lock_blocked_apps", "applications blocked on a lock wait",
      [this] { return static_cast<double>(waiting_app_count()); });
}

}  // namespace locktune
