// Per-resource lock state (Figure 3 of the paper).
//
// Compatible requests share the granted group; incompatible requests form a
// FIFO chain behind it, serviced in arrival order when holders release
// ("post" discipline — requesters are serviced in the order in which they
// request locks, unlike Oracle's sleep-wake-check polling which can jump the
// queue, §2.3). Conversion requests from an existing holder queue ahead of
// new requests, the standard treatment that avoids conversion starvation.
#ifndef LOCKTUNE_LOCK_LOCK_HEAD_H_
#define LOCKTUNE_LOCK_LOCK_HEAD_H_

#include <array>
#include <cstdint>
#include <type_traits>
#include <unordered_map>
#include <vector>

#include "lock/lock_mode.h"
#include "lock/resource.h"

namespace locktune {

// Application (connection) identifier; the unit the paper's per-application
// lock limit applies to.
using AppId = int32_t;

class LockBlock;

// One lock structure: an application's granted or waiting interest in a
// resource. Consumes one 64 B slot of lock memory while it exists.
// locklint: hot-column
struct LockRequest {
  AppId app = 0;
  LockMode mode = LockMode::kNone;        // granted mode
  LockMode convert_to = LockMode::kNone;  // pending conversion target
  LockBlock* slot = nullptr;              // lock memory slot backing this
};
static_assert(std::is_trivially_copyable_v<LockRequest>,
              "holder rows are tombstoned and compacted byte-wise");

// Waiting (not yet granted) request.
struct WaitingRequest {
  AppId app = 0;
  LockMode mode = LockMode::kNone;
  bool is_conversion = false;  // app already holds this resource
  LockBlock* slot = nullptr;   // only for new requests (conversions reuse)
};

class LockHead {
 public:
  LockHead() = default;
  // Not copyable: heads live in pooled, pointer-stable nodes.
  LockHead(const LockHead&) = delete;
  LockHead& operator=(const LockHead&) = delete;

  // --- granted group ---
  //
  // Live holders appear in arrival order, interleaved with tombstones:
  // RemoveHolder marks the slot dead (app = kDeadHolder, mode = kNone)
  // instead of erasing it, and the vector is compacted — stably, so
  // arrival order is preserved — once tombstones outnumber live entries.
  // Arrival order is observable (the deadlock detector builds waits-for
  // edges in it, and victim selection on overlapping cycles is
  // golden-locked to the resulting traversal), which is why removal cannot
  // swap-erase. Iterating callers need no tombstone check in practice: a
  // dead slot's app matches no real application and its kNone mode is
  // compatible with everything, so conflict scans skip it naturally.
  //
  // Every aggregate the grant check needs is maintained incrementally —
  // per-mode holder counts make GrantedGroupMode O(modes) instead of
  // O(holders), and once the group outgrows kHolderIndexThreshold an
  // app → slot index makes FindHolder / RemoveHolder O(1). Table intent
  // heads are why: with 10^5 concurrent transactions every row lock
  // probes its table's intent head, and a linear holder scan there made
  // the whole lock path O(holders) per request (docs/SCALE.md).
  const std::vector<LockRequest>& holders() const { return holders_; }

  // Granted (live) holders; holders().size() also counts tombstones.
  uint32_t live_holder_count() const { return live_holders_; }
  bool HasHolders() const { return live_holders_ != 0; }

  // `app` of a tombstoned holder slot. Never a real application id.
  static constexpr AppId kDeadHolder = INT32_MIN;

  // Live-group size at which the app → slot index is built. Row heads (a
  // handful of holders) never pay the hash-map overhead; table intent
  // heads cross it once and stay indexed until recycled.
  static constexpr size_t kHolderIndexThreshold = 16;

  // Granted request of `app`, or nullptr.
  const LockRequest* FindHolder(AppId app) const;
  LockRequest* FindHolder(AppId app);

  // Supremum of granted modes, optionally ignoring `except` (used to test
  // whether a conversion by `except` is compatible with everyone else).
  LockMode GrantedGroupMode(AppId except = -1) const;

  // True when a *new* request in `mode` can be granted now: it must be
  // compatible with the granted group AND no incompatible waiter may be
  // queued ahead (FIFO fairness — a compatible newcomer must not overtake).
  bool CanGrantNew(LockMode mode) const;

  // True when `app`'s conversion to `mode` is compatible with all other
  // holders (conversions do not queue behind new waiters).
  bool CanGrantConversion(AppId app, LockMode mode) const;

  // Appends a granted request.
  void AddHolder(const LockRequest& request);

  // Changes `holder`'s granted mode (conversion grant, escalation). The
  // only sanctioned way to change a granted mode — a plain `holder->mode =`
  // through FindHolder would leave the per-mode counts stale.
  void SetHolderMode(LockRequest* holder, LockMode mode) {
    --mode_counts_[static_cast<size_t>(holder->mode)];
    ++mode_counts_[static_cast<size_t>(mode)];
    holder->mode = mode;
  }

  // Removes `app`'s granted request, returning its lock memory slot
  // (nullptr if the app held nothing here).
  LockBlock* RemoveHolder(AppId app);

  // --- wait queue ---
  const std::vector<WaitingRequest>& waiters() const { return waiters_; }

  // Conversions enter at the front (after other conversions); new requests
  // at the back.
  void EnqueueConversion(const WaitingRequest& w);
  void EnqueueNew(const WaitingRequest& w);

  // Removes app's waiting entry if present, returning its slot (nullptr if
  // it was a conversion or absent). Used when a waiter aborts.
  LockBlock* RemoveWaiter(AppId app, bool* removed);

  bool HasWaiter(AppId app) const;

  bool empty() const { return live_holders_ == 0 && waiters_.empty(); }

  // Drops all holders and waiters but keeps vector capacity — called when a
  // pooled head node is recycled, so a reused node re-enters service
  // allocation-free.
  void Clear() {
    holders_.clear();
    waiters_.clear();
    mode_counts_.fill(0);
    index_.clear();  // keeps the bucket array for the node's next life
    indexed_ = false;
    live_holders_ = 0;
    dead_holders_ = 0;
  }

  // True when the incrementally maintained aggregates (per-mode counts,
  // live/dead split, app → slot index) match a fresh recomputation
  // (paranoid checks / tests).
  bool AggregatesConsistent() const;

  // Pops the front waiter. Precondition: !waiters().empty().
  WaitingRequest PopFrontWaiter();
  const WaitingRequest& FrontWaiter() const { return waiters_.front(); }

 private:
  // Builds the app → slot index over the current live holders (crossing
  // kHolderIndexThreshold). Once built it is maintained incrementally
  // until Clear().
  void BuildIndex();

  // Stably removes tombstones (arrival order of live entries preserved)
  // and rebuilds the index. Called when tombstones outnumber live
  // holders, so its O(slots) cost amortizes to O(1) per removal.
  void CompactHolders();

  std::vector<LockRequest> holders_;     // arrival order + tombstones
  std::vector<WaitingRequest> waiters_;  // front = next to service
  // Live holders per granted mode; GrantedGroupMode folds these.
  std::array<uint32_t, kNumLockModes> mode_counts_{};
  uint32_t live_holders_ = 0;
  uint32_t dead_holders_ = 0;
  // App → holders_ slot for live entries; valid iff indexed_. clear()
  // keeps the bucket array, so a pooled node that crossed the threshold
  // once re-enters service without rehashing.
  std::unordered_map<AppId, uint32_t> index_;
  bool indexed_ = false;
};

}  // namespace locktune

#endif  // LOCKTUNE_LOCK_LOCK_HEAD_H_
