// Per-resource lock state (Figure 3 of the paper).
//
// Compatible requests share the granted group; incompatible requests form a
// FIFO chain behind it, serviced in arrival order when holders release
// ("post" discipline — requesters are serviced in the order in which they
// request locks, unlike Oracle's sleep-wake-check polling which can jump the
// queue, §2.3). Conversion requests from an existing holder queue ahead of
// new requests, the standard treatment that avoids conversion starvation.
//
// Layout: a head is sized so that its pooled lock-table node fits one
// 64-byte cache line, like DB2's 64-byte lock structure (§2.2). It carries
// its first holder inline, which is all a row lock ever needs: in Figure 9
// about 98 % of holder insertions are a head's first holder. Everything a
// shared or contended head needs beyond that — later holders, the wait
// queue, the app → slot index and the tombstone count — lives in an
// out-of-line Extension, created the first time a head gets a second holder
// or a waiter and kept across recycling. The index is a flat AppIndex, not a
// node-based hash map, so once a head's buffers have grown to their
// high-water mark, holder churn and recycling allocate nothing
// (lock_head_test counts heap allocations to hold this).
#ifndef LOCKTUNE_LOCK_LOCK_HEAD_H_
#define LOCKTUNE_LOCK_LOCK_HEAD_H_

#include <array>
#include <cstdint>
#include <memory>
#include <span>
#include <type_traits>
#include <vector>

#include "lock/app_index.h"
#include "lock/lock_mode.h"
#include "lock/resource.h"

namespace locktune {

class LockBlock;

// One lock structure: an application's granted interest in a resource.
// Consumes one 64 B slot of lock memory while it exists.
struct LockRequest {
  AppId app = 0;
  LockMode mode = LockMode::kNone;  // granted mode
  LockBlock* slot = nullptr;        // lock memory slot backing this
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
  // Holder slots are kept in arrival order: slot 0 is the inline first
  // holder, slots 1.. are the extension's. RemoveHolder marks a slot dead
  // (app = kDeadHolder, mode = kNone) instead of erasing it, and the slots
  // are compacted — stably, so arrival order is preserved — once tombstones
  // outnumber live entries; compaction moves the first live holder inline.
  // A holder added while live holders remain goes after the last slot, never
  // into a dead inline slot; once the last live holder leaves, every slot
  // is dropped and the next holder is inline again. Arrival order is
  // observable (the deadlock detector builds waits-for edges in it, and
  // victim selection on overlapping cycles is golden-locked to the
  // resulting traversal), which is why removal cannot swap-erase.
  //
  // Every aggregate the grant check needs is maintained incrementally —
  // per-mode holder counts make GrantedGroupMode O(modes) instead of
  // O(holders), and once the group outgrows kHolderIndexThreshold an
  // app → slot index makes FindHolder / RemoveHolder O(1). Table intent
  // heads are why: with 10^5 concurrent transactions every row lock
  // probes its table's intent head, and a linear holder scan there made
  // the whole lock path O(holders) per request (docs/SCALE.md).

  // Calls fn(const LockRequest&) for every holder slot in arrival order,
  // tombstones included. Callers need no tombstone check in practice: a
  // dead slot's app matches no real application and its kNone mode is
  // compatible with everything, so conflict scans skip it naturally.
  template <typename Fn>
  void ForEachHolder(Fn fn) const {
    if (live_holders_ == 0) return;
    fn(first_);
    if (!extended_) return;
    for (const LockRequest& r : ext_->holders) fn(r);
  }

  bool HasHolders() const { return live_holders_ != 0; }

  // `app` of a tombstoned holder slot. Never a real application id.
  static constexpr AppId kDeadHolder = INT32_MIN;

  // Live-group size at which the app → slot index is built. Row heads (a
  // handful of holders) never pay for it; table intent heads cross it once
  // and stay indexed until their last holder leaves.
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

  // Appends a granted request. Its mode must not be kNone.
  void AddHolder(const LockRequest& request);

  // Changes `holder`'s granted mode (conversion grant, escalation). The
  // only sanctioned way to change a granted mode — a plain `holder->mode =`
  // through FindHolder would leave the per-mode counts stale.
  void SetHolderMode(LockRequest* holder, LockMode mode) {
    --ModeCount(holder->mode);
    ++ModeCount(mode);
    holder->mode = mode;
  }

  // Removes `app`'s granted request, returning its lock memory slot
  // (nullptr if the app held nothing here).
  LockBlock* RemoveHolder(AppId app);

  // --- wait queue ---
  // Front = next to service.
  std::span<const WaitingRequest> waiters() const {
    if (!extended_) return {};
    return ext_->waiters;
  }

  // Conversions enter at the front (after other conversions); new requests
  // at the back.
  void EnqueueConversion(const WaitingRequest& w);
  void EnqueueNew(const WaitingRequest& w);

  // Removes app's waiting entry if present, returning its slot (nullptr if
  // it was a conversion or absent). Used when a waiter aborts.
  LockBlock* RemoveWaiter(AppId app, bool* removed);

  bool empty() const { return live_holders_ == 0 && waiters().empty(); }

  // Drops all holders and waiters but keeps the extension and its capacity
  // — called when a pooled head node is recycled, so a reused node
  // re-enters service allocation-free.
  void Clear();

  // True when the incrementally maintained aggregates (per-mode counts,
  // live/dead split, app → slot index) match a fresh recomputation
  // (paranoid checks / tests).
  bool AggregatesConsistent() const;

  // Pops the front waiter. Precondition: !waiters().empty().
  WaitingRequest PopFrontWaiter();
  const WaitingRequest& FrontWaiter() const { return ext_->waiters.front(); }

 private:
  // What a head needs beyond its inline first holder.
  struct Extension {
    std::vector<LockRequest> holders;     // holder slots 1.., with tombstones
    std::vector<WaitingRequest> waiters;  // front = next to service
    // App → holder slot for live entries; valid iff indexed. Clear() keeps
    // the slot array, so a pooled node that crossed the threshold once
    // re-enters service without rehashing, and adding or removing holders
    // allocates nothing until the index outgrows its high-water mark.
    AppIndex index;
    uint32_t dead_holders = 0;
    bool indexed = false;
  };

  // The extension, created on first use, for a caller about to put a
  // holder slot, a waiter or the index in it.
  Extension& Ext() {
    if (ext_ == nullptr) ext_ = std::make_unique<Extension>();
    extended_ = true;
    return *ext_;
  }

  // Recomputes extended_ after the extension may have emptied.
  void NoteExtensionUse() {
    extended_ =
        !ext_->holders.empty() || !ext_->waiters.empty() || ext_->indexed;
  }

  // Live holders per granted mode; kNone is never held, so it has no count.
  uint32_t& ModeCount(LockMode mode) {
    return mode_counts_[static_cast<size_t>(mode) - 1];
  }

  // Builds the app → slot index over the current live holders (crossing
  // kHolderIndexThreshold). Once built it is maintained incrementally
  // until the last live holder leaves or Clear().
  void BuildIndex();

  // Points every live holder's index entry at its current slot.
  void SetIndexPositions();

  // Stably removes tombstones (arrival order of live entries preserved),
  // moving the first live holder inline, and re-points the index. Called
  // when tombstones outnumber live holders, so its O(slots) cost amortizes
  // to O(1) per removal.
  void CompactHolders();

  LockRequest first_;  // holder slot 0; meaningful iff live_holders_ > 0
  std::unique_ptr<Extension> ext_;
  // Live holders per granted mode (ModeCount); GrantedGroupMode folds these.
  std::array<uint32_t, kNumLockModes - 1> mode_counts_{};
  uint32_t live_holders_ = 0;
  // True while the extension holds a holder slot, a waiter or the index. A
  // recycled node keeps its emptied extension, so a row head tests this
  // flag instead of touching the extension's cache lines.
  bool extended_ = false;
};

}  // namespace locktune

#endif  // LOCKTUNE_LOCK_LOCK_HEAD_H_
