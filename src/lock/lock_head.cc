#include "lock/lock_head.h"

#include "common/check.h"

namespace locktune {

const LockRequest* LockHead::FindHolder(AppId app) const {
  if (live_holders_ == 0) return nullptr;
  // A tombstone's kDeadHolder app can never match, so no explicit skip.
  if (first_.app == app) return &first_;
  if (!extended_) return nullptr;
  if (ext_->indexed) {
    const uint32_t pos = ext_->index.Find(app);
    if (pos == AppIndex::kAbsent) return nullptr;
    return pos == 0 ? &first_ : &ext_->holders[pos - 1];
  }
  for (const LockRequest& r : ext_->holders) {
    if (r.app == app) return &r;
  }
  return nullptr;
}

LockRequest* LockHead::FindHolder(AppId app) {
  return const_cast<LockRequest*>(
      static_cast<const LockHead*>(this)->FindHolder(app));
}

LockMode LockHead::GrantedGroupMode(AppId except) const {
  if (live_holders_ == 0) return LockMode::kNone;
  // Fold the per-mode counts instead of the holder slots: the supremum is
  // a commutative lattice join, so count order gives the same answer as
  // arrival order at O(modes) instead of O(holders).
  size_t except_mode = kNumLockModes;
  if (except != -1) {
    if (const LockRequest* r = FindHolder(except); r != nullptr) {
      except_mode = static_cast<size_t>(r->mode);
    }
  }
  LockMode group = LockMode::kNone;
  for (size_t m = 1; m < kNumLockModes; ++m) {
    const uint32_t count = mode_counts_[m - 1] - (m == except_mode ? 1u : 0u);
    if (count > 0) group = Supremum(group, static_cast<LockMode>(m));
  }
  return group;
}

void LockHead::AddHolder(const LockRequest& request) {
  LOCKTUNE_DCHECK(request.app != kDeadHolder);
  LOCKTUNE_DCHECK(request.mode != LockMode::kNone);
  ++ModeCount(request.mode);
  if (live_holders_++ == 0) {
    // No slots while nothing is held (RemoveHolder drops them), so the
    // holder goes inline and the extension is not touched.
    first_ = request;
    return;
  }
  Extension& ext = Ext();
  ext.holders.push_back(request);
  if (ext.indexed) {
    ext.index.Set(request.app, static_cast<uint32_t>(ext.holders.size()));
  } else if (live_holders_ > kHolderIndexThreshold) {
    BuildIndex();
  }
}

void LockHead::BuildIndex() {
  // An unindexed head's index is empty (AggregatesConsistent), so this only
  // sizes it.
  Extension& ext = *ext_;
  ext.index.Reserve(live_holders_);
  SetIndexPositions();
  ext.indexed = true;
}

void LockHead::SetIndexPositions() {
  Extension& ext = *ext_;
  if (first_.app != kDeadHolder) ext.index.Set(first_.app, 0);
  for (size_t i = 0; i < ext.holders.size(); ++i) {
    if (ext.holders[i].app != kDeadHolder) {
      ext.index.Set(ext.holders[i].app, static_cast<uint32_t>(i + 1));
    }
  }
}

void LockHead::CompactHolders() {
  std::vector<LockRequest>& rest = ext_->holders;
  size_t in = 0;
  if (first_.app == kDeadHolder) {
    // Live holders remain, so one of the later slots is live.
    while (rest[in].app == kDeadHolder) ++in;
    first_ = rest[in++];
  }
  size_t out = 0;
  for (; in < rest.size(); ++in) {
    if (rest[in].app == kDeadHolder) continue;
    if (out != in) rest[out] = rest[in];
    ++out;
  }
  rest.resize(out);
  ext_->dead_holders = 0;
  // The indexed apps are still the live ones; only their slots moved.
  if (ext_->indexed) SetIndexPositions();
  NoteExtensionUse();
}

bool LockHead::CanGrantNew(LockMode mode) const {
  if (!waiters().empty()) return false;
  return Compatible(GrantedGroupMode(), mode);
}

bool LockHead::CanGrantConversion(AppId app, LockMode mode) const {
  return Compatible(GrantedGroupMode(app), mode);
}

LockBlock* LockHead::RemoveHolder(AppId app) {
  LockRequest* dead = FindHolder(app);
  if (dead == nullptr) return nullptr;
  LockBlock* slot = dead->slot;
  --ModeCount(dead->mode);
  // Tombstone, not erase: arrival order of the survivors is observable
  // (see ForEachHolder), and a stable erase would cost O(holders) per
  // removal.
  dead->app = kDeadHolder;
  dead->mode = LockMode::kNone;
  dead->slot = nullptr;
  if (--live_holders_ == 0) {
    // The last live holder left: drop every slot, so the next holder is
    // inline again.
    if (extended_) {
      ext_->holders.clear();
      ext_->dead_holders = 0;
      if (ext_->indexed) {
        ext_->index.Erase(app);
        ext_->indexed = false;
      }
      NoteExtensionUse();
    }
    return slot;
  }
  // A live holder remains besides the dead slot, so the extension is in
  // use.
  Extension& ext = *ext_;
  if (ext.indexed) ext.index.Erase(app);
  ++ext.dead_holders;
  if (ext.dead_holders > live_holders_ &&
      ext.dead_holders > kHolderIndexThreshold) {
    CompactHolders();
  }
  return slot;
}

void LockHead::EnqueueConversion(const WaitingRequest& w) {
  LOCKTUNE_DCHECK(w.is_conversion);
  // After any already-queued conversions, ahead of all new requests.
  std::vector<WaitingRequest>& waiters = Ext().waiters;
  auto it = waiters.begin();
  while (it != waiters.end() && it->is_conversion) ++it;
  waiters.insert(it, w);
}

void LockHead::EnqueueNew(const WaitingRequest& w) {
  LOCKTUNE_DCHECK(!w.is_conversion);
  Ext().waiters.push_back(w);
}

LockBlock* LockHead::RemoveWaiter(AppId app, bool* removed) {
  if (extended_) {
    std::vector<WaitingRequest>& waiters = ext_->waiters;
    for (auto it = waiters.begin(); it != waiters.end(); ++it) {
      if (it->app == app) {
        LockBlock* slot = it->slot;
        waiters.erase(it);
        NoteExtensionUse();
        if (removed != nullptr) *removed = true;
        return slot;
      }
    }
  }
  if (removed != nullptr) *removed = false;
  return nullptr;
}

WaitingRequest LockHead::PopFrontWaiter() {
  LOCKTUNE_DCHECK(!waiters().empty());
  std::vector<WaitingRequest>& waiters = ext_->waiters;
  WaitingRequest w = waiters.front();
  waiters.erase(waiters.begin());
  NoteExtensionUse();
  return w;
}

void LockHead::Clear() {
  mode_counts_.fill(0);
  live_holders_ = 0;
  if (!extended_) return;
  ext_->holders.clear();
  ext_->waiters.clear();
  ext_->index.Clear();
  ext_->dead_holders = 0;
  ext_->indexed = false;
  extended_ = false;
}

bool LockHead::AggregatesConsistent() const {
  // Recompute the per-mode counts, the live/dead split, and the app → slot
  // index from the holder slots and compare, so a missed maintenance path
  // fails here (paranoid mode / tests) rather than granting against a
  // stale group mode.
  if (ext_ != nullptr) {
    const Extension& ext = *ext_;
    const bool in_use =
        !ext.holders.empty() || !ext.waiters.empty() || ext.indexed;
    if (extended_ != in_use) return false;
    // An unused extension is fully empty: nothing stale survives for the
    // node's next life.
    if (!in_use && (ext.dead_holders != 0 || !ext.index.empty())) {
      return false;
    }
  } else if (extended_) {
    return false;
  }
  const std::vector<LockRequest>* rest = extended_ ? &ext_->holders : nullptr;
  if (live_holders_ == 0) {
    // Nothing held: no slots, no tombstones, no index.
    return mode_counts_ == decltype(mode_counts_){} &&
           (!extended_ || (rest->empty() && ext_->dead_holders == 0 &&
                           !ext_->indexed && ext_->index.empty()));
  }
  decltype(mode_counts_) counts{};
  uint32_t live = 0;
  uint32_t dead = 0;
  bool valid = true;
  ForEachHolder([&](const LockRequest& r) {
    if (r.app == kDeadHolder) {
      if (r.mode != LockMode::kNone || r.slot != nullptr) valid = false;
      ++dead;
    } else if (r.mode == LockMode::kNone) {
      valid = false;
    } else {
      ++counts[static_cast<size_t>(r.mode) - 1];
      ++live;
    }
  });
  if (!valid || counts != mode_counts_ || live != live_holders_) return false;
  if (!extended_) return true;
  if (dead != ext_->dead_holders) return false;
  if (!ext_->indexed) return ext_->index.empty();
  if (ext_->index.size() != live) return false;
  for (uint32_t pos = 0; pos <= rest->size(); ++pos) {
    const LockRequest& r = pos == 0 ? first_ : (*rest)[pos - 1];
    if (r.app == kDeadHolder) continue;
    if (ext_->index.Find(r.app) != pos) return false;
  }
  return true;
}

}  // namespace locktune
