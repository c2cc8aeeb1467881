#include "lock/lock_head.h"

#include <algorithm>

#include "common/check.h"

namespace locktune {

const LockRequest* LockHead::FindHolder(AppId app) const {
  if (indexed_) {
    const auto it = index_.find(app);
    return it == index_.end() ? nullptr : &holders_[it->second];
  }
  for (const LockRequest& r : holders_) {
    if (r.app == app) return &r;
  }
  return nullptr;
}

LockRequest* LockHead::FindHolder(AppId app) {
  return const_cast<LockRequest*>(
      static_cast<const LockHead*>(this)->FindHolder(app));
}

LockMode LockHead::GrantedGroupMode(AppId except) const {
  // Fold the per-mode counts instead of the holder vector: the supremum is
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
    const uint32_t count = mode_counts_[m] - (m == except_mode ? 1u : 0u);
    if (count > 0) group = Supremum(group, static_cast<LockMode>(m));
  }
  return group;
}

void LockHead::AddHolder(const LockRequest& request) {
  LOCKTUNE_DCHECK(request.app != kDeadHolder);
  holders_.push_back(request);
  ++live_holders_;
  ++mode_counts_[static_cast<size_t>(request.mode)];
  if (indexed_) {
    index_[request.app] = static_cast<uint32_t>(holders_.size() - 1);
  } else if (live_holders_ > kHolderIndexThreshold) {
    BuildIndex();
  }
}

void LockHead::BuildIndex() {
  index_.clear();
  index_.reserve(live_holders_);
  for (size_t i = 0; i < holders_.size(); ++i) {
    if (holders_[i].app != kDeadHolder) {
      index_[holders_[i].app] = static_cast<uint32_t>(i);
    }
  }
  indexed_ = true;
}

void LockHead::CompactHolders() {
  size_t out = 0;
  for (size_t i = 0; i < holders_.size(); ++i) {
    if (holders_[i].app == kDeadHolder) continue;
    if (out != i) holders_[out] = holders_[i];
    ++out;
  }
  holders_.resize(out);
  dead_holders_ = 0;
  if (indexed_) BuildIndex();
}

bool LockHead::CanGrantNew(LockMode mode) const {
  if (!waiters_.empty()) return false;
  return Compatible(GrantedGroupMode(), mode);
}

bool LockHead::CanGrantConversion(AppId app, LockMode mode) const {
  return Compatible(GrantedGroupMode(app), mode);
}

LockBlock* LockHead::RemoveHolder(AppId app) {
  size_t pos;
  if (indexed_) {
    const auto it = index_.find(app);
    if (it == index_.end()) return nullptr;
    pos = it->second;
    index_.erase(it);
  } else {
    // A tombstone's kDeadHolder app can never match, so no explicit skip.
    pos = 0;
    while (pos < holders_.size() && holders_[pos].app != app) ++pos;
    if (pos == holders_.size()) return nullptr;
  }
  LockRequest& dead = holders_[pos];
  LockBlock* slot = dead.slot;
  --mode_counts_[static_cast<size_t>(dead.mode)];
  --live_holders_;
  ++dead_holders_;
  // Tombstone, not erase: arrival order of the survivors is observable
  // (see holders()), and a stable erase would cost O(holders) per removal.
  dead.app = kDeadHolder;
  dead.mode = LockMode::kNone;
  dead.slot = nullptr;
  if (dead_holders_ > live_holders_ && dead_holders_ > kHolderIndexThreshold) {
    CompactHolders();
  } else if (live_holders_ == 0) {
    holders_.clear();
    dead_holders_ = 0;
    if (indexed_) index_.clear();
  }
  return slot;
}

void LockHead::EnqueueConversion(const WaitingRequest& w) {
  LOCKTUNE_DCHECK(w.is_conversion);
  // After any already-queued conversions, ahead of all new requests.
  auto it = waiters_.begin();
  while (it != waiters_.end() && it->is_conversion) ++it;
  waiters_.insert(it, w);
}

void LockHead::EnqueueNew(const WaitingRequest& w) {
  LOCKTUNE_DCHECK(!w.is_conversion);
  waiters_.push_back(w);
}

LockBlock* LockHead::RemoveWaiter(AppId app, bool* removed) {
  for (auto it = waiters_.begin(); it != waiters_.end(); ++it) {
    if (it->app == app) {
      LockBlock* slot = it->slot;
      waiters_.erase(it);
      if (removed != nullptr) *removed = true;
      return slot;
    }
  }
  if (removed != nullptr) *removed = false;
  return nullptr;
}

bool LockHead::HasWaiter(AppId app) const {
  return std::any_of(waiters_.begin(), waiters_.end(),
                     [app](const WaitingRequest& w) { return w.app == app; });
}

WaitingRequest LockHead::PopFrontWaiter() {
  LOCKTUNE_DCHECK(!waiters_.empty());
  WaitingRequest w = waiters_.front();
  waiters_.erase(waiters_.begin());
  return w;
}

bool LockHead::AggregatesConsistent() const {
  // Recompute the per-mode counts, the live/dead split, and the app → slot
  // index from the holder vector and compare, so a missed maintenance path
  // fails here (paranoid mode / tests) rather than granting against a
  // stale group mode.
  std::array<uint32_t, kNumLockModes> counts{};
  uint32_t live = 0;
  uint32_t dead = 0;
  for (const LockRequest& r : holders_) {
    if (r.app == kDeadHolder) {
      if (r.mode != LockMode::kNone || r.slot != nullptr) return false;
      ++dead;
      continue;
    }
    ++counts[static_cast<size_t>(r.mode)];
    ++live;
  }
  if (counts != mode_counts_ || live != live_holders_ ||
      dead != dead_holders_) {
    return false;
  }
  if (indexed_) {
    if (index_.size() != live) return false;
    for (size_t i = 0; i < holders_.size(); ++i) {
      if (holders_[i].app == kDeadHolder) continue;
      const auto it = index_.find(holders_[i].app);
      if (it == index_.end() || it->second != i) return false;
    }
  }
  return true;
}

}  // namespace locktune
