// Open-addressing hash map keyed by ResourceId (linear probing, tombstone
// deletion), used on the lock-request hot path where std::unordered_map's
// node-per-entry heap churn is too expensive.
//
// Properties the lock path relies on:
//  * values are stored inline in a flat slot array — one cache line probe in
//    the common case, no allocation per insert;
//  * the slot array grows to its high-water mark and is then reused, so
//    steady-state insert/erase cycles do not touch the heap (an erase whose
//    successor slot is empty is reverted to empty immediately, which keeps
//    tombstones from accumulating in low-occupancy tables);
//  * rehashing (growth or tombstone purge) is the only allocating operation
//    and is amortized over at least capacity/4 mutations.
//
// `hash_shift` lets a sharded owner reuse one precomputed hash for both the
// shard select (low bits) and the in-shard probe (bits above the shift).
#ifndef LOCKTUNE_LOCK_RESOURCE_MAP_H_
#define LOCKTUNE_LOCK_RESOURCE_MAP_H_

#include <cstdint>
#include <vector>

#include "common/check.h"
#include "common/status.h"
#include "lock/resource.h"

namespace locktune {

template <typename V>
class ResourceHashMap {
 public:
  explicit ResourceHashMap(int hash_shift = 0) : shift_(hash_shift) {}

  int64_t size() const { return size_; }
  int64_t capacity() const { return static_cast<int64_t>(slots_.size()); }
  bool empty() const { return size_ == 0; }

  // Value for `key`, or nullptr. `hash` must be ResourceIdHash{}(key).
  V* Find(const ResourceId& key, uint64_t hash) {
    if (slots_.empty()) return nullptr;
    const size_t mask = slots_.size() - 1;
    size_t i = (hash >> shift_) & mask;
    while (slots_[i].state != SlotState::kEmpty) {
      if (slots_[i].state == SlotState::kFull && slots_[i].key == key) {
        return &slots_[i].value;
      }
      i = (i + 1) & mask;
    }
    return nullptr;
  }

  const V* Find(const ResourceId& key, uint64_t hash) const {
    return const_cast<ResourceHashMap*>(this)->Find(key, hash);
  }

  // Inserts `key`; must not already be present.
  void Insert(const ResourceId& key, uint64_t hash, V value) {
    if (slots_.empty() || (size_ + tombstones_ + 1) * 4 >
                              static_cast<int64_t>(slots_.size()) * 3) {
      Rehash();
    }
    const size_t mask = slots_.size() - 1;
    size_t i = (hash >> shift_) & mask;
    while (slots_[i].state == SlotState::kFull) {
      LOCKTUNE_DCHECK(!(slots_[i].key == key) && "duplicate ResourceHashMap insert");
      i = (i + 1) & mask;
    }
    if (slots_[i].state == SlotState::kTombstone) --tombstones_;
    slots_[i].state = SlotState::kFull;
    slots_[i].key = key;
    slots_[i].value = value;
    ++size_;
  }

  static constexpr size_t kNpos = ~static_cast<size_t>(0);

  // Slot index of `key`, or kNpos. Lets a caller that must first inspect
  // the value erase it without paying a second probe (EraseIndex).
  size_t FindIndex(const ResourceId& key, uint64_t hash) const {
    if (slots_.empty()) return kNpos;
    const size_t mask = slots_.size() - 1;
    size_t i = (hash >> shift_) & mask;
    while (slots_[i].state != SlotState::kEmpty) {
      if (slots_[i].state == SlotState::kFull && slots_[i].key == key) {
        return i;
      }
      i = (i + 1) & mask;
    }
    return kNpos;
  }

  V& ValueAt(size_t index) { return slots_[index].value; }

  // Removes the (full) slot at `index`, as returned by FindIndex.
  void EraseIndex(size_t index) {
    LOCKTUNE_DCHECK(slots_[index].state == SlotState::kFull);
    const size_t mask = slots_.size() - 1;
    --size_;
    if (slots_[(index + 1) & mask].state == SlotState::kEmpty) {
      // No probe chain continues past this slot: revert it (and any
      // tombstone run ending here) straight to empty.
      slots_[index].state = SlotState::kEmpty;
      size_t back = (index + mask) & mask;
      while (slots_[back].state == SlotState::kTombstone) {
        slots_[back].state = SlotState::kEmpty;
        --tombstones_;
        back = (back + mask) & mask;
      }
    } else {
      slots_[index].state = SlotState::kTombstone;
      ++tombstones_;
    }
  }

  // Removes `key` if present. Returns true when an entry was removed.
  bool Erase(const ResourceId& key, uint64_t hash) {
    const size_t i = FindIndex(key, hash);
    if (i == kNpos) return false;
    EraseIndex(i);
    return true;
  }

  // Drops every entry but keeps the slot array (steady-state reuse).
  void Clear() {
    for (Slot& s : slots_) s.state = SlotState::kEmpty;
    size_ = 0;
    tombstones_ = 0;
  }

  template <typename Fn>
  void ForEach(Fn fn) const {
    for (const Slot& s : slots_) {
      if (s.state == SlotState::kFull) fn(s.key, s.value);
    }
  }

  // Recounts the slot array against the bookkeeping that drives rehashing:
  // size_ and tombstones_ match the full and tombstone slots, the load
  // bound Insert maintains holds, and every entry's probe finds its slot.
  [[nodiscard]] Status CheckConsistency() const {
    if (slots_.empty()) {
      return size_ == 0 && tombstones_ == 0
                 ? Status::Ok()
                 : Status::Internal("empty slot array with nonzero counts");
    }
    if ((slots_.size() & (slots_.size() - 1)) != 0) {
      return Status::Internal("slot array size is not a power of two");
    }
    int64_t full = 0;
    int64_t tombstones = 0;
    for (size_t i = 0; i < slots_.size(); ++i) {
      const Slot& s = slots_[i];
      if (s.state == SlotState::kTombstone) ++tombstones;
      if (s.state != SlotState::kFull) continue;
      ++full;
      if (FindIndex(s.key, ResourceIdHash{}(s.key)) != i) {
        return Status::Internal("probe does not find its own slot");
      }
    }
    if (full != size_) {
      return Status::Internal("size does not match the full slots");
    }
    if (tombstones != tombstones_) {
      return Status::Internal("tombstone count does not match the slots");
    }
    if ((size_ + tombstones_) * 4 > static_cast<int64_t>(slots_.size()) * 3) {
      return Status::Internal("occupancy exceeds the rehash bound");
    }
    return Status::Ok();
  }

 private:
  enum class SlotState : uint8_t { kEmpty = 0, kFull, kTombstone };

  struct Slot {
    ResourceId key;
    V value;
    SlotState state = SlotState::kEmpty;
  };

  static size_t NextPow2(size_t n) {
    size_t p = 16;
    while (p < n) p <<= 1;
    return p;
  }

  void Rehash() {
    std::vector<Slot> old;
    old.swap(slots_);
    slots_.resize(NextPow2(static_cast<size_t>(size_ + 1) * 2));
    size_ = 0;
    tombstones_ = 0;
    for (const Slot& s : old) {
      if (s.state == SlotState::kFull) {
        Insert(s.key, ResourceIdHash{}(s.key), s.value);
      }
    }
  }

  std::vector<Slot> slots_;
  int64_t size_ = 0;
  int64_t tombstones_ = 0;
  int shift_ = 0;
};

}  // namespace locktune

#endif  // LOCKTUNE_LOCK_RESOURCE_MAP_H_
