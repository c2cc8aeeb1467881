// Open-addressing hash map keyed by ResourceId (linear probing, backward-
// shift deletion), used on the lock-request hot path where
// std::unordered_map's node-per-entry heap churn is too expensive.
//
// Properties the lock path relies on:
//  * values are stored inline in a flat slot array — one cache line probe in
//    the common case, no allocation per insert;
//  * erasing shifts the rest of the probe run back into the hole instead
//    of leaving a tombstone, so every run stays as short as the live keys
//    make it and a miss stops at the first empty slot (most lock-table
//    finds are misses: a row lock usually creates its head);
//  * the slot array grows to its high-water mark and is then reused, so
//    steady-state insert/erase cycles do not touch the heap; growth is the
//    only allocating operation.
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
  int64_t size() const { return size_; }
  int64_t capacity() const { return static_cast<int64_t>(slots_.size()); }

  // Value for `key`, or nullptr. `hash` must be ResourceIdHash{}(key).
  V* Find(const ResourceId& key, uint64_t hash) {
    const size_t i = FindIndex(key, hash);
    return i == kNpos ? nullptr : &slots_[i].value;
  }

  // Inserts `key`; must not already be present.
  void Insert(const ResourceId& key, uint64_t hash, V value) {
    if ((size_ + 1) * 4 > static_cast<int64_t>(slots_.size()) * 3) Grow();
    const size_t mask = slots_.size() - 1;
    size_t i = hash & mask;
    while (slots_[i].full) {
      LOCKTUNE_DCHECK(!(slots_[i].key == key) && "duplicate ResourceHashMap insert");
      i = (i + 1) & mask;
    }
    slots_[i].full = true;
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
    for (size_t i = hash & mask; slots_[i].full; i = (i + 1) & mask) {
      if (slots_[i].key == key) return i;
    }
    return kNpos;
  }

  V& ValueAt(size_t index) { return slots_[index].value; }

  // Removes the (full) slot at `index`, as returned by FindIndex, without
  // a tombstone: walking the rest of the probe run, each entry whose home
  // slot lies cyclically outside (hole, entry's slot] moves back into the
  // hole and leaves its old slot as the new hole; the last hole is
  // emptied.
  void EraseIndex(size_t index) {
    LOCKTUNE_DCHECK(slots_[index].full);
    const size_t mask = slots_.size() - 1;
    size_t hole = index;
    for (size_t i = (hole + 1) & mask; slots_[i].full; i = (i + 1) & mask) {
      const size_t home = ResourceIdHash{}(slots_[i].key) & mask;
      // The entry may fill the hole iff its probe from `home` passes it:
      // the hole is no farther from `i` than `home` is.
      if (((i - home) & mask) >= ((i - hole) & mask)) {
        slots_[hole] = slots_[i];
        hole = i;
      }
    }
    slots_[hole].full = false;
    --size_;
  }

  // Removes `key` if present. Returns true when an entry was removed.
  bool Erase(const ResourceId& key, uint64_t hash) {
    const size_t i = FindIndex(key, hash);
    if (i == kNpos) return false;
    EraseIndex(i);
    return true;
  }

  template <typename Fn>
  void ForEach(Fn fn) const {
    for (const Slot& s : slots_) {
      if (s.full) fn(s.key, s.value);
    }
  }

  // Recounts the slot array against the bookkeeping: size_ matches the
  // full slots, the load bound Insert maintains holds, and every entry's
  // probe finds its slot (which, with no tombstones, also means no empty
  // slot interrupts the run between an entry's home slot and the entry).
  [[nodiscard]] Status CheckConsistency() const {
    if (slots_.empty()) {
      return size_ == 0 ? Status::Ok()
                        : Status::Internal("empty slot array with entries");
    }
    if ((slots_.size() & (slots_.size() - 1)) != 0) {
      return Status::Internal("slot array size is not a power of two");
    }
    int64_t full = 0;
    for (size_t i = 0; i < slots_.size(); ++i) {
      const Slot& s = slots_[i];
      if (!s.full) continue;
      ++full;
      if (FindIndex(s.key, ResourceIdHash{}(s.key)) != i) {
        return Status::Internal("probe does not find its own slot");
      }
    }
    if (full != size_) {
      return Status::Internal("size does not match the full slots");
    }
    if (size_ * 4 > static_cast<int64_t>(slots_.size()) * 3) {
      return Status::Internal("occupancy exceeds the growth bound");
    }
    return Status::Ok();
  }

 private:
  struct Slot {
    ResourceId key;
    V value;
    bool full = false;
  };

  // Doubles the slot array (16 slots at first) and re-inserts every entry.
  void Grow() {
    std::vector<Slot> old;
    old.swap(slots_);
    slots_.resize(old.empty() ? 16 : old.size() * 2);
    size_ = 0;
    for (const Slot& s : old) {
      if (s.full) Insert(s.key, ResourceIdHash{}(s.key), s.value);
    }
  }

  std::vector<Slot> slots_;
  int64_t size_ = 0;
};

}  // namespace locktune

#endif  // LOCKTUNE_LOCK_RESOURCE_MAP_H_
