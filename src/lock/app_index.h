// A flat AppId → uint32_t map: open addressing with linear probing from a
// multiplicative hash, kept at most half full, with backward-shift erasure
// (no tombstones, so a miss stops at the first empty slot).
//
// It serves two owners. A crowded lock head's app → holder-slot index
// (LockHead::Extension) finds, adds and removes holders in O(1) without a
// heap node per entry, and Clear() keeps the slot array, so a recycled head
// and a head whose holders churn allocate nothing once the array has grown
// to its high-water mark. The deadlock detector maps waiting applications
// to dense node ids with one, built per call. Nothing iterates it, so its
// slot order is not observable.
#ifndef LOCKTUNE_LOCK_APP_INDEX_H_
#define LOCKTUNE_LOCK_APP_INDEX_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace locktune {

// Application (connection) identifier; the unit the paper's per-application
// lock limit applies to.
using AppId = int32_t;

class AppIndex {
 public:
  // Find's answer for an absent application; never a stored value.
  static constexpr uint32_t kAbsent = UINT32_MAX;

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  // The value stored for `app`, or kAbsent.
  uint32_t Find(AppId app) const {
    return size_ == 0 ? kAbsent : slots_[Probe(app)].value;
  }

  // Maps `app` to `value` (which must not be kAbsent), inserting or
  // overwriting. Only an insertion can grow the array.
  void Set(AppId app, uint32_t value) {
    if (slots_.empty()) Rehash(2);
    size_t i = Probe(app);
    if (slots_[i].value == kAbsent) {
      if (2 * (size_ + 1) > slots_.size()) {
        Rehash(2 * (size_ + 1));
        i = Probe(app);
      }
      ++size_;
    }
    slots_[i] = {app, value};
  }

  // Removes `app` if present. Each later entry of the probe run that may
  // legally fill the hole moves back into it, as in LockTable::EraseSlot.
  void Erase(AppId app) {
    if (size_ == 0) return;
    size_t hole = Probe(app);
    if (slots_[hole].value == kAbsent) return;
    const size_t mask = slots_.size() - 1;
    for (size_t i = (hole + 1) & mask; slots_[i].value != kAbsent;
         i = (i + 1) & mask) {
      // The entry may fill the hole iff its probe from home passes it: the
      // hole is no farther from `i` than home is.
      if (((i - Home(slots_[i].app)) & mask) >= ((i - hole) & mask)) {
        slots_[hole] = slots_[i];
        hole = i;
      }
    }
    slots_[hole] = Slot{};
    --size_;
  }

  // Room for `count` entries without a rehash.
  void Reserve(size_t count) {
    if (2 * count > slots_.size()) Rehash(2 * count);
  }

  // Empties the map and keeps its slot array.
  void Clear() {
    if (size_ == 0) return;
    for (Slot& slot : slots_) slot = Slot{};
    size_ = 0;
  }

 private:
  struct Slot {
    AppId app = 0;
    uint32_t value = kAbsent;
  };

  // Fibonacci hashing: the top bits of app · 2^32/φ pick the home slot, so
  // consecutive ids spread over the array.
  size_t Home(AppId app) const {
    return (static_cast<uint32_t>(app) * 0x9E3779B1u) >> shift_;
  }

  // The slot holding `app`, or the empty slot that ends its probe run.
  // The array must be allocated (it always keeps an empty slot).
  size_t Probe(AppId app) const {
    const size_t mask = slots_.size() - 1;
    size_t i = Home(app);
    while (slots_[i].value != kAbsent && slots_[i].app != app) {
      i = (i + 1) & mask;
    }
    return i;
  }

  // Grows the array to the smallest power of two (at least 16) holding
  // `min_slots`, re-placing every entry.
  void Rehash(size_t min_slots) {
    int bits = 4;
    while ((size_t{1} << bits) < min_slots) ++bits;
    std::vector<Slot> old(size_t{1} << bits);
    old.swap(slots_);
    shift_ = 32 - bits;
    const size_t mask = slots_.size() - 1;
    for (const Slot& slot : old) {
      if (slot.value == kAbsent) continue;
      size_t i = Home(slot.app);
      while (slots_[i].value != kAbsent) i = (i + 1) & mask;
      slots_[i] = slot;
    }
  }

  std::vector<Slot> slots_;
  uint32_t size_ = 0;
  int shift_ = 32;
};

}  // namespace locktune

#endif  // LOCKTUNE_LOCK_APP_INDEX_H_
