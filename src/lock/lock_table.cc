#include "lock/lock_table.h"

#include "common/check.h"

namespace locktune {

LockHead* LockTable::Find(const ResourceId& resource, uint64_t hash) {
  const size_t i = FindSlot(PackResource(resource), hash);
  return i == kNpos ? nullptr : &NodeAt(slots_[i].node).head;
}

LockHead& LockTable::GetOrCreate(const ResourceId& resource, uint64_t hash) {
  if (LockHead* head = Find(resource, hash); head != nullptr) return *head;
  return Create(resource, hash);
}

LockHead& LockTable::Create(const ResourceId& resource, uint64_t hash) {
  if ((size_ + 1) * 4 > directory_slots() * 3) Grow();
  const uint64_t key = PackResource(resource);
  const uint32_t tag = static_cast<uint32_t>(hash);
  const size_t mask = slots_.size() - 1;
  size_t i = hash & mask;
  while (slots_[i].node != 0) {
    LOCKTUNE_DCHECK(
        !(slots_[i].tag == tag && NodeAt(slots_[i].node).key == key) &&
        "duplicate lock-table insert");
    i = (i + 1) & mask;
  }
  const uint32_t index = AllocateNode();
  Node& node = NodeAt(index);
  node.key = key;
  slots_[i] = Slot{tag, index};
  ++size_;
  return node.head;
}

bool LockTable::EraseIfEmpty(const ResourceId& resource, uint64_t hash) {
  const size_t i = FindSlot(PackResource(resource), hash);
  if (i == kNpos) return false;
  const uint32_t index = slots_[i].node;
  if (!NodeAt(index).head.empty()) return false;
  EraseSlot(i);
  RecycleNode(index);
  return true;
}

size_t LockTable::FindSlot(uint64_t key, uint64_t hash) const {
  if (slots_.empty()) return kNpos;
  const uint32_t tag = static_cast<uint32_t>(hash);
  const size_t mask = slots_.size() - 1;
  for (size_t i = hash & mask; slots_[i].node != 0; i = (i + 1) & mask) {
    if (slots_[i].tag == tag && NodeAt(slots_[i].node).key == key) return i;
  }
  return kNpos;
}

void LockTable::EraseSlot(size_t index) {
  const size_t mask = slots_.size() - 1;
  size_t hole = index;
  for (size_t i = (hole + 1) & mask; slots_[i].node != 0; i = (i + 1) & mask) {
    // The directory never exceeds 2^32 slots, so the tag's low bits are the
    // home slot. The entry may fill the hole iff its probe from home passes
    // it: the hole is no farther from `i` than home is.
    const size_t home = slots_[i].tag & mask;
    if (((i - home) & mask) >= ((i - hole) & mask)) {
      slots_[hole] = slots_[i];
      hole = i;
    }
  }
  slots_[hole] = Slot{};
  --size_;
}

void LockTable::Grow() {
  // Homes come from the 32-bit tags, so capacity must stay <= 2^32.
  LOCKTUNE_CHECK(slots_.size() <= (size_t{1} << 31) &&
                 "lock-table directory would exceed 2^32 slots");
  std::vector<Slot> old;
  old.swap(slots_);
  slots_.resize(old.empty() ? 16 : old.size() * 2);
  const size_t mask = slots_.size() - 1;
  for (const Slot& slot : old) {
    if (slot.node == 0) continue;
    size_t i = slot.tag & mask;
    while (slots_[i].node != 0) i = (i + 1) & mask;
    slots_[i] = slot;
  }
}

Status LockTable::CheckConsistency(int64_t* empty_heads) const {
  const int64_t total_nodes = pool_total_nodes();
  if ((slots_.size() & (slots_.size() - 1)) != 0) {
    return Status::Internal("directory size is not a power of two");
  }
  const size_t mask = slots_.size() - 1;
  int64_t full = 0;
  int64_t empty = 0;
  for (size_t i = 0; i < slots_.size(); ++i) {
    // Slot order is random node order, and a node may straddle two cache
    // lines: fetching both lines a few slots ahead overlaps the misses.
    if (i + kCheckPrefetchSlots < slots_.size()) {
      const uint32_t ahead = slots_[i + kCheckPrefetchSlots].node;
      if (ahead != 0 && ahead <= total_nodes) {
        const Node& node = NodeAt(ahead);
        __builtin_prefetch(&node.head);
        __builtin_prefetch(&node.key);
      }
    }
    const Slot& slot = slots_[i];
    if (slot.node == 0) continue;
    ++full;
    if (slot.node > total_nodes) {
      return Status::Internal("directory slot names a node outside the slabs");
    }
    const Node& node = NodeAt(slot.node);
    const uint64_t hash = ResourceIdHash{}(UnpackResource(node.key));
    if (slot.tag != static_cast<uint32_t>(hash)) {
      return Status::Internal("slot tag does not match its node's key hash");
    }
    // Its own probe finds it: the probe from home reaches slot i before
    // any empty slot (with no tombstones, nothing else ends a run) or any
    // other slot holding the same key. This is FindSlot(node.key, hash)
    // == i without re-reading slot i's node.
    for (size_t j = hash & mask; j != i; j = (j + 1) & mask) {
      const Slot& other = slots_[j];
      if (other.node == 0 ||
          (other.tag == slot.tag && NodeAt(other.node).key == node.key)) {
        return Status::Internal("probe does not find its own slot");
      }
    }
    if (!node.head.AggregatesConsistent()) {
      return Status::Internal("head aggregates do not match its holders");
    }
    if (node.head.empty()) ++empty;
  }
  if (full != size_) {
    return Status::Internal("size does not match the full slots");
  }
  if (size_ * 4 > directory_slots() * 3) {
    return Status::Internal("occupancy exceeds the growth bound");
  }
  int64_t free_nodes = 0;
  for (uint64_t index = free_head_; index != 0;
       index = NodeAt(static_cast<uint32_t>(index)).key) {
    if (index > static_cast<uint64_t>(total_nodes)) {
      return Status::Internal("free list names a node outside the slabs");
    }
    if (!NodeAt(static_cast<uint32_t>(index)).head.empty()) {
      return Status::Internal("free-list node holds a non-empty head");
    }
    if (++free_nodes > total_nodes) {
      return Status::Internal("free list is cyclic or over-long");
    }
  }
  if (free_nodes != pool_free_) {
    return Status::Internal("pool_free does not match the free list");
  }
  // Conservation: every slab node is either live or free.
  if (size_ + pool_free_ != total_nodes) {
    return Status::Internal("live + free nodes do not cover the slabs");
  }
  if (empty_heads != nullptr) *empty_heads = empty;
  return Status::Ok();
}

uint32_t LockTable::AllocateNode() {
  if (free_head_ == 0) {
    // Indices are 32-bit and 1-based: the new slab's last index must fit.
    const int64_t base = pool_total_nodes();
    LOCKTUNE_CHECK(base + kSlabNodes < (int64_t{1} << 32) &&
                   "lock-table node indices would reach 2^32");
    slabs_.push_back(std::make_unique<Node[]>(kSlabNodes));
    Node* slab = slabs_.back().get();
    for (int i = kSlabNodes - 1; i >= 0; --i) {
      slab[i].key = free_head_;
      free_head_ = static_cast<uint32_t>(base + i + 1);
    }
    pool_free_ += kSlabNodes;
  }
  const uint32_t index = free_head_;
  Node& node = NodeAt(index);
  free_head_ = static_cast<uint32_t>(node.key);
  --pool_free_;
  LOCKTUNE_DCHECK(node.head.empty() && "recycled head must be clear");
  return index;
}

void LockTable::RecycleNode(uint32_t index) {
  Node& node = NodeAt(index);
  node.head.Clear();
  node.key = free_head_;
  free_head_ = index;
  ++pool_free_;
}

}  // namespace locktune
