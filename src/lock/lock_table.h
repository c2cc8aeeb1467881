// Pooled resource → LockHead table (the lock manager's `table_`).
//
// Structural decisions that keep the grant/release hot path off the heap
// and in cache:
//
//  * One directory of 8-byte slots, probed linearly from the resource's
//    precomputed ResourceIdHash. A slot holds a 32-bit tag, the low 32 bits
//    of that hash, and the 32-bit index of the resource's pooled node;
//    index 0 marks an empty slot. A probe compares tags and reads a node
//    only on a tag match, so a miss — and most finds are misses — touches
//    only the directory. Erasure shifts the probe run back instead of
//    leaving a tombstone, taking each entry's home slot from its tag, so a
//    miss stops at the first empty slot and nothing is rehashed. The
//    directory grows to its high-water mark and is then reused.
//
//  * Pooling: LockHead nodes live in slab-allocated arrays and are recycled
//    through a free list. A node is one 64-byte cache line: a head with its
//    first holder inline, plus one key word that holds the resource packed
//    (PackResource) while the node is live and the next free node's index
//    while it is free. A recycled head keeps its extension (later holders,
//    waiters, index) and that extension's capacity, so steady-state
//    lock/unlock traffic allocates nothing. Node addresses are stable for
//    the node's lifetime, which the lock manager relies on while draining
//    grant cascades.
//
// Threads: only the owning LockManager calls it, and one thread drives
// the manager.
#ifndef LOCKTUNE_LOCK_LOCK_TABLE_H_
#define LOCKTUNE_LOCK_LOCK_TABLE_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/status.h"
#include "lock/lock_head.h"
#include "lock/resource.h"

namespace locktune {

// Every resource passed in must satisfy FitsPackedKey.
class LockTable {
 public:
  LockTable() = default;

  LockTable(const LockTable&) = delete;
  LockTable& operator=(const LockTable&) = delete;

  // Nodes per slab; slabs are never returned to the heap.
  static constexpr int kSlabNodes = 256;

  // Head for `resource`, or nullptr. Pointers stay valid until Erase.
  // The `hash` overloads take a precomputed ResourceIdHash so one request
  // that touches the table several times hashes its key once.
  LockHead* Find(const ResourceId& resource) {
    return Find(resource, ResourceIdHash{}(resource));
  }
  const LockHead* Find(const ResourceId& resource) const {
    return const_cast<LockTable*>(this)->Find(resource,
                                              ResourceIdHash{}(resource));
  }
  LockHead* Find(const ResourceId& resource, uint64_t hash);

  // Head for `resource`, creating an empty one (from the pool) if absent.
  LockHead& GetOrCreate(const ResourceId& resource) {
    return GetOrCreate(resource, ResourceIdHash{}(resource));
  }
  LockHead& GetOrCreate(const ResourceId& resource, uint64_t hash);

  // Inserts a fresh head for `resource`, which the caller has already
  // established is absent (skips the find GetOrCreate would repeat).
  LockHead& Create(const ResourceId& resource, uint64_t hash);

  // Removes `resource`'s head if present and empty, recycling the node.
  // Returns true when a head was removed. Single probe.
  bool EraseIfEmpty(const ResourceId& resource) {
    return EraseIfEmpty(resource, ResourceIdHash{}(resource));
  }
  bool EraseIfEmpty(const ResourceId& resource, uint64_t hash);

  // Prefetches the directory slot a lookup of the packed `key` probes
  // first, for validation loops that look up many keys in a row.
  void PrefetchHome(uint64_t key) const {
    if (slots_.empty()) return;
    const uint64_t hash = ResourceIdHash{}(UnpackResource(key));
    __builtin_prefetch(&slots_[hash & (slots_.size() - 1)]);
  }

  // Full-structure validation (paranoid mode / tests): the directory's
  // size and occupancy bound hold, every slot's tag is its node's key
  // hash and its own probe finds it, every live head's aggregates match a
  // recomputation, and every pooled node is either live or on the free
  // list (slab/pool conservation). O(slots + total nodes); returns OK or
  // INTERNAL naming the violated invariant. When `empty_heads` is given,
  // it receives the number of live heads that are empty (the same pass
  // visits them; the lock manager allows none between requests).
  [[nodiscard]] Status CheckConsistency(int64_t* empty_heads = nullptr) const;

  // --- introspection (pool and directory gauges) ---
  int64_t size() const { return size_; }
  int64_t directory_slots() const {
    return static_cast<int64_t>(slots_.size());
  }
  int64_t pool_free_nodes() const { return pool_free_; }
  int64_t pool_total_nodes() const { return slab_count() * kSlabNodes; }
  int64_t slab_count() const { return static_cast<int64_t>(slabs_.size()); }

 private:
  // A directory slot: the low 32 bits of the resource's hash, and the
  // 1-based index of its node (0 = empty slot).
  struct Slot {
    uint32_t tag = 0;
    uint32_t node = 0;
  };
  static_assert(sizeof(Slot) == 8, "a directory slot is 8 bytes");

  struct Node {
    LockHead head;
    // Live: the resource, PackResource-packed. Free: the next free node's
    // index (0 ends the free list).
    uint64_t key = 0;
  };
  static_assert(sizeof(Node) <= 64, "a lock-table node is one cache line");

  static constexpr size_t kNpos = ~size_t{0};

  // How far ahead of its cursor CheckConsistency prefetches nodes.
  static constexpr size_t kCheckPrefetchSlots = 16;

  Node& NodeAt(uint32_t index) {
    return slabs_[(index - 1) / kSlabNodes][(index - 1) % kSlabNodes];
  }
  const Node& NodeAt(uint32_t index) const {
    return slabs_[(index - 1) / kSlabNodes][(index - 1) % kSlabNodes];
  }

  // Slot index of the live node whose key word is `key`, or kNpos. `hash`
  // must be the key's ResourceIdHash.
  size_t FindSlot(uint64_t key, uint64_t hash) const;

  // Empties the full slot at `index` without a tombstone: walking the rest
  // of the probe run, each entry whose home slot (its tag's low bits) lies
  // cyclically outside (hole, entry's slot] moves back into the hole and
  // leaves its old slot as the new hole; the last hole is emptied.
  void EraseSlot(size_t index);

  // Doubles the directory (16 slots at first) and re-places every slot
  // from its tag.
  void Grow();

  uint32_t AllocateNode();
  void RecycleNode(uint32_t index);

  std::vector<Slot> slots_;  // power-of-two size, at most 3/4 full
  int64_t size_ = 0;         // full slots = live heads
  std::vector<std::unique_ptr<Node[]>> slabs_;
  uint32_t free_head_ = 0;  // first free node's index, 0 when none
  int64_t pool_free_ = 0;
};

}  // namespace locktune

#endif  // LOCKTUNE_LOCK_LOCK_TABLE_H_
