// Pooled resource → LockHead table (the lock manager's `table_`).
//
// Structural decisions that keep the grant/release hot path off the heap
// and in cache:
//
//  * One directory: a ResourceHashMap from resource to pooled node, probed
//    with the caller's precomputed ResourceIdHash. Erasure shifts the probe
//    run back (no tombstones), so a miss stops at the first empty slot.
//
//  * Pooling: LockHead nodes live in slab-allocated arrays and are recycled
//    through a free list. A node is one 64-byte cache line — a head with
//    its first holder inline plus the free-list link — and a recycled head
//    keeps its extension (later holders, waiters, index) and that
//    extension's capacity, so steady-state lock/unlock traffic allocates
//    nothing. Node addresses are stable for the node's lifetime, which the
//    lock manager relies on while draining grant cascades.
//
// Thread safety: none of its own. The owning LockManager serializes every
// call under its mutex.
#ifndef LOCKTUNE_LOCK_LOCK_TABLE_H_
#define LOCKTUNE_LOCK_LOCK_TABLE_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "common/status.h"
#include "lock/lock_head.h"
#include "lock/resource.h"
#include "lock/resource_map.h"

namespace locktune {

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

  // Calls fn(const ResourceId&, const LockHead&) for every head. Iteration
  // order is unspecified (slot order).
  template <typename Fn>
  void ForEach(Fn fn) const {
    dir_.ForEach([&fn](const ResourceId& key, const Node* node) {
      fn(key, node->head);
    });
  }

  // Full-structure validation (paranoid mode / tests): every directory
  // entry is found by its own probe, every live head's aggregates match a
  // recomputation, and every pooled node is either live or on the free
  // list (slab/pool conservation). O(total heads); returns OK or INTERNAL
  // naming the violated invariant.
  [[nodiscard]] Status CheckConsistency() const;

  // --- introspection (pool gauges) ---
  int64_t size() const { return dir_.size(); }
  int64_t pool_free_nodes() const { return pool_free_; }
  int64_t pool_total_nodes() const { return slab_count() * kSlabNodes; }
  int64_t slab_count() const { return static_cast<int64_t>(slabs_.size()); }

 private:
  struct Node {
    LockHead head;
    Node* next_free = nullptr;
  };
  static_assert(sizeof(Node) <= 64, "a lock-table node is one cache line");

  Node* AllocateNode();
  void RecycleNode(Node* node);

  ResourceHashMap<Node*> dir_;  // live heads
  std::vector<std::unique_ptr<Node[]>> slabs_;
  Node* free_list_ = nullptr;
  int64_t pool_free_ = 0;
};

}  // namespace locktune

#endif  // LOCKTUNE_LOCK_LOCK_TABLE_H_
