// Sharded, pooled resource → LockHead table (the lock manager's `table_`).
//
// Structural decisions that keep the grant/release hot path off the heap:
//
//  * Sharding: the table is split into a power-of-two number of partitions
//    selected by the low bits of ResourceIdHash; each shard's directory is a
//    ResourceHashMap probing on the bits above the shard select, so one
//    precomputed hash serves both levels and a rehash only ever copies one
//    shard's slots.
//
//  * Pooling: LockHead nodes live in slab-allocated arrays and are recycled
//    through a free list. A recycled head keeps its holder/waiter vector
//    capacity, so steady-state lock/unlock traffic allocates nothing; node
//    addresses are stable for the node's lifetime, which the lock manager
//    relies on while draining grant cascades.
//
//  * Per-shard pools: slabs and free lists are shard-local, so the pool
//    gauges and the conservation check (CheckConsistency) account each
//    shard on its own.
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
  // `shard_count` must be a power of two.
  explicit LockTable(int shard_count = kDefaultShards);

  LockTable(const LockTable&) = delete;
  LockTable& operator=(const LockTable&) = delete;

  static constexpr int kDefaultShards = 16;
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
  // order is unspecified (shard/slot order).
  template <typename Fn>
  void ForEach(Fn fn) const {
    for (const Shard& shard : shards_) {
      shard.dir.ForEach([&fn](const ResourceId& key, const Node* node) {
        fn(key, node->head);
      });
    }
  }

  // Full-structure validation (paranoid mode / tests): every directory
  // entry is found by its own probe, every live head's aggregates match a
  // recomputation, and every pooled node is either live in its shard or on
  // that shard's free list (per-shard slab/pool conservation). O(total
  // heads); returns OK or INTERNAL naming the violated invariant.
  [[nodiscard]] Status CheckConsistency() const;

  // --- introspection (pool/shard gauges) ---
  int64_t size() const;
  int shard_count() const { return static_cast<int>(shards_.size()); }
  // Heads in the most loaded shard (occupancy skew indicator).
  int64_t MaxShardSize() const;
  // Live-head count per shard, indexed by shard id.
  std::vector<int64_t> ShardSizes() const;
  int64_t pool_free_nodes() const;
  int64_t pool_total_nodes() const;
  int64_t slab_count() const;

 private:
  struct Node {
    LockHead head;
    Node* next_free = nullptr;
  };

  // A shard owns its directory and its node pool.
  struct Shard {
    explicit Shard(int hash_shift) : dir(hash_shift) {}

    ResourceHashMap<Node*> dir;  // live heads
    std::vector<std::unique_ptr<Node[]>> slabs;
    Node* free_list = nullptr;
    int64_t pool_free = 0;
  };

  static Node* AllocateNode(Shard& shard);
  static void RecycleNode(Shard& shard, Node* node);

  Shard& ShardFor(uint64_t hash) { return shards_[hash & shard_mask_]; }

  std::vector<Shard> shards_;
  uint64_t shard_mask_ = 0;
};

}  // namespace locktune

#endif  // LOCKTUNE_LOCK_LOCK_TABLE_H_
