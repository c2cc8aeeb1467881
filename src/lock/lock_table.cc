#include "lock/lock_table.h"

#include <algorithm>

#include "common/check.h"

namespace locktune {

LockTable::LockTable(int shard_count) {
  LOCKTUNE_DCHECK(shard_count > 0 && (shard_count & (shard_count - 1)) == 0 &&
         "shard count must be a power of two");
  shard_mask_ = static_cast<uint64_t>(shard_count - 1);
  int bits = 0;
  while ((1 << bits) < shard_count) ++bits;
  shards_.reserve(static_cast<size_t>(shard_count));
  for (int i = 0; i < shard_count; ++i) {
    shards_.emplace_back(/*hash_shift=*/bits);
  }
}

LockHead* LockTable::Find(const ResourceId& resource, uint64_t hash) {
  Node** node = ShardFor(hash).dir.Find(resource, hash);
  return node == nullptr ? nullptr : &(*node)->head;
}

LockHead& LockTable::GetOrCreate(const ResourceId& resource, uint64_t hash) {
  if (LockHead* head = Find(resource, hash); head != nullptr) return *head;
  return Create(resource, hash);
}

LockHead& LockTable::Create(const ResourceId& resource, uint64_t hash) {
  Shard& shard = ShardFor(hash);
  Node* node = AllocateNode(shard);
  shard.dir.Insert(resource, hash, node);
  return node->head;
}

bool LockTable::EraseIfEmpty(const ResourceId& resource, uint64_t hash) {
  Shard& shard = ShardFor(hash);
  const size_t index = shard.dir.FindIndex(resource, hash);
  if (index == ResourceHashMap<Node*>::kNpos) return false;
  Node* node = shard.dir.ValueAt(index);
  if (!node->head.empty()) return false;
  shard.dir.EraseIndex(index);
  RecycleNode(shard, node);
  return true;
}

int64_t LockTable::size() const {
  int64_t total = 0;
  for (const Shard& shard : shards_) total += shard.dir.size();
  return total;
}

int64_t LockTable::MaxShardSize() const {
  int64_t max_size = 0;
  for (const Shard& shard : shards_) {
    max_size = std::max(max_size, shard.dir.size());
  }
  return max_size;
}

std::vector<int64_t> LockTable::ShardSizes() const {
  std::vector<int64_t> sizes;
  sizes.reserve(shards_.size());
  for (const Shard& shard : shards_) sizes.push_back(shard.dir.size());
  return sizes;
}

int64_t LockTable::pool_free_nodes() const {
  int64_t total = 0;
  for (const Shard& shard : shards_) total += shard.pool_free;
  return total;
}

int64_t LockTable::pool_total_nodes() const {
  int64_t total = 0;
  for (const Shard& shard : shards_) {
    total += static_cast<int64_t>(shard.slabs.size()) * kSlabNodes;
  }
  return total;
}

int64_t LockTable::slab_count() const {
  int64_t total = 0;
  for (const Shard& shard : shards_) {
    total += static_cast<int64_t>(shard.slabs.size());
  }
  return total;
}

Status LockTable::CheckConsistency() const {
  for (const Shard& shard : shards_) {
    if (Status s = shard.dir.CheckConsistency(); !s.ok()) return s;
    Status status = Status::Ok();
    shard.dir.ForEach([&](const ResourceId&, const Node* node) {
      if (!status.ok()) return;
      if (node == nullptr) {
        status = Status::Internal("full directory slot has no node");
      } else if (!node->head.AggregatesConsistent()) {
        status = Status::Internal("head aggregates do not match its vectors");
      }
    });
    if (!status.ok()) return status;
    const int64_t shard_nodes =
        static_cast<int64_t>(shard.slabs.size()) * kSlabNodes;
    int64_t free_nodes = 0;
    for (const Node* node = shard.free_list; node != nullptr;
         node = node->next_free) {
      if (!node->head.empty()) {
        return Status::Internal("free-list node holds a non-empty head");
      }
      if (++free_nodes > shard_nodes) {
        return Status::Internal("free list is cyclic or over-long");
      }
    }
    if (free_nodes != shard.pool_free) {
      return Status::Internal("pool_free does not match the free list");
    }
    // Conservation: every slab node is either live in the shard or free.
    if (shard.dir.size() + shard.pool_free != shard_nodes) {
      return Status::Internal("live + free nodes do not cover the slabs");
    }
  }
  return Status::Ok();
}

LockTable::Node* LockTable::AllocateNode(Shard& shard) {
  if (shard.free_list == nullptr) {
    shard.slabs.push_back(std::make_unique<Node[]>(kSlabNodes));
    Node* slab = shard.slabs.back().get();
    for (int i = kSlabNodes - 1; i >= 0; --i) {
      slab[i].next_free = shard.free_list;
      shard.free_list = &slab[i];
    }
    shard.pool_free += kSlabNodes;
  }
  Node* node = shard.free_list;
  shard.free_list = node->next_free;
  node->next_free = nullptr;
  --shard.pool_free;
  LOCKTUNE_DCHECK(node->head.empty() && "recycled head must be clear");
  return node;
}

void LockTable::RecycleNode(Shard& shard, Node* node) {
  node->head.Clear();
  node->next_free = shard.free_list;
  shard.free_list = node;
  ++shard.pool_free;
}

}  // namespace locktune
