#include "lock/lock_table.h"

#include "common/check.h"

namespace locktune {

LockHead* LockTable::Find(const ResourceId& resource, uint64_t hash) {
  Node** node = dir_.Find(resource, hash);
  return node == nullptr ? nullptr : &(*node)->head;
}

LockHead& LockTable::GetOrCreate(const ResourceId& resource, uint64_t hash) {
  if (LockHead* head = Find(resource, hash); head != nullptr) return *head;
  return Create(resource, hash);
}

LockHead& LockTable::Create(const ResourceId& resource, uint64_t hash) {
  Node* node = AllocateNode();
  dir_.Insert(resource, hash, node);
  return node->head;
}

bool LockTable::EraseIfEmpty(const ResourceId& resource, uint64_t hash) {
  const size_t index = dir_.FindIndex(resource, hash);
  if (index == ResourceHashMap<Node*>::kNpos) return false;
  Node* node = dir_.ValueAt(index);
  if (!node->head.empty()) return false;
  dir_.EraseIndex(index);
  RecycleNode(node);
  return true;
}

Status LockTable::CheckConsistency() const {
  if (Status s = dir_.CheckConsistency(); !s.ok()) return s;
  Status status = Status::Ok();
  dir_.ForEach([&](const ResourceId&, const Node* node) {
    if (!status.ok()) return;
    if (node == nullptr) {
      status = Status::Internal("full directory slot has no node");
    } else if (!node->head.AggregatesConsistent()) {
      status = Status::Internal("head aggregates do not match its holders");
    }
  });
  if (!status.ok()) return status;
  const int64_t total_nodes = pool_total_nodes();
  int64_t free_nodes = 0;
  for (const Node* node = free_list_; node != nullptr;
       node = node->next_free) {
    if (!node->head.empty()) {
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
  if (dir_.size() + pool_free_ != total_nodes) {
    return Status::Internal("live + free nodes do not cover the slabs");
  }
  return Status::Ok();
}

LockTable::Node* LockTable::AllocateNode() {
  if (free_list_ == nullptr) {
    slabs_.push_back(std::make_unique<Node[]>(kSlabNodes));
    Node* slab = slabs_.back().get();
    for (int i = kSlabNodes - 1; i >= 0; --i) {
      slab[i].next_free = free_list_;
      free_list_ = &slab[i];
    }
    pool_free_ += kSlabNodes;
  }
  Node* node = free_list_;
  free_list_ = node->next_free;
  node->next_free = nullptr;
  --pool_free_;
  LOCKTUNE_DCHECK(node->head.empty() && "recycled head must be clear");
  return node;
}

void LockTable::RecycleNode(Node* node) {
  node->head.Clear();
  node->next_free = free_list_;
  free_list_ = node;
  ++pool_free_;
}

}  // namespace locktune
