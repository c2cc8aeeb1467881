// DB2's lock memory block list (paper §2.2).
//
// Lock structures are allocated from the first block on the active list.
// When the head block's slots are exhausted, it moves to the exhausted list
// and the next block becomes the head. When a lock allocated from an
// exhausted block is freed, that block returns to the *head* of the active
// list, so subsequent requests are satisfied from it again.
//
// This discipline concentrates usage at the front of the list: if locking
// demand needs only part of the allocated memory, blocks toward the end of
// the list stay entirely free, which makes shrink requests cheap to satisfy.
//
// Shrinking scans from the end of the list, setting aside blocks with no
// outstanding lock structures. If enough freeable blocks are found they are
// deallocated and the request succeeds; otherwise the set-aside blocks are
// reintegrated and the request fails (all-or-nothing, as in DB2).
#ifndef LOCKTUNE_MEMORY_BLOCK_LIST_H_
#define LOCKTUNE_MEMORY_BLOCK_LIST_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "common/status.h"
#include "common/units.h"
#include "memory/lock_block.h"

namespace locktune {

class BlockList {
 public:
  BlockList() = default;

  BlockList(const BlockList&) = delete;
  BlockList& operator=(const BlockList&) = delete;

  // Appends one new (entirely free) block to the end of the active list.
  // Returns the new block.
  LockBlock* AddBlock();

  // Allocates one lock structure slot from the head block. Returns the block
  // the slot came from (the caller keeps it to free the slot later), or
  // RESOURCE_EXHAUSTED when every slot in every block is in use.
  [[nodiscard]] Result<LockBlock*> AllocateSlot();

  // Frees one slot previously obtained from AllocateSlot on `block`.
  // If the block was on the exhausted list it returns to the head of the
  // active list.
  void FreeSlot(LockBlock* block);

  // Attempts to remove exactly `count` blocks, scanning from the end of the
  // active list for blocks with no outstanding lock structures. All-or-
  // nothing: on failure no block is removed and FAILED_PRECONDITION is
  // returned.
  [[nodiscard]] Status TryRemoveBlocks(int64_t count);

  // --- accounting ---
  int64_t block_count() const { return active_count_ + exhausted_count_; }
  Bytes allocated_bytes() const { return block_count() * kLockBlockSize; }
  int64_t capacity_slots() const { return block_count() * kLocksPerBlock; }
  int64_t slots_in_use() const { return slots_in_use_; }
  int64_t free_slots() const { return capacity_slots() - slots_in_use(); }
  Bytes used_bytes() const { return slots_in_use() * kLockStructSize; }
  // Blocks with no outstanding lock structures (candidates for shrink).
  int64_t entirely_free_blocks() const;
  // Lifetime churn: blocks ever added / ever removed (telemetry).
  int64_t blocks_added() const { return blocks_added_; }
  int64_t blocks_removed() const { return blocks_removed_; }

  // Verifies internal invariants; used by tests. Returns OK or INTERNAL
  // with a description of the violated invariant.
  [[nodiscard]] Status CheckConsistency() const;

 private:
  using BlockPtr = std::unique_ptr<LockBlock>;

  // One intrusive doubly-linked list threaded through LockBlock::prev_/
  // next_. Links and unlinks are O(1); FreeSlot on an exhausted block no
  // longer scans the exhausted list to find itself.
  struct IntrusiveList {
    LockBlock* head = nullptr;
    LockBlock* tail = nullptr;

    void PushFront(LockBlock* block);
    void PushBack(LockBlock* block);
    void Unlink(LockBlock* block);
    bool empty() const { return head == nullptr; }
  };

  // Removes `block` from the ownership store, destroying it.
  void Destroy(LockBlock* block);

  std::vector<BlockPtr> blocks_;  // ownership, unordered
  IntrusiveList active_;          // head = allocation target
  IntrusiveList exhausted_;       // blocks with zero free slots
  int64_t active_count_ = 0;
  int64_t exhausted_count_ = 0;
  int64_t slots_in_use_ = 0;
  int64_t next_block_id_ = 0;
  int64_t blocks_added_ = 0;
  int64_t blocks_removed_ = 0;
};

}  // namespace locktune

#endif  // LOCKTUNE_MEMORY_BLOCK_LIST_H_
