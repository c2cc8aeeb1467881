#include "memory/block_list.h"

#include "common/check.h"

namespace locktune {

void BlockList::IntrusiveList::PushFront(LockBlock* block) {
  block->prev_ = nullptr;
  block->next_ = head;
  if (head != nullptr) head->prev_ = block;
  head = block;
  if (tail == nullptr) tail = block;
}

void BlockList::IntrusiveList::PushBack(LockBlock* block) {
  block->next_ = nullptr;
  block->prev_ = tail;
  if (tail != nullptr) tail->next_ = block;
  tail = block;
  if (head == nullptr) head = block;
}

void BlockList::IntrusiveList::Unlink(LockBlock* block) {
  if (block->prev_ != nullptr) block->prev_->next_ = block->next_;
  if (block->next_ != nullptr) block->next_->prev_ = block->prev_;
  if (head == block) head = block->next_;
  if (tail == block) tail = block->prev_;
  block->prev_ = nullptr;
  block->next_ = nullptr;
}

LockBlock* BlockList::AddBlock() {
  blocks_.push_back(std::make_unique<LockBlock>(next_block_id_++));
  LockBlock* block = blocks_.back().get();
  active_.PushBack(block);
  ++active_count_;
  ++blocks_added_;
  return block;
}

Result<LockBlock*> BlockList::AllocateSlot() {
  if (active_.empty()) {
    return Status::ResourceExhausted("no free lock structures");
  }
  LockBlock* head = active_.head;
  head->TakeSlot();
  ++slots_in_use_;
  if (head->full()) {
    // The head block is exhausted; park it until one of its locks frees.
    active_.Unlink(head);
    --active_count_;
    exhausted_.PushBack(head);
    ++exhausted_count_;
  }
  return head;
}

void BlockList::FreeSlot(LockBlock* block) {
  LOCKTUNE_DCHECK(block != nullptr);
  const bool was_exhausted = block->full();
  block->ReturnSlot();
  --slots_in_use_;
  if (was_exhausted) {
    // Returns to the head of the active list so the next request is
    // satisfied from this block again (paper §2.2).
    exhausted_.Unlink(block);
    --exhausted_count_;
    active_.PushFront(block);
    ++active_count_;
  }
}

Status BlockList::TryRemoveBlocks(int64_t count) {
  if (count <= 0) return Status::Ok();
  // Scan from the end of the active list, setting aside entirely free
  // blocks. (Exhausted blocks are by definition not freeable.)
  std::vector<LockBlock*> set_aside;
  for (LockBlock* block = active_.tail; block != nullptr;
       block = block->prev_) {
    if (block->empty()) {
      set_aside.push_back(block);
      if (static_cast<int64_t>(set_aside.size()) == count) break;
    }
  }
  if (static_cast<int64_t>(set_aside.size()) < count) {
    // Not enough freeable blocks: reintegrate (a no-op here, since blocks
    // were only marked) and fail the request, as DB2 does.
    return Status::FailedPrecondition("not enough freeable lock blocks");
  }
  for (LockBlock* block : set_aside) {
    active_.Unlink(block);
    --active_count_;
    Destroy(block);
  }
  blocks_removed_ += count;
  return Status::Ok();
}

void BlockList::Destroy(LockBlock* block) {
  for (auto it = blocks_.begin(); it != blocks_.end(); ++it) {
    if (it->get() == block) {
      blocks_.erase(it);
      return;
    }
  }
  LOCKTUNE_DCHECK(false && "block not found in ownership store");
}

int64_t BlockList::entirely_free_blocks() const {
  int64_t n = 0;
  for (const LockBlock* b = active_.head; b != nullptr; b = b->next_) {
    if (b->empty()) ++n;
  }
  return n;
}

Status BlockList::CheckConsistency() const {
  int64_t in_use = 0;
  int64_t active_seen = 0;
  for (const LockBlock* b = active_.head; b != nullptr; b = b->next_) {
    if (b->full()) return Status::Internal("full block on active list");
    in_use += b->in_use();
    ++active_seen;
  }
  int64_t exhausted_seen = 0;
  for (const LockBlock* b = exhausted_.head; b != nullptr; b = b->next_) {
    if (!b->full()) {
      return Status::Internal("non-full block on exhausted list");
    }
    in_use += b->in_use();
    ++exhausted_seen;
  }
  if (active_seen != active_count_ || exhausted_seen != exhausted_count_) {
    return Status::Internal("list counts do not match linked blocks");
  }
  if (active_seen + exhausted_seen != static_cast<int64_t>(blocks_.size())) {
    return Status::Internal("owned blocks do not all appear on a list");
  }
  if (in_use != slots_in_use_) {
    return Status::Internal("slots_in_use_ does not match per-block sums");
  }
  return Status::Ok();
}

}  // namespace locktune
