#include "lock/lock_head.h"

#include <cstdint>
#include <cstdlib>
#include <new>
#include <vector>

#include <gtest/gtest.h>

namespace {

// This binary replaces global operator new/delete (below) so a test can
// count the heap allocations a piece of code makes.
bool counting_allocations = false;
int64_t allocations_counted = 0;

}  // namespace

void* operator new(std::size_t size) {
  if (counting_allocations) ++allocations_counted;
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
// Not inlined: GCC would otherwise see a free() of memory it knows came
// from operator new and warn (-Wmismatched-new-delete), though here both
// sides are malloc and free.
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}

namespace locktune {
namespace {

LockRequest Granted(AppId app, LockMode mode) {
  LockRequest r;
  r.app = app;
  r.mode = mode;
  return r;
}

WaitingRequest Waiting(AppId app, LockMode mode, bool conversion = false) {
  WaitingRequest w;
  w.app = app;
  w.mode = mode;
  w.is_conversion = conversion;
  return w;
}

// The app of every holder slot in arrival order, tombstones included.
std::vector<AppId> HolderSlots(const LockHead& head) {
  std::vector<AppId> apps;
  head.ForEachHolder([&apps](const LockRequest& r) { apps.push_back(r.app); });
  return apps;
}

constexpr AppId kDead = LockHead::kDeadHolder;

TEST(LockHeadTest, EmptyHead) {
  LockHead head;
  EXPECT_TRUE(head.empty());
  EXPECT_EQ(head.GrantedGroupMode(), LockMode::kNone);
  EXPECT_TRUE(head.CanGrantNew(LockMode::kX));
}

TEST(LockHeadTest, FindHolder) {
  LockHead head;
  head.AddHolder(Granted(1, LockMode::kS));
  EXPECT_NE(head.FindHolder(1), nullptr);
  EXPECT_EQ(head.FindHolder(1)->mode, LockMode::kS);
  EXPECT_EQ(head.FindHolder(2), nullptr);
}

TEST(LockHeadTest, GrantedGroupModeIsSupremum) {
  LockHead head;
  head.AddHolder(Granted(1, LockMode::kIS));
  head.AddHolder(Granted(2, LockMode::kIX));
  EXPECT_EQ(head.GrantedGroupMode(), LockMode::kIX);
  head.AddHolder(Granted(3, LockMode::kIS));
  EXPECT_EQ(head.GrantedGroupMode(), LockMode::kIX);
}

TEST(LockHeadTest, GrantedGroupModeExcludesApp) {
  LockHead head;
  head.AddHolder(Granted(1, LockMode::kIX));
  head.AddHolder(Granted(2, LockMode::kIS));
  EXPECT_EQ(head.GrantedGroupMode(1), LockMode::kIS);
}

// Figure 3 of the paper: two compatible share requests join the granted
// group; an incompatible exclusive request chains behind them; a later
// share request queues behind the exclusive (no overtaking).
TEST(LockHeadTest, Figure3LockQueuing) {
  LockHead head;
  // app_1 reads the row: share lock granted.
  ASSERT_TRUE(head.CanGrantNew(LockMode::kS));
  head.AddHolder(Granted(1, LockMode::kS));
  // app_2 asks for share: compatible, shares the lock object.
  ASSERT_TRUE(head.CanGrantNew(LockMode::kS));
  head.AddHolder(Granted(2, LockMode::kS));
  // app_3 asks for exclusive: incompatible, chains.
  ASSERT_FALSE(head.CanGrantNew(LockMode::kX));
  head.EnqueueNew(Waiting(3, LockMode::kX));
  // app_4 asks for share: compatible with the granted group but must queue
  // up behind application 3 (FIFO post discipline).
  EXPECT_FALSE(head.CanGrantNew(LockMode::kS));
  head.EnqueueNew(Waiting(4, LockMode::kS));

  // Both readers release: app_3 is serviced first, then app_4 behind it.
  head.RemoveHolder(1);
  head.RemoveHolder(2);
  EXPECT_EQ(head.FrontWaiter().app, 3);
  EXPECT_TRUE(Compatible(head.GrantedGroupMode(), LockMode::kX));
}

TEST(LockHeadTest, ConversionQueuesAheadOfNewRequests) {
  LockHead head;
  head.AddHolder(Granted(1, LockMode::kS));
  head.AddHolder(Granted(2, LockMode::kS));
  head.EnqueueNew(Waiting(3, LockMode::kX));
  // App 2 converts S → X: must go ahead of app 3's new request.
  head.EnqueueConversion(Waiting(2, LockMode::kX, /*conversion=*/true));
  EXPECT_EQ(head.FrontWaiter().app, 2);
  EXPECT_TRUE(head.FrontWaiter().is_conversion);
}

TEST(LockHeadTest, ConversionsKeepRelativeOrder) {
  LockHead head;
  head.AddHolder(Granted(1, LockMode::kS));
  head.AddHolder(Granted(2, LockMode::kS));
  head.AddHolder(Granted(3, LockMode::kS));
  head.EnqueueConversion(Waiting(2, LockMode::kX, true));
  head.EnqueueConversion(Waiting(3, LockMode::kX, true));
  EXPECT_EQ(head.waiters()[0].app, 2);
  EXPECT_EQ(head.waiters()[1].app, 3);
}

TEST(LockHeadTest, CanGrantConversionIgnoresSelf) {
  LockHead head;
  head.AddHolder(Granted(1, LockMode::kS));
  // Sole holder can always strengthen its own lock.
  EXPECT_TRUE(head.CanGrantConversion(1, LockMode::kX));
  head.AddHolder(Granted(2, LockMode::kS));
  // With another S holder, S→X must wait.
  EXPECT_FALSE(head.CanGrantConversion(1, LockMode::kX));
  // But S→U is compatible with the other S.
  EXPECT_TRUE(head.CanGrantConversion(1, LockMode::kU));
}

TEST(LockHeadTest, RemoveHolderReturnsSlot) {
  LockHead head;
  auto* fake_slot = reinterpret_cast<LockBlock*>(0x1234);
  LockRequest r = Granted(1, LockMode::kS);
  r.slot = fake_slot;
  head.AddHolder(r);
  EXPECT_EQ(head.RemoveHolder(1), fake_slot);
  EXPECT_EQ(head.RemoveHolder(1), nullptr);  // already gone
  EXPECT_TRUE(head.empty());
}

TEST(LockHeadTest, RemoveWaiter) {
  LockHead head;
  head.AddHolder(Granted(1, LockMode::kX));
  head.EnqueueNew(Waiting(2, LockMode::kS));
  head.EnqueueNew(Waiting(3, LockMode::kS));
  bool removed = false;
  head.RemoveWaiter(2, &removed);
  EXPECT_TRUE(removed);
  EXPECT_EQ(head.waiters().size(), 1u);
  EXPECT_EQ(head.FrontWaiter().app, 3);
  head.RemoveWaiter(9, &removed);
  EXPECT_FALSE(removed);
}

// A conversion goes ahead of every new waiter but behind conversions that
// arrived before it — mixing both kinds in one queue.
TEST(LockHeadTest, ConversionOrderingWithMixedQueue) {
  LockHead head;
  head.AddHolder(Granted(1, LockMode::kS));
  head.AddHolder(Granted(2, LockMode::kS));
  head.AddHolder(Granted(3, LockMode::kS));
  head.EnqueueNew(Waiting(4, LockMode::kX));
  head.EnqueueConversion(Waiting(2, LockMode::kX, true));
  head.EnqueueNew(Waiting(5, LockMode::kS));
  head.EnqueueConversion(Waiting(3, LockMode::kU, true));
  ASSERT_EQ(head.waiters().size(), 4u);
  EXPECT_EQ(head.waiters()[0].app, 2);  // first conversion
  EXPECT_EQ(head.waiters()[1].app, 3);  // second conversion, behind the first
  EXPECT_EQ(head.waiters()[2].app, 4);  // new requests keep arrival order
  EXPECT_EQ(head.waiters()[3].app, 5);
}

// Aborting a mid-queue waiter must not reorder the survivors.
TEST(LockHeadTest, FifoPreservedAfterMidQueueRemoval) {
  LockHead head;
  head.AddHolder(Granted(1, LockMode::kX));
  head.EnqueueNew(Waiting(2, LockMode::kS));
  head.EnqueueNew(Waiting(3, LockMode::kX));
  head.EnqueueNew(Waiting(4, LockMode::kS));
  bool removed = false;
  head.RemoveWaiter(3, &removed);
  ASSERT_TRUE(removed);
  ASSERT_EQ(head.waiters().size(), 2u);
  EXPECT_EQ(head.waiters()[0].app, 2);
  EXPECT_EQ(head.waiters()[1].app, 4);
}

// Clear() empties the head but keeps its extension and the buffers in it:
// recycled pool nodes must re-enter service without reallocating. A kept
// buffer shows as the first entries after Clear() landing at the addresses
// the first entries had before it; a fresh one-entry buffer could not.
TEST(LockHeadTest, ClearKeepsCapacity) {
  LockHead head;
  for (AppId a = 1; a <= 16; ++a) head.AddHolder(Granted(a, LockMode::kIS));
  head.AddHolder(Granted(17, LockMode::kIX));
  head.EnqueueNew(Waiting(18, LockMode::kX));
  head.EnqueueNew(Waiting(19, LockMode::kS));
  const LockRequest* second_holder = head.FindHolder(2);
  const WaitingRequest* first_waiter = &head.FrontWaiter();
  head.Clear();
  EXPECT_TRUE(head.empty());
  EXPECT_TRUE(head.AggregatesConsistent());
  EXPECT_EQ(head.GrantedGroupMode(), LockMode::kNone);
  // The cleared head behaves like a brand-new one...
  EXPECT_TRUE(head.CanGrantNew(LockMode::kX));
  head.AddHolder(Granted(1, LockMode::kS));
  EXPECT_EQ(head.GrantedGroupMode(), LockMode::kS);
  // ...and refills the buffers it kept.
  head.AddHolder(Granted(2, LockMode::kS));
  EXPECT_EQ(head.FindHolder(2), second_holder);
  head.EnqueueNew(Waiting(3, LockMode::kX));
  EXPECT_EQ(&head.FrontWaiter(), first_waiter);
  EXPECT_TRUE(head.AggregatesConsistent());
}

// The first holder lives inline. Removing it while others remain leaves a
// tombstone in slot 0 and the later holders in arrival order; the
// deadlock detector's edge order depends on that order.
TEST(LockHeadTest, RemovingInlineHolderLeavesTombstoneFirst) {
  LockHead head;
  for (AppId a = 1; a <= 3; ++a) {
    head.AddHolder(Granted(a, LockMode::kS));
    ASSERT_TRUE(head.AggregatesConsistent()) << "add " << a;
  }
  head.RemoveHolder(1);
  ASSERT_TRUE(head.AggregatesConsistent());
  EXPECT_EQ(HolderSlots(head), (std::vector<AppId>{kDead, 2, 3}));
  EXPECT_EQ(head.FindHolder(1), nullptr);
  EXPECT_EQ(head.FindHolder(3)->app, 3);
  EXPECT_EQ(head.GrantedGroupMode(), LockMode::kS);
  EXPECT_FALSE(head.CanGrantNew(LockMode::kX));
}

// A holder added while the inline slot is dead goes to the end, after the
// later holders that arrived before it, never into the dead slot.
TEST(LockHeadTest, HolderAfterDeadInlineSlotGoesToTheEnd) {
  LockHead head;
  head.AddHolder(Granted(1, LockMode::kIS));
  ASSERT_TRUE(head.AggregatesConsistent());
  head.AddHolder(Granted(2, LockMode::kIS));
  ASSERT_TRUE(head.AggregatesConsistent());
  head.RemoveHolder(1);
  ASSERT_TRUE(head.AggregatesConsistent());
  head.AddHolder(Granted(3, LockMode::kIX));
  ASSERT_TRUE(head.AggregatesConsistent());
  EXPECT_EQ(HolderSlots(head), (std::vector<AppId>{kDead, 2, 3}));
  EXPECT_EQ(head.GrantedGroupMode(), LockMode::kIX);
  EXPECT_EQ(head.GrantedGroupMode(3), LockMode::kIS);
  // Once the last live holder leaves, every slot goes and the next holder
  // is inline again.
  head.RemoveHolder(2);
  ASSERT_TRUE(head.AggregatesConsistent());
  head.RemoveHolder(3);
  ASSERT_TRUE(head.AggregatesConsistent());
  EXPECT_TRUE(head.empty());
  EXPECT_TRUE(HolderSlots(head).empty());
  head.AddHolder(Granted(4, LockMode::kX));
  ASSERT_TRUE(head.AggregatesConsistent());
  EXPECT_EQ(HolderSlots(head), (std::vector<AppId>{4}));
}

// Once more than kHolderIndexThreshold tombstones outnumber the live
// holders, compaction drops them, moves the first live holder inline, and
// keeps arrival order and the app -> slot index (AggregatesConsistent
// checks every index entry against its slot).
TEST(LockHeadTest, CompactionMovesFirstLiveHolderInline) {
  LockHead head;
  for (AppId a = 1; a <= 30; ++a) {
    head.AddHolder(Granted(a, LockMode::kIS));
    ASSERT_TRUE(head.AggregatesConsistent()) << "add " << a;
  }
  // Remove 17 holders, the inline one first, keeping every third app and
  // the tail: tombstones interleave with the survivors until the 17th
  // removal (17 dead > 16, and > 13 live) compacts.
  std::vector<AppId> expected;
  int removed = 0;
  for (AppId a = 1; a <= 30; ++a) {
    if (a % 3 != 0 && removed < 17) {
      head.RemoveHolder(a);
      ++removed;
      ASSERT_TRUE(head.AggregatesConsistent()) << "remove " << a;
      if (removed < 17) {
        EXPECT_EQ(HolderSlots(head).front(), kDead);
      }
    } else {
      expected.push_back(a);
    }
  }
  ASSERT_EQ(expected.size(), 13u);
  EXPECT_EQ(HolderSlots(head), expected);
  for (AppId a : expected) {
    ASSERT_NE(head.FindHolder(a), nullptr) << a;
    EXPECT_EQ(head.FindHolder(a)->app, a);
  }
  // The compacted head keeps working: a new holder goes to the end and a
  // removal tombstones again.
  head.AddHolder(Granted(31, LockMode::kIX));
  ASSERT_TRUE(head.AggregatesConsistent());
  expected.push_back(31);
  EXPECT_EQ(HolderSlots(head), expected);
  head.RemoveHolder(3);
  ASSERT_TRUE(head.AggregatesConsistent());
  expected.front() = kDead;
  EXPECT_EQ(HolderSlots(head), expected);
}

// A head that only ever had a waiter has an extension but no holder; once
// the waiter is granted and leaves, the head behaves like a new one.
TEST(LockHeadTest, WaiterOnlyHeadBehavesLikeANewHead) {
  LockHead head;
  head.EnqueueNew(Waiting(1, LockMode::kX));
  ASSERT_TRUE(head.AggregatesConsistent());
  EXPECT_FALSE(head.empty());
  EXPECT_FALSE(head.HasHolders());
  EXPECT_TRUE(HolderSlots(head).empty());
  EXPECT_EQ(head.GrantedGroupMode(), LockMode::kNone);
  // FIFO: even a compatible request must queue behind the waiter.
  EXPECT_FALSE(head.CanGrantNew(LockMode::kS));
  const WaitingRequest granted = head.PopFrontWaiter();
  ASSERT_TRUE(head.AggregatesConsistent());
  EXPECT_TRUE(head.empty());
  head.AddHolder(Granted(granted.app, granted.mode));
  ASSERT_TRUE(head.AggregatesConsistent());
  EXPECT_EQ(HolderSlots(head), (std::vector<AppId>{1}));
  head.RemoveHolder(1);
  ASSERT_TRUE(head.AggregatesConsistent());
  EXPECT_TRUE(head.empty());
  EXPECT_EQ(head.FindHolder(1), nullptr);
  EXPECT_TRUE(head.CanGrantNew(LockMode::kX));
  head.AddHolder(Granted(2, LockMode::kS));
  ASSERT_TRUE(head.AggregatesConsistent());
  EXPECT_EQ(HolderSlots(head), (std::vector<AppId>{2}));
}

// A head cleared after it had an extension, tombstones, an index and
// waiters keeps none of them.
TEST(LockHeadTest, ClearedHeadBehavesLikeANewHead) {
  LockHead head;
  for (AppId a = 1; a <= 20; ++a) {
    head.AddHolder(Granted(a, LockMode::kIS));
    ASSERT_TRUE(head.AggregatesConsistent()) << "add " << a;
  }
  head.RemoveHolder(1);
  ASSERT_TRUE(head.AggregatesConsistent());
  head.RemoveHolder(7);
  ASSERT_TRUE(head.AggregatesConsistent());
  head.EnqueueNew(Waiting(21, LockMode::kX));
  ASSERT_TRUE(head.AggregatesConsistent());
  head.Clear();
  ASSERT_TRUE(head.AggregatesConsistent());
  EXPECT_TRUE(head.empty());
  EXPECT_TRUE(HolderSlots(head).empty());
  EXPECT_TRUE(head.waiters().empty());
  EXPECT_EQ(head.FindHolder(2), nullptr);
  EXPECT_EQ(head.RemoveHolder(2), nullptr);
  bool removed = true;
  head.RemoveWaiter(21, &removed);
  EXPECT_FALSE(removed);
  EXPECT_EQ(head.GrantedGroupMode(), LockMode::kNone);
  EXPECT_TRUE(head.CanGrantNew(LockMode::kX));
  head.AddHolder(Granted(5, LockMode::kU));
  ASSERT_TRUE(head.AggregatesConsistent());
  head.AddHolder(Granted(6, LockMode::kS));
  ASSERT_TRUE(head.AggregatesConsistent());
  EXPECT_EQ(HolderSlots(head), (std::vector<AppId>{5, 6}));
  EXPECT_EQ(head.GrantedGroupMode(), LockMode::kU);
}

// Home slot of `app` in a 128-slot AppIndex: the top seven bits of its
// Fibonacci hash (lock/app_index.h). Only used to pick colliding ids.
uint32_t HomeIn128Slots(AppId app) {
  return (static_cast<uint32_t>(app) * 0x9E3779B1u) >> 25;
}

// One churn cycle on a crowded head, returning the index of the first step
// after which AggregatesConsistent() failed, or -1. It makes no gtest
// assertion, so nothing but the head allocates while it runs.
int ChurnCycle(LockHead& head, const std::vector<AppId>& apps,
               const std::vector<AppId>& removal_order) {
  int step = 0;
  int first_bad = -1;
  auto check = [&] {
    if (first_bad < 0 && !head.AggregatesConsistent()) first_bad = step;
    ++step;
  };
  // Crossing kHolderIndexThreshold builds the index; removing every holder
  // drops it; re-adding builds it again.
  for (AppId a : apps) {
    head.AddHolder(Granted(a, LockMode::kIX));
    check();
  }
  for (AppId a : removal_order) {
    head.RemoveHolder(a);
    check();
  }
  for (AppId a : apps) {
    head.AddHolder(Granted(a, LockMode::kIS));
    check();
  }
  head.EnqueueConversion(Waiting(apps[0], LockMode::kX, true));
  check();
  head.EnqueueNew(Waiting(-1, LockMode::kX));
  check();
  // A recycled node re-enters service: Clear, then index 20 holders again.
  head.Clear();
  check();
  for (size_t i = 0; i < 20; ++i) {
    head.AddHolder(Granted(apps[i], LockMode::kIX));
    check();
  }
  head.EnqueueNew(Waiting(-1, LockMode::kX));
  check();
  (void)head.PopFrontWaiter();
  check();
  head.Clear();
  check();
  return first_bad;
}

// After one warm-up cycle, holder churn on an indexed head allocates
// nothing: adding and removing holders, compaction, crossing
// kHolderIndexThreshold both ways, queueing, Clear() and reuse all run in
// the buffers the warm-up grew. Half the ids share the last eight home
// slots of the index's 128-slot array, so their probe runs wrap past its
// end, and the removal order erases from the middle of those runs.
TEST(LockHeadTest, HolderChurnAllocatesNothingAfterWarmUp) {
  std::vector<AppId> clustered;
  for (AppId a = 1000; clustered.size() < 32; ++a) {
    if (HomeIn128Slots(a) >= 120) clustered.push_back(a);
  }
  std::vector<AppId> apps;
  for (size_t i = 0; i < 32; ++i) {
    apps.push_back(clustered[i]);
    apps.push_back(static_cast<AppId>(i + 1));
  }
  std::vector<AppId> removal_order;
  for (size_t i = 1; i < 32; i += 2) removal_order.push_back(clustered[i]);
  for (AppId a = 1; a <= 32; ++a) removal_order.push_back(a);
  for (size_t i = 32; i-- > 0;) {
    if (i % 2 == 0) removal_order.push_back(clustered[i]);
  }
  ASSERT_EQ(removal_order.size(), apps.size());

  LockHead head;
  ASSERT_EQ(ChurnCycle(head, apps, removal_order), -1) << "warm-up";
  allocations_counted = 0;
  counting_allocations = true;
  const int first_bad = ChurnCycle(head, apps, removal_order);
  counting_allocations = false;
  EXPECT_EQ(first_bad, -1);
  EXPECT_EQ(allocations_counted, 0);
  EXPECT_TRUE(head.empty());
}

// Conversions being granted via the queue must pop in conversion-first
// order even when a new waiter arrived earlier in wall-clock time.
TEST(LockHeadTest, PopServicesConversionsFirst) {
  LockHead head;
  head.AddHolder(Granted(1, LockMode::kS));
  head.EnqueueNew(Waiting(2, LockMode::kX));
  head.EnqueueConversion(Waiting(1, LockMode::kX, true));
  EXPECT_EQ(head.PopFrontWaiter().app, 1);
  EXPECT_EQ(head.PopFrontWaiter().app, 2);
}

TEST(LockHeadTest, PopFrontWaiterFifo) {
  LockHead head;
  head.EnqueueNew(Waiting(1, LockMode::kX));
  head.EnqueueNew(Waiting(2, LockMode::kS));
  EXPECT_EQ(head.PopFrontWaiter().app, 1);
  EXPECT_EQ(head.PopFrontWaiter().app, 2);
  EXPECT_TRUE(head.empty());
}

}  // namespace
}  // namespace locktune
