// LockTable unit tests: pooled node recycling, pointer stability, the
// precomputed-hash fast paths the lock manager relies on, and the
// ResourceHashMap the directory uses (backward-shift erase, self-check).
#include "lock/lock_table.h"

#include <memory>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "lock/escalation_policy.h"
#include "lock/lock_manager.h"
#include "lock/resource.h"
#include "lock/resource_map.h"

namespace locktune {
namespace {

LockRequest Granted(AppId app, LockMode mode) {
  LockRequest r;
  r.app = app;
  r.mode = mode;
  return r;
}

TEST(LockTableTest, FindMissesWhenEmpty) {
  LockTable table;
  EXPECT_EQ(table.Find(RowResource(1, 1)), nullptr);
  EXPECT_EQ(table.size(), 0);
}

TEST(LockTableTest, GetOrCreateInsertsOnceAndFinds) {
  LockTable table;
  LockHead& head = table.GetOrCreate(RowResource(3, 7));
  EXPECT_TRUE(head.empty());
  EXPECT_EQ(table.size(), 1);
  // Same key: same head, no second insert.
  EXPECT_EQ(&table.GetOrCreate(RowResource(3, 7)), &head);
  EXPECT_EQ(table.size(), 1);
  EXPECT_EQ(table.Find(RowResource(3, 7)), &head);
  // Row and table resources with the same ids are distinct keys.
  EXPECT_EQ(table.Find(TableResource(3)), nullptr);
}

TEST(LockTableTest, HashOverloadsAgreeWithConvenienceForms) {
  LockTable table;
  const ResourceId res = RowResource(5, 42);
  const uint64_t hash = ResourceIdHash{}(res);
  LockHead& head = table.GetOrCreate(res, hash);
  EXPECT_EQ(table.Find(res, hash), &head);
  EXPECT_EQ(table.Find(res), &head);
  EXPECT_TRUE(table.EraseIfEmpty(res, hash));
  EXPECT_EQ(table.Find(res), nullptr);
}

TEST(LockTableTest, CreateSkipsTheFind) {
  LockTable table;
  const ResourceId res = RowResource(2, 9);
  const uint64_t hash = ResourceIdHash{}(res);
  ASSERT_EQ(table.Find(res, hash), nullptr);
  LockHead& head = table.Create(res, hash);
  EXPECT_EQ(table.Find(res, hash), &head);
  EXPECT_EQ(table.size(), 1);
}

TEST(LockTableTest, EraseIfEmptyRespectsOccupancy) {
  LockTable table;
  const ResourceId res = RowResource(1, 1);
  // Absent key: nothing to erase.
  EXPECT_FALSE(table.EraseIfEmpty(res));
  LockHead& head = table.GetOrCreate(res);
  head.AddHolder(Granted(1, LockMode::kS));
  // Occupied head stays.
  EXPECT_FALSE(table.EraseIfEmpty(res));
  EXPECT_EQ(table.size(), 1);
  head.RemoveHolder(1);
  EXPECT_TRUE(table.EraseIfEmpty(res));
  EXPECT_EQ(table.size(), 0);
  EXPECT_EQ(table.Find(res), nullptr);
}

// Head addresses must survive arbitrary further inserts: the lock manager
// stores head pointers in per-application held lists and across grant
// cascades.
TEST(LockTableTest, HeadPointersAreStableAcrossInserts) {
  LockTable table;
  std::vector<LockHead*> heads;
  for (int i = 0; i < 100; ++i) {
    heads.push_back(&table.GetOrCreate(RowResource(1, i)));
  }
  for (int i = 100; i < 1000; ++i) {
    table.GetOrCreate(RowResource(1, i));  // force directory growth
  }
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(table.Find(RowResource(1, i)), heads[i]) << "row " << i;
  }
}

TEST(LockTableTest, PoolRecyclesNodesWithoutNewSlabs) {
  LockTable table;
  ASSERT_EQ(table.slab_count(), 0);
  for (int i = 0; i < 100; ++i) table.GetOrCreate(RowResource(1, i));
  EXPECT_EQ(table.slab_count(), 1);
  // Conservation: live + free == slabs * kSlabNodes.
  EXPECT_EQ(table.pool_total_nodes(),
            table.slab_count() * LockTable::kSlabNodes);
  EXPECT_EQ(table.pool_free_nodes(), LockTable::kSlabNodes - 100);
  ASSERT_EQ(table.CheckConsistency(), Status::Ok());
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(table.EraseIfEmpty(RowResource(1, i)));
  }
  EXPECT_EQ(table.pool_free_nodes(), LockTable::kSlabNodes);
  // Steady-state churn reuses recycled nodes: no slab growth.
  for (int round = 0; round < 10; ++round) {
    for (int i = 0; i < 200; ++i) table.GetOrCreate(RowResource(2, i));
    for (int i = 0; i < 200; ++i) {
      ASSERT_TRUE(table.EraseIfEmpty(RowResource(2, i)));
    }
  }
  EXPECT_EQ(table.slab_count(), 1);
  EXPECT_EQ(table.pool_total_nodes(), LockTable::kSlabNodes);
  EXPECT_EQ(table.pool_free_nodes(), LockTable::kSlabNodes);
  EXPECT_EQ(table.CheckConsistency(), Status::Ok());
}

TEST(LockTableTest, PoolGrowsByWholeSlabs) {
  LockTable table;
  const int n = LockTable::kSlabNodes + 1;
  for (int i = 0; i < n; ++i) table.GetOrCreate(RowResource(1, i));
  EXPECT_EQ(table.slab_count(), 2);
  EXPECT_EQ(table.pool_total_nodes(), 2 * LockTable::kSlabNodes);
  EXPECT_EQ(table.pool_free_nodes(), 2 * LockTable::kSlabNodes - n);
  EXPECT_EQ(table.CheckConsistency(), Status::Ok());
}

TEST(LockTableTest, RecycledHeadComesBackEmpty) {
  LockTable table;
  const ResourceId res = RowResource(1, 1);
  LockHead& head = table.GetOrCreate(res);
  head.AddHolder(Granted(1, LockMode::kX));
  head.RemoveHolder(1);
  ASSERT_TRUE(table.EraseIfEmpty(res));
  // The recycled node backs the next insert and must present a clean head.
  LockHead& reused = table.GetOrCreate(RowResource(9, 9));
  EXPECT_TRUE(reused.empty());
  EXPECT_EQ(reused.GrantedGroupMode(), LockMode::kNone);
}

TEST(LockTableTest, ForEachVisitsEveryHead) {
  LockTable table;
  for (int i = 0; i < 10; ++i) {
    table.GetOrCreate(RowResource(1, i)).AddHolder(Granted(1, LockMode::kS));
  }
  int visited = 0;
  table.ForEach([&visited](const ResourceId& res, const LockHead& head) {
    EXPECT_EQ(res.table, 1);
    EXPECT_FALSE(head.empty());
    ++visited;
  });
  EXPECT_EQ(visited, 10);
}

// End-to-end pool behavior through the lock manager: repeated escalation
// bursts (grant many row locks, escalate, release) must reach a steady
// state where the head pool stops growing — the regression this guards is
// per-transaction heap churn of lock heads.
TEST(LockTableTest, SlabCountStabilizesAcrossEscalationBursts) {
  FixedMaxlocksPolicy policy(/*percent=*/1.0);
  LockManagerOptions opts;
  opts.initial_blocks = 1;  // 2048 slots, 1% quota => escalates at ~20 rows
  opts.max_lock_memory = 32 * kMiB;
  opts.policy = &policy;
  LockManager lm(std::move(opts));

  for (int warmup = 0; warmup < 3; ++warmup) {
    for (int r = 0; r < 64; ++r) {
      lm.Lock(1, RowResource(1, r), LockMode::kX);
    }
    lm.ReleaseAll(1);
  }
  ASSERT_GT(lm.stats().escalations, 0) << "quota mis-sized for the test";
  const int64_t slabs_after_warmup = lm.head_pool_slab_count();
  const int64_t table_after_warmup = lm.lock_table_size();

  for (int burst = 0; burst < 50; ++burst) {
    for (int r = 0; r < 64; ++r) {
      lm.Lock(1, RowResource(1, r), LockMode::kX);
    }
    lm.ReleaseAll(1);
  }
  EXPECT_EQ(lm.head_pool_slab_count(), slabs_after_warmup)
      << "escalation bursts must recycle heads, not allocate new slabs";
  EXPECT_EQ(lm.lock_table_size(), table_after_warmup);
  EXPECT_EQ(lm.CheckConsistency(), Status::Ok());
}

// The directory's own recount: the size (which decides when Insert grows
// the slot array) must match the slots, and every entry must stay
// reachable from its home slot, after every insert, backward-shift erase
// and growth. A sliding window of keys keeps erasing ahead of
// inserts, so probe runs are both shifted back and refilled; the check
// runs after each step because growth re-inserts everything and would
// hide drift.
TEST(ResourceHashMapTest, SelfCheckHoldsAfterEveryStep) {
  ResourceHashMap<int> map;
  const auto key = [](int i) { return RowResource(1, i); };
  const auto hash = [&](int i) { return ResourceIdHash{}(key(i)); };
  ASSERT_EQ(map.CheckConsistency(), Status::Ok());
  constexpr int kWindow = 300;
  for (int i = 0; i < kWindow; ++i) {
    map.Insert(key(i), hash(i), i);
    ASSERT_EQ(map.CheckConsistency(), Status::Ok()) << "insert " << i;
  }
  for (int i = 0; i < 1000; ++i) {
    ASSERT_TRUE(map.Erase(key(i), hash(i)));
    ASSERT_EQ(map.CheckConsistency(), Status::Ok()) << "erase " << i;
    map.Insert(key(kWindow + i), hash(kWindow + i), i);
    ASSERT_EQ(map.CheckConsistency(), Status::Ok()) << "insert " << i;
  }
  EXPECT_EQ(map.size(), kWindow);
  EXPECT_FALSE(map.Erase(key(0), hash(0)));
  ASSERT_NE(map.Find(key(1299), hash(1299)), nullptr);
}

// Backward-shift erase inside a probe run that wraps past the end of the
// slot array. Keys are picked by home slot (the low hash bits, as the map
// probes them) so that a run starts in the last slots and continues from
// slot 0: three keys homed at slot 14, two at 15, two at 0, one at 1
// occupy slots 14, 15, 0, ..., 5. Erasing any one of them, from before,
// at, or after the wrap, must leave every other key findable.
TEST(ResourceHashMapTest, EraseInsideAWrappingProbeRun) {
  constexpr size_t kCapacity = 16;  // the map's first slot array
  const auto hash = [](const ResourceId& key) { return ResourceIdHash{}(key); };
  std::vector<ResourceId> keys;
  for (const auto& [home, count] :
       std::vector<std::pair<size_t, int>>{{14, 3}, {15, 2}, {0, 2}, {1, 1}}) {
    int found = 0;
    for (int64_t row = 0; found < count; ++row) {
      const ResourceId key = RowResource(7, row);
      if ((hash(key) & (kCapacity - 1)) != home) continue;
      bool fresh = true;
      for (const ResourceId& k : keys) fresh = fresh && !(k == key);
      if (!fresh) continue;
      keys.push_back(key);
      ++found;
    }
  }
  ASSERT_EQ(keys.size(), 8u);
  for (size_t victim = 0; victim < keys.size(); ++victim) {
    ResourceHashMap<int> map;
    for (size_t i = 0; i < keys.size(); ++i) {
      map.Insert(keys[i], hash(keys[i]), static_cast<int>(i));
    }
    ASSERT_EQ(map.capacity(), static_cast<int64_t>(kCapacity));
    ASSERT_TRUE(map.Erase(keys[victim], hash(keys[victim])));
    EXPECT_EQ(map.CheckConsistency(), Status::Ok()) << "erase " << victim;
    EXPECT_EQ(map.size(), static_cast<int64_t>(keys.size()) - 1);
    EXPECT_EQ(map.Find(keys[victim], hash(keys[victim])), nullptr);
    for (size_t i = 0; i < keys.size(); ++i) {
      if (i == victim) continue;
      const int* value = map.Find(keys[i], hash(keys[i]));
      ASSERT_NE(value, nullptr) << "erase " << victim << " lost key " << i;
      EXPECT_EQ(*value, static_cast<int>(i));
    }
  }
}

// With no tombstones, erase/insert churn at a constant size never fills
// the slot array, so it never grows (or re-hashes) past its high-water
// mark.
TEST(ResourceHashMapTest, ChurnAtConstantSizeKeepsCapacity) {
  ResourceHashMap<int> map;
  const auto key = [](int i) { return RowResource(2, i); };
  const auto hash = [&](int i) { return ResourceIdHash{}(key(i)); };
  constexpr int kLive = 100;
  for (int i = 0; i < kLive; ++i) map.Insert(key(i), hash(i), i);
  const int64_t capacity = map.capacity();
  for (int i = 0; i < 20 * static_cast<int>(capacity); ++i) {
    ASSERT_TRUE(map.Erase(key(i), hash(i)));
    map.Insert(key(kLive + i), hash(kLive + i), i);
    ASSERT_EQ(map.capacity(), capacity) << "step " << i;
  }
  EXPECT_EQ(map.size(), kLive);
  EXPECT_EQ(map.CheckConsistency(), Status::Ok());
}

}  // namespace
}  // namespace locktune
