// LockTable unit tests: pooled node recycling, pointer stability, the
// precomputed-hash fast paths the lock manager relies on, the packed key
// word, and the directory of tagged 8-byte slots (backward-shift erase,
// tag collisions, self-check).
#include "lock/lock_table.h"

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "lock/escalation_policy.h"
#include "lock/lock_manager.h"
#include "lock/resource.h"

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
  // The same pass counts the empty live heads for the lock manager.
  int64_t empty_heads = -1;
  table.GetOrCreate(RowResource(1, 0)).AddHolder(Granted(1, LockMode::kS));
  EXPECT_EQ(table.CheckConsistency(&empty_heads), Status::Ok());
  EXPECT_EQ(empty_heads, n - 1);
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

// The packed key word round-trips every resource in range, including
// the extremes of each field, and keeps row and table resources apart.
TEST(LockTableTest, PackedKeyRoundTripsTheRanges) {
  const TableId max_table = static_cast<TableId>(kMaxPackedTables - 1);
  const int64_t max_row = kMaxPackedRows - 1;
  for (const ResourceId& r :
       {TableResource(0), RowResource(0, 0), TableResource(max_table),
        RowResource(max_table, max_row), RowResource(99'999, 999'999),
        RowResource(3, 6'000'000'000)}) {
    ASSERT_TRUE(FitsPackedKey(r)) << r.ToString();
    EXPECT_EQ(UnpackResource(PackResource(r)), r) << r.ToString();
    EXPECT_EQ(PackedTable(PackResource(r)), r.table);
    EXPECT_EQ(PackedKind(PackResource(r)), r.kind);
  }
  EXPECT_NE(PackResource(TableResource(5)), PackResource(RowResource(5, 0)));
  EXPECT_FALSE(FitsPackedKey(TableResource(max_table + 1)));
  EXPECT_FALSE(FitsPackedKey(TableResource(-1)));
  EXPECT_FALSE(FitsPackedKey(RowResource(1, max_row + 1)));
  EXPECT_FALSE(FitsPackedKey(RowResource(1, -1)));
}

// The directory's own recount: the size (which decides when Create grows
// the directory) must match the full slots, every tag must be its node's
// key hash, and every entry must stay reachable from its home slot, after
// every insert, backward-shift erase and growth. A sliding window of keys
// keeps erasing ahead of inserts, so probe runs are both shifted back and
// refilled; the check runs after each step because growth re-places
// everything and would hide drift.
TEST(LockTableDirectoryTest, SelfCheckHoldsAfterEveryStep) {
  LockTable table;
  const auto key = [](int i) { return RowResource(1, i); };
  ASSERT_EQ(table.CheckConsistency(), Status::Ok());
  constexpr int kWindow = 300;
  for (int i = 0; i < kWindow; ++i) {
    table.GetOrCreate(key(i));
    ASSERT_EQ(table.CheckConsistency(), Status::Ok()) << "insert " << i;
  }
  for (int i = 0; i < 1000; ++i) {
    ASSERT_TRUE(table.EraseIfEmpty(key(i)));
    ASSERT_EQ(table.CheckConsistency(), Status::Ok()) << "erase " << i;
    table.GetOrCreate(key(kWindow + i));
    ASSERT_EQ(table.CheckConsistency(), Status::Ok()) << "insert " << i;
  }
  EXPECT_EQ(table.size(), kWindow);
  EXPECT_FALSE(table.EraseIfEmpty(key(0)));
  EXPECT_EQ(table.Find(key(0)), nullptr);
  ASSERT_NE(table.Find(key(1299)), nullptr);
}

// Backward-shift erase inside a probe run that wraps past the end of the
// directory. Keys are picked by home slot (the tag's low bits, as the
// table probes them) so that a run starts in the last slots and continues
// from slot 0: three keys homed at slot 14, two at 15, two at 0, one at 1
// occupy slots 14, 15, 0, ..., 5. Erasing any one of them, from before,
// at, or after the wrap, must leave every other key findable at its old
// head.
TEST(LockTableDirectoryTest, EraseInsideAWrappingProbeRun) {
  constexpr size_t kCapacity = 16;  // the table's first directory
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
    LockTable table;
    std::vector<const LockHead*> heads;
    for (const ResourceId& key : keys) {
      heads.push_back(&table.Create(key, hash(key)));
    }
    ASSERT_EQ(table.directory_slots(), static_cast<int64_t>(kCapacity));
    ASSERT_TRUE(table.EraseIfEmpty(keys[victim], hash(keys[victim])));
    EXPECT_EQ(table.CheckConsistency(), Status::Ok()) << "erase " << victim;
    EXPECT_EQ(table.size(), static_cast<int64_t>(keys.size()) - 1);
    EXPECT_EQ(table.Find(keys[victim]), nullptr);
    for (size_t i = 0; i < keys.size(); ++i) {
      if (i == victim) continue;
      EXPECT_EQ(table.Find(keys[i]), heads[i])
          << "erase " << victim << " lost key " << i;
    }
  }
}

// With no tombstones, erase/insert churn at a constant size never fills
// the directory, so it never grows past its high-water mark.
TEST(LockTableDirectoryTest, ChurnAtConstantSizeKeepsCapacity) {
  LockTable table;
  const auto key = [](int i) { return RowResource(2, i); };
  constexpr int kLive = 100;
  for (int i = 0; i < kLive; ++i) table.GetOrCreate(key(i));
  const int64_t capacity = table.directory_slots();
  for (int i = 0; i < 20 * static_cast<int>(capacity); ++i) {
    ASSERT_TRUE(table.EraseIfEmpty(key(i)));
    table.GetOrCreate(key(kLive + i));
    ASSERT_EQ(table.directory_slots(), capacity) << "step " << i;
  }
  EXPECT_EQ(table.size(), kLive);
  EXPECT_EQ(table.CheckConsistency(), Status::Ok());
}

// Two resources whose hashes share their low 32 bits have equal tags and,
// at any directory size up to 2^32, the same home slot: the directory
// cannot tell them apart, so the node's key word must. Both must be found
// at their own heads, and each must erase cleanly in either order.
TEST(LockTableDirectoryTest, TagCollisionsAreResolvedByTheNodeKey) {
  std::unordered_map<uint32_t, int64_t> row_of_tag;
  ResourceId first;
  ResourceId second;
  for (int64_t row = 0;; ++row) {
    ASSERT_LT(row, 4'000'000) << "no 32-bit tag collision found";
    const ResourceId res = RowResource(4, row);
    const auto tag = static_cast<uint32_t>(ResourceIdHash{}(res));
    const auto [it, fresh] = row_of_tag.emplace(tag, row);
    if (!fresh) {
      first = RowResource(4, it->second);
      second = res;
      break;
    }
  }
  const uint64_t first_hash = ResourceIdHash{}(first);
  const uint64_t second_hash = ResourceIdHash{}(second);
  ASSERT_NE(first_hash, second_hash);
  ASSERT_EQ(static_cast<uint32_t>(first_hash),
            static_cast<uint32_t>(second_hash));

  for (const bool first_goes_first : {true, false}) {
    LockTable table;
    // Neighbours in the same run, so the colliding pair is probed past
    // other entries and shifted back over them.
    for (int i = 0; i < 8; ++i) table.GetOrCreate(RowResource(5, i));
    LockHead* a = &table.GetOrCreate(first);
    LockHead* b = &table.GetOrCreate(second);
    ASSERT_NE(a, b);
    EXPECT_EQ(table.Find(first), a);
    EXPECT_EQ(table.Find(second), b);
    ASSERT_EQ(table.CheckConsistency(), Status::Ok());

    const ResourceId& gone = first_goes_first ? first : second;
    const ResourceId& kept = first_goes_first ? second : first;
    LockHead* kept_head = first_goes_first ? b : a;
    ASSERT_TRUE(table.EraseIfEmpty(gone));
    EXPECT_EQ(table.Find(gone), nullptr);
    EXPECT_EQ(table.Find(kept), kept_head);
    ASSERT_EQ(table.CheckConsistency(), Status::Ok());
    EXPECT_FALSE(table.EraseIfEmpty(gone));
    ASSERT_TRUE(table.EraseIfEmpty(kept));
    EXPECT_EQ(table.Find(kept), nullptr);
    EXPECT_EQ(table.size(), 8);
    EXPECT_EQ(table.CheckConsistency(), Status::Ok());
  }
}

}  // namespace
}  // namespace locktune
