#include <cstdint>
#include <set>
#include <string>

#include <gtest/gtest.h>

#include "common/random.h"
#include "engine/catalog.h"
#include "workload/oltp_workload.h"
#include "workload/scan_workload.h"
#include "workload/scenario_config.h"

namespace locktune {
namespace {

class WorkloadsTest : public ::testing::Test {
 protected:
  WorkloadsTest() : catalog_(Catalog::TpccTpch()) {}
  Catalog catalog_;
};

TEST_F(WorkloadsTest, OltpProfileWithinBounds) {
  OltpOptions opts;
  opts.mean_locks_per_txn = 400;
  OltpWorkload w(catalog_, opts);
  Rng rng(1);
  for (int i = 0; i < 1000; ++i) {
    const TransactionProfile p = w.NextTransaction(rng);
    EXPECT_GE(p.total_locks, 200);
    EXPECT_LE(p.total_locks, 600);
    EXPECT_EQ(p.locks_per_tick, opts.locks_per_tick);
    EXPECT_EQ(p.hold_time, 0);
    EXPECT_EQ(p.think_time, opts.think_time);
  }
}

TEST_F(WorkloadsTest, OltpAccessesOnlyTpccTables) {
  OltpWorkload w(catalog_, OltpOptions{});
  Rng rng(2);
  for (int i = 0; i < 5000; ++i) {
    const RowAccess a = w.NextAccess(rng);
    const TableInfo& t = catalog_.Get(a.table);
    EXPECT_EQ(t.name.rfind("tpcc_", 0), 0u) << t.name;
    EXPECT_GE(a.row, 0);
    EXPECT_LT(a.row, t.row_count);
    EXPECT_TRUE(a.mode == LockMode::kS || a.mode == LockMode::kX);
  }
}

TEST_F(WorkloadsTest, OltpWriteFractionRespected) {
  OltpOptions opts;
  opts.write_fraction = 0.25;
  OltpWorkload w(catalog_, opts);
  Rng rng(3);
  int writes = 0;
  const int n = 20'000;
  for (int i = 0; i < n; ++i) {
    if (w.NextAccess(rng).mode == LockMode::kX) ++writes;
  }
  EXPECT_NEAR(static_cast<double>(writes) / n, 0.25, 0.02);
}

TEST_F(WorkloadsTest, OltpTableChoiceWeightedBySize) {
  OltpWorkload w(catalog_, OltpOptions{});
  Rng rng(4);
  int64_t order_line_hits = 0, warehouse_hits = 0;
  const TableId order_line = catalog_.FindByName("tpcc_order_line")->id;
  const TableId warehouse = catalog_.FindByName("tpcc_warehouse")->id;
  for (int i = 0; i < 50'000; ++i) {
    const RowAccess a = w.NextAccess(rng);
    if (a.table == order_line) ++order_line_hits;
    if (a.table == warehouse) ++warehouse_hits;
  }
  // order_line has 30000× the rows of warehouse; it must dominate.
  EXPECT_GT(order_line_hits, 20'000);
  EXPECT_LT(warehouse_hits, 100);
}

TEST_F(WorkloadsTest, OltpDeterministicPerSeed) {
  OltpWorkload w1(catalog_, OltpOptions{});
  OltpWorkload w2(catalog_, OltpOptions{});
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) {
    const RowAccess x = w1.NextAccess(a);
    const RowAccess y = w2.NextAccess(b);
    EXPECT_EQ(x.table, y.table);
    EXPECT_EQ(x.row, y.row);
    EXPECT_EQ(x.mode, y.mode);
  }
}

// FNV-1a over the eight bytes of `v`, chained through `h`.
uint64_t Fnv1a(uint64_t h, uint64_t v) {
  for (int b = 0; b < 8; ++b) {
    h ^= (v >> (8 * b)) & 0xff;
    h *= 0x100000001b3ULL;
  }
  return h;
}

constexpr uint64_t kFnvBasis = 0xcbf29ce484222325ULL;

// Digest of the first 100k accesses of an OLTP workload over the tpcc tables
// at catalog `scale`, drawn from seed 42.
uint64_t AccessDigest(double scale, double theta) {
  const Catalog catalog = Catalog::TpccTpch(scale);
  OltpOptions opts;
  opts.row_zipf_theta = theta;
  OltpWorkload w(catalog, opts);
  Rng rng(42);
  uint64_t h = kFnvBasis;
  for (int i = 0; i < 100'000; ++i) {
    const RowAccess a = w.NextAccess(rng);
    h = Fnv1a(h, static_cast<uint64_t>(a.table));
    h = Fnv1a(h, static_cast<uint64_t>(a.row));
    h = Fnv1a(h, a.mode == LockMode::kX ? 1 : 0);
  }
  return h;
}

TEST(OltpWorkloadTest, DrawDigestMatchesParent) {
  // The digests were recorded by this test body at commit b7cb527, where
  // every ZipfGenerator summed its own ζ and each draw recomputed its
  // constants. Every draw feeds the goldens, so sharing the ζ pass and
  // hoisting the constants must not move one bit. Scale 1 sums every table
  // exactly; at scale 100 five tables pass 2^24 rows and take the tail.
  EXPECT_EQ(AccessDigest(1.0, 0.0), 0xc79e4c5314061840ULL);
  EXPECT_EQ(AccessDigest(1.0, 0.2), 0x21865de09cd04942ULL);
  EXPECT_EQ(AccessDigest(100.0, 0.0), 0x80eb2b2f8ace28acULL);
  EXPECT_EQ(AccessDigest(100.0, 0.2), 0x5498901b07619352ULL);

  const ZipfGenerator zipf(3'000'000'000ull, 0.2);
  Rng rng(42);
  uint64_t h = kFnvBasis;
  for (int i = 0; i < 100'000; ++i) h = Fnv1a(h, zipf.Next(rng));
  EXPECT_EQ(h, 0x14fe55e85d3f6a1dULL);
}

TEST_F(WorkloadsTest, DssProfileIsOneBigHeldScan) {
  ScanOptions opts = ScanDefaults(ScanPreset::kDss);
  opts.total_locks = 123'456;
  ScanWorkload w(catalog_, opts);
  Rng rng(5);
  const TransactionProfile p = w.NextTransaction(rng);
  EXPECT_EQ(p.total_locks, 123'456);
  EXPECT_EQ(p.locks_per_tick, opts.locks_per_tick);
  EXPECT_EQ(p.hold_time, opts.hold_time);
}

TEST_F(WorkloadsTest, DssScansLineitemSequentially) {
  ScanWorkload w(catalog_, ScanDefaults(ScanPreset::kDss));
  Rng rng(6);
  const TableId lineitem = catalog_.FindByName("tpch_lineitem")->id;
  for (int64_t i = 0; i < 1000; ++i) {
    const RowAccess a = w.NextAccess(rng);
    EXPECT_EQ(a.table, lineitem);
    EXPECT_EQ(a.row, i);
    EXPECT_EQ(a.mode, LockMode::kS);
  }
}

TEST_F(WorkloadsTest, DssScanWrapsAroundTable) {
  Catalog tiny = Catalog::TpccTpch(1e-6);  // lineitem gets few rows
  const int64_t rows = tiny.FindByName("tpch_lineitem")->row_count;
  ScanWorkload w(tiny, ScanDefaults(ScanPreset::kDss));
  Rng rng(7);
  for (int64_t i = 0; i < rows; ++i) (void)w.NextAccess(rng);
  EXPECT_EQ(w.NextAccess(rng).row, 0);  // wrapped
}

TEST_F(WorkloadsTest, BatchProfileMatchesOptions) {
  ScanOptions opts = ScanDefaults(ScanPreset::kBatch);
  opts.total_locks = 250'000;
  opts.locks_per_tick = 1000;
  opts.hold_time = 45 * kSecond;
  opts.think_time = 3 * kMinute;
  ScanWorkload w(catalog_, opts);
  Rng rng(8);
  const TransactionProfile p = w.NextTransaction(rng);
  EXPECT_EQ(p.total_locks, 250'000);
  EXPECT_EQ(p.locks_per_tick, 1000);
  EXPECT_EQ(p.hold_time, 45 * kSecond);
  EXPECT_EQ(p.think_time, 3 * kMinute);
}

TEST_F(WorkloadsTest, BatchUpdatesSequentiallyInX) {
  ScanWorkload w(catalog_, ScanDefaults(ScanPreset::kBatch));
  Rng rng(9);
  const TableId orders = catalog_.FindByName("tpch_orders")->id;
  for (int64_t i = 0; i < 100; ++i) {
    const RowAccess a = w.NextAccess(rng);
    EXPECT_EQ(a.table, orders);
    EXPECT_EQ(a.row, i);
    EXPECT_EQ(a.mode, LockMode::kX);
  }
}

TEST_F(WorkloadsTest, BatchModeOverride) {
  ScanWorkload w(catalog_, ScanDefaults(ScanPreset::kBatch,
                                        {.table = "tpcc_customer",
                                         .mode = LockMode::kU}));
  Rng rng(10);
  EXPECT_EQ(w.NextAccess(rng).mode, LockMode::kU);
}

TEST_F(WorkloadsTest, BatchWrapsAtTableEnd) {
  Catalog tiny = Catalog::TpccTpch(1e-6);
  const int64_t rows = tiny.FindByName("tpch_orders")->row_count;
  ScanWorkload w(tiny, ScanDefaults(ScanPreset::kBatch));
  Rng rng(11);
  for (int64_t i = 0; i < rows; ++i) (void)w.NextAccess(rng);
  EXPECT_EQ(w.NextAccess(rng).row, 0);
}

// Digest of the profile and the first 10k accesses of the scan workload
// that the one-section scenario `text` runs, built as LoadedScenario
// builds it.
uint64_t ScanDigest(const std::string& text) {
  const Result<ScenarioSpec> spec = ParseScenario(text);
  EXPECT_TRUE(spec.ok()) << spec.status().ToString();
  if (!spec.ok()) return 0;
  const WorkloadSpec& w = spec.value().workloads[0];
  const Catalog catalog = Catalog::TpccTpch();
  ScanWorkload workload(catalog, ScanDefaults(w.preset, w.scan));
  Rng rng(42);
  const TransactionProfile p = workload.NextTransaction(rng);
  uint64_t h = kFnvBasis;
  h = Fnv1a(h, static_cast<uint64_t>(p.total_locks));
  h = Fnv1a(h, static_cast<uint64_t>(p.locks_per_tick));
  h = Fnv1a(h, static_cast<uint64_t>(p.hold_time));
  h = Fnv1a(h, static_cast<uint64_t>(p.think_time));
  h = Fnv1a(h, p.abort_at_end ? 1 : 0);
  for (int i = 0; i < 10'000; ++i) {
    const RowAccess a = workload.NextAccess(rng);
    h = Fnv1a(h, static_cast<uint64_t>(a.table));
    h = Fnv1a(h, static_cast<uint64_t>(a.row));
    h = Fnv1a(h, static_cast<uint64_t>(a.mode));
  }
  return h;
}

TEST(ScanWorkloadTest, PresetDigestsMatchParent) {
  // Recorded by this digest at commit f0e06c1, where DssWorkload,
  // BatchWorkload and HostileWorkload each held their own defaults. The
  // last case writes `archetype` after two of the keys it defaults.
  EXPECT_EQ(ScanDigest("[dss]\nclients 0 1\n"), 0xd2532c6ffd9c6666ULL);
  EXPECT_EQ(ScanDigest("[batch]\nclients 0 1\n"), 0x6f9ff0eb1bc028cfULL);
  EXPECT_EQ(ScanDigest("[batch]\nclients 0 1\nmode U\n"),
            0xb5ca2a0107615f4fULL);
  EXPECT_EQ(ScanDigest("[batch]\nclients 0 1\nmode S\n"),
            0xa66752774c62b88fULL);
  EXPECT_EQ(ScanDigest("[hostile]\nclients 0 1\n"), 0x13488b755043df31ULL);
  EXPECT_EQ(ScanDigest("[hostile]\nclients 0 1\narchetype lock_hog\n"),
            0x13488b755043df31ULL);
  EXPECT_EQ(ScanDigest("[hostile]\nclients 0 1\narchetype idle_holder\n"),
            0xf342e305fb3f80c2ULL);
  EXPECT_EQ(ScanDigest("[hostile]\nclients 0 1\narchetype abort_storm\n"),
            0xb06aa853d945a7bfULL);
  EXPECT_EQ(
      ScanDigest("[hostile]\nclients 0 1\narchetype request_storm\n"),
      0x888ddeee59a51d19ULL);
  EXPECT_EQ(ScanDigest("[hostile]\nclients 0 1\nlocks_per_txn 900\n"
                       "hold_time_s 7\narchetype idle_holder\n"),
            0xbf5f25e5b003e8a7ULL);
}

}  // namespace
}  // namespace locktune
