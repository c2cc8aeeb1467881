#include "workload/oltp_workload.h"

#include "common/check.h"

namespace locktune {

OltpWorkload::OltpWorkload(const Catalog& catalog, const OltpOptions& options)
    : options_(options) {
  LOCKTUNE_CHECK(options.mean_locks_per_txn > 0);
  LOCKTUNE_CHECK(options.locks_per_tick > 0);
  LOCKTUNE_CHECK(options.write_fraction >= 0.0 && options.write_fraction <= 1.0);
  tables_ = catalog.TablesWithPrefix("tpcc_");
  LOCKTUNE_CHECK(!tables_.empty());
  std::vector<uint64_t> rows;
  int64_t total_rows = 0;
  for (TableId t : tables_) {
    const int64_t n = catalog.Get(t).row_count;
    rows.push_back(static_cast<uint64_t>(n));
    total_rows += n;
    cumulative_rows_.push_back(total_rows);
  }
  row_pickers_ = ZipfGenerator::ForDomains(rows, options.row_zipf_theta);
  table_pick_ = UniformBelow(static_cast<uint64_t>(total_rows));
}

TransactionProfile OltpWorkload::NextTransaction(Rng& rng) {
  TransactionProfile p;
  const int64_t mean = options_.mean_locks_per_txn;
  p.total_locks = rng.NextInRange(mean - mean / 2, mean + mean / 2);
  p.locks_per_tick = options_.locks_per_tick;
  p.hold_time = 0;
  p.think_time = options_.think_time;
  return p;
}

RowAccess OltpWorkload::NextAccess(Rng& rng) {
  // Weighted by table size: most row locks land on the big tables. The
  // cumulative counts are sorted, so the number of them at or below the pick
  // is the index of the first one above it.
  const int64_t pick = static_cast<int64_t>(table_pick_.Next(rng));
  size_t i = 0;
  for (const int64_t bound : cumulative_rows_) i += bound <= pick;
  RowAccess a;
  a.table = tables_[i];
  a.row = static_cast<int64_t>(row_pickers_[i].Next(rng));
  a.mode = rng.NextBool(options_.write_fraction) ? LockMode::kX : LockMode::kS;
  return a;
}

}  // namespace locktune
