// OLTP workload: short update transactions over the TPC-C style tables.
//
// Each transaction acquires a few hundred row locks (a mix of S and X) at a
// steady per-tick rate, commits, then thinks briefly. Row selection is
// Zipf-skewed within each table, giving mild hot-spot contention like a real
// order-entry workload.
#ifndef LOCKTUNE_WORKLOAD_OLTP_WORKLOAD_H_
#define LOCKTUNE_WORKLOAD_OLTP_WORKLOAD_H_

#include <vector>

#include "common/random.h"
#include "engine/catalog.h"
#include "workload/workload.h"

namespace locktune {

struct OltpOptions {
  // Mean row locks per transaction; actual draws are uniform in
  // [0.5·mean, 1.5·mean].
  int64_t mean_locks_per_txn = 400;
  // Acquisition rate per 100 ms simulation tick.
  int locks_per_tick = 50;
  // Fraction of row locks taken in X (updates) vs S (reads).
  double write_fraction = 0.2;
  DurationMs think_time = 200;
  // Zipf skew of row selection within a table (0 = uniform).
  double row_zipf_theta = 0.2;
};

class OltpWorkload : public Workload {
 public:
  // Uses the catalog's "tpcc_" tables. `catalog` must outlive the workload.
  OltpWorkload(const Catalog& catalog, const OltpOptions& options);

  TransactionProfile NextTransaction(Rng& rng) override;
  RowAccess NextAccess(Rng& rng) override;

  const OltpOptions& options() const { return options_; }

 private:
  OltpOptions options_;
  std::vector<TableId> tables_;
  std::vector<ZipfGenerator> row_pickers_;
  // Row-count-weighted table selection (an order-entry transaction touches
  // mostly order-line and stock rows, rarely the 100-row warehouse table):
  // a pick uniform below the total row count lands in the first table whose
  // cumulative row count exceeds it.
  std::vector<int64_t> cumulative_rows_;
  UniformBelow table_pick_{1};  // the constructor sets the total row count
};

}  // namespace locktune

#endif  // LOCKTUNE_WORKLOAD_OLTP_WORKLOAD_H_
