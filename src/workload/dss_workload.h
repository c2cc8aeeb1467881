// DSS workload: one reporting query with massive row locking (§5.3).
//
// The query scans a decision-support table sequentially, taking an S lock on
// every row at a high rate, then keeps its locking state for the duration of
// the report. This is the "single reporting query" of Figure 11 whose lock
// demand grows the lock memory ~60× within seconds.
#ifndef LOCKTUNE_WORKLOAD_DSS_WORKLOAD_H_
#define LOCKTUNE_WORKLOAD_DSS_WORKLOAD_H_

#include "engine/catalog.h"
#include "workload/workload.h"

namespace locktune {

struct DssOptions {
  // Row locks the reporting query acquires (its scan size).
  int64_t scan_locks = 800'000;
  // Acquisition rate per 100 ms tick (30 000/s at the default tick).
  int locks_per_tick = 3000;
  // How long the query keeps its locks after the scan completes.
  DurationMs hold_time = 10 * kMinute;
  // Pause between consecutive reports.
  DurationMs think_time = 5 * kMinute;
};

class DssWorkload : public Workload {
 public:
  // Scans the catalog's "tpch_lineitem" table. `catalog` must outlive the
  // workload.
  DssWorkload(const Catalog& catalog, const DssOptions& options);

  TransactionProfile NextTransaction(Rng& rng) override;
  RowAccess NextAccess(Rng& rng) override;

  const DssOptions& options() const { return options_; }

 private:
  DssOptions options_;
  TableId table_;
  int64_t row_count_;
  // One DSS workload feeds every client in its group, so the scan
  // position is shared by all of them.
  int64_t cursor_ = 0;  // sequential scan position
};

}  // namespace locktune

#endif  // LOCKTUNE_WORKLOAD_DSS_WORKLOAD_H_
