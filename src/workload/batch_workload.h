// Batch update workload: long transactions updating a contiguous key range
// of one table — §3.4's motivating case for reclaimable lock memory
// ("occasional batch processing of updates, inserts and deletes (rollout)
// ... can lead to a time limited need for a very large number of locks").
#ifndef LOCKTUNE_WORKLOAD_BATCH_WORKLOAD_H_
#define LOCKTUNE_WORKLOAD_BATCH_WORKLOAD_H_

#include "engine/catalog.h"
#include "workload/workload.h"

namespace locktune {

struct BatchOptions {
  // Rows each batch transaction updates.
  int64_t rows_per_batch = 500'000;
  // Acquisition rate per simulation tick.
  int locks_per_tick = 3000;
  // How long the batch holds its locks after the last update (commit
  // processing, constraint checking...).
  DurationMs hold_time = kMinute;
  // Pause between batches.
  DurationMs think_time = 2 * kMinute;
  // Lock mode for the updates (X by default; U for check-then-update).
  LockMode mode = LockMode::kX;
};

class BatchWorkload : public Workload {
 public:
  // Updates `table` sequentially, wrapping at its row count. `catalog`
  // must outlive the workload.
  BatchWorkload(const Catalog& catalog, const std::string& table,
                const BatchOptions& options);

  TransactionProfile NextTransaction(Rng& rng) override;
  RowAccess NextAccess(Rng& rng) override;

  const BatchOptions& options() const { return options_; }

 private:
  BatchOptions options_;
  TableId table_;
  int64_t row_count_;
  int64_t cursor_ = 0;  // shared scan position; see dss_workload.h
};

}  // namespace locktune

#endif  // LOCKTUNE_WORKLOAD_BATCH_WORKLOAD_H_
