// Scan workload: long transactions that lock one table's rows in order.
//
// This is the long-transaction half of the paper's lock demand, and three
// scenario sections use it:
//  * [dss] — Figure 11's reporting query (§5.3): S locks on every
//    tpch_lineitem row at a high rate, kept for the whole report, so lock
//    memory grows ~60× within seconds;
//  * [batch] — §3.4's rollout: X (or U, S) locks over a contiguous key
//    range, held briefly for commit processing, a time-limited need for a
//    very large number of locks;
//  * [hostile] — a misbehaving application (docs/ROBUSTNESS.md): a lock
//    hog builds a huge footprint and holds it, an idle holder parks behind
//    an hour-long hold, an abort storm does all its locking and then rolls
//    back, a request storm acquires at a high rate with almost no think
//    time.
//
// One workload feeds every client in its group, so the scan position is
// shared: two clients on the same table collide and exercise the wait and
// deadlock paths.
#ifndef LOCKTUNE_WORKLOAD_SCAN_WORKLOAD_H_
#define LOCKTUNE_WORKLOAD_SCAN_WORKLOAD_H_

#include <string>

#include "engine/catalog.h"
#include "workload/workload.h"

namespace locktune {

// The shape of one scan transaction. As an argument of ScanDefaults, a
// field is set when the table is non-empty, the mode is not kNone, a count
// is positive, a time is non-negative or abort_at_end is true; the member
// defaults below set nothing.
struct ScanOptions {
  std::string table;                // scanned in row order, wrapping
  LockMode mode = LockMode::kNone;  // kS, kU or kX
  int64_t total_locks = 0;          // row locks per transaction
  int locks_per_tick = 0;           // acquisition rate per tick
  DurationMs hold_time = -1;        // locks kept after the last acquisition
  DurationMs think_time = -1;       // pause before the next transaction
  bool abort_at_end = false;        // roll back instead of committing
};

// The rows of the defaults table: [dss], [batch], and the four [hostile]
// archetypes.
enum class ScanPreset {
  kDss,
  kBatch,
  kLockHog,
  kIdleHolder,
  kAbortStorm,
  kRequestStorm,
};

// `preset`'s row of the defaults table, with every field `overrides` sets
// written over it.
ScanOptions ScanDefaults(ScanPreset preset, const ScanOptions& overrides = {});

class ScanWorkload : public Workload {
 public:
  // `options` sets every field (see ScanDefaults). `catalog` must hold
  // options.table and outlive the workload.
  ScanWorkload(const Catalog& catalog, const ScanOptions& options);

  TransactionProfile NextTransaction(Rng& rng) override;
  RowAccess NextAccess(Rng& rng) override;

 private:
  ScanOptions options_;
  TableId table_;
  int64_t row_count_;
  int64_t cursor_ = 0;  // scan position shared by the group's clients
};

}  // namespace locktune

#endif  // LOCKTUNE_WORKLOAD_SCAN_WORKLOAD_H_
