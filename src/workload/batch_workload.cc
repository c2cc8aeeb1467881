#include "workload/batch_workload.h"

#include "common/check.h"

namespace locktune {

BatchWorkload::BatchWorkload(const Catalog& catalog, const std::string& table,
                             const BatchOptions& options)
    : options_(options) {
  LOCKTUNE_CHECK(options.rows_per_batch > 0);
  LOCKTUNE_CHECK(options.locks_per_tick > 0);
  LOCKTUNE_CHECK(options.mode == LockMode::kX || options.mode == LockMode::kU ||
         options.mode == LockMode::kS);
  const TableInfo* info = catalog.FindByName(table);
  LOCKTUNE_CHECK(info != nullptr && "unknown batch table");
  table_ = info->id;
  row_count_ = info->row_count;
}

TransactionProfile BatchWorkload::NextTransaction(Rng&) {
  TransactionProfile p;
  p.total_locks = options_.rows_per_batch;
  p.locks_per_tick = options_.locks_per_tick;
  p.hold_time = options_.hold_time;
  p.think_time = options_.think_time;
  return p;
}

RowAccess BatchWorkload::NextAccess(Rng&) {
  RowAccess a;
  a.table = table_;
  a.row = cursor_++ % row_count_;
  a.mode = options_.mode;
  return a;
}

}  // namespace locktune
