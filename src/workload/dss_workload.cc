#include "workload/dss_workload.h"

#include "common/check.h"

namespace locktune {

DssWorkload::DssWorkload(const Catalog& catalog, const DssOptions& options)
    : options_(options) {
  LOCKTUNE_CHECK(options.scan_locks > 0);
  LOCKTUNE_CHECK(options.locks_per_tick > 0);
  const TableInfo* lineitem = catalog.FindByName("tpch_lineitem");
  LOCKTUNE_CHECK(lineitem != nullptr && "catalog lacks tpch_lineitem");
  table_ = lineitem->id;
  row_count_ = lineitem->row_count;
}

TransactionProfile DssWorkload::NextTransaction(Rng&) {
  TransactionProfile p;
  p.total_locks = options_.scan_locks;
  p.locks_per_tick = options_.locks_per_tick;
  p.hold_time = options_.hold_time;
  p.think_time = options_.think_time;
  return p;
}

RowAccess DssWorkload::NextAccess(Rng&) {
  RowAccess a;
  a.table = table_;
  a.row = cursor_++ % row_count_;
  a.mode = LockMode::kS;
  return a;
}

}  // namespace locktune
