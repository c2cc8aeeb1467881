#include "workload/scan_workload.h"

#include "common/check.h"

namespace locktune {

namespace {

// The defaults table. Tuned against the default 100 ms tick: a report
// keeps its locks for ten minutes, a lock hog needs tens of seconds to
// build its footprint, and an idle holder parks for a virtual hour.
ScanOptions Row(ScanPreset preset) {
  switch (preset) {
    // table, mode, total_locks, locks_per_tick, hold_time, think_time,
    // abort_at_end
    case ScanPreset::kDss:
      return {"tpch_lineitem", LockMode::kS, 800'000, 3000, 10 * kMinute,
              5 * kMinute, false};
    case ScanPreset::kBatch:
      return {"tpch_orders", LockMode::kX, 500'000, 3000, kMinute,
              2 * kMinute, false};
    case ScanPreset::kLockHog:
      return {"tpcc_stock", LockMode::kX, 40'000, 1'500, kMinute, kSecond,
              false};
    case ScanPreset::kIdleHolder:
      return {"tpcc_stock", LockMode::kX, 2'000, 500, 60 * kMinute, kSecond,
              false};
    case ScanPreset::kAbortStorm:
      return {"tpcc_stock", LockMode::kX, 1'500, 750, 0, 100, true};
    case ScanPreset::kRequestStorm:
      return {"tpcc_stock", LockMode::kX, 4'000, 2'000, 0, 100, false};
  }
  LOCKTUNE_CHECK(false && "unknown scan preset");
  return {};
}

}  // namespace

ScanOptions ScanDefaults(ScanPreset preset, const ScanOptions& overrides) {
  ScanOptions o = Row(preset);
  if (!overrides.table.empty()) o.table = overrides.table;
  if (overrides.mode != LockMode::kNone) o.mode = overrides.mode;
  if (overrides.total_locks > 0) o.total_locks = overrides.total_locks;
  if (overrides.locks_per_tick > 0) o.locks_per_tick = overrides.locks_per_tick;
  if (overrides.hold_time >= 0) o.hold_time = overrides.hold_time;
  if (overrides.think_time >= 0) o.think_time = overrides.think_time;
  o.abort_at_end = o.abort_at_end || overrides.abort_at_end;
  return o;
}

ScanWorkload::ScanWorkload(const Catalog& catalog, const ScanOptions& options)
    : options_(options) {
  LOCKTUNE_CHECK(options.total_locks > 0);
  LOCKTUNE_CHECK(options.locks_per_tick > 0);
  LOCKTUNE_CHECK(options.hold_time >= 0 && options.think_time >= 0);
  LOCKTUNE_CHECK(options.mode == LockMode::kS ||
                 options.mode == LockMode::kU ||
                 options.mode == LockMode::kX);
  const TableInfo* info = catalog.FindByName(options.table);
  LOCKTUNE_CHECK(info != nullptr && "unknown scan table");
  table_ = info->id;
  row_count_ = info->row_count;
}

TransactionProfile ScanWorkload::NextTransaction(Rng&) {
  TransactionProfile p;
  p.total_locks = options_.total_locks;
  p.locks_per_tick = options_.locks_per_tick;
  p.hold_time = options_.hold_time;
  p.think_time = options_.think_time;
  p.abort_at_end = options_.abort_at_end;
  return p;
}

RowAccess ScanWorkload::NextAccess(Rng&) {
  RowAccess a;
  a.table = table_;
  a.row = cursor_++ % row_count_;
  a.mode = options_.mode;
  return a;
}

}  // namespace locktune
