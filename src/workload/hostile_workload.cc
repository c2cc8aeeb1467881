#include "workload/hostile_workload.h"

#include "common/check.h"

namespace locktune {

namespace {

// Archetype defaults, applied where HostileOptions left zero / negative
// values. Tuned against the default 100 ms tick: a lock hog needs tens of
// seconds to build its footprint; an idle holder parks for a virtual hour.
void ApplyDefaults(HostileOptions* o) {
  switch (o->archetype) {
    case HostileArchetype::kLockHog:
      if (o->locks_per_txn <= 0) o->locks_per_txn = 40'000;
      if (o->locks_per_tick <= 0) o->locks_per_tick = 1'500;
      if (o->hold_time < 0) o->hold_time = kMinute;
      if (o->think_time < 0) o->think_time = kSecond;
      break;
    case HostileArchetype::kIdleHolder:
      if (o->locks_per_txn <= 0) o->locks_per_txn = 2'000;
      if (o->locks_per_tick <= 0) o->locks_per_tick = 500;
      if (o->hold_time < 0) o->hold_time = 60 * kMinute;
      if (o->think_time < 0) o->think_time = kSecond;
      break;
    case HostileArchetype::kAbortStorm:
      if (o->locks_per_txn <= 0) o->locks_per_txn = 1'500;
      if (o->locks_per_tick <= 0) o->locks_per_tick = 750;
      if (o->hold_time < 0) o->hold_time = 0;
      if (o->think_time < 0) o->think_time = 100;
      break;
    case HostileArchetype::kRequestStorm:
      if (o->locks_per_txn <= 0) o->locks_per_txn = 4'000;
      if (o->locks_per_tick <= 0) o->locks_per_tick = 2'000;
      if (o->hold_time < 0) o->hold_time = 0;
      if (o->think_time < 0) o->think_time = 100;
      break;
  }
}

}  // namespace

const char* HostileArchetypeName(HostileArchetype archetype) {
  switch (archetype) {
    case HostileArchetype::kLockHog:
      return "lock_hog";
    case HostileArchetype::kIdleHolder:
      return "idle_holder";
    case HostileArchetype::kAbortStorm:
      return "abort_storm";
    case HostileArchetype::kRequestStorm:
      return "request_storm";
  }
  return "unknown";
}

HostileWorkload::HostileWorkload(const Catalog& catalog,
                                 const std::string& table,
                                 const HostileOptions& options)
    : options_(options) {
  ApplyDefaults(&options_);
  LOCKTUNE_CHECK(options_.locks_per_txn > 0);
  LOCKTUNE_CHECK(options_.locks_per_tick > 0);
  LOCKTUNE_CHECK(options_.mode == LockMode::kX ||
                 options_.mode == LockMode::kU ||
                 options_.mode == LockMode::kS);
  const TableInfo* info = catalog.FindByName(table);
  LOCKTUNE_CHECK(info != nullptr && "unknown hostile table");
  table_ = info->id;
  row_count_ = info->row_count;
}

TransactionProfile HostileWorkload::NextTransaction(Rng&) {
  TransactionProfile p;
  p.total_locks = options_.locks_per_txn;
  p.locks_per_tick = options_.locks_per_tick;
  p.hold_time = options_.hold_time;
  p.think_time = options_.think_time;
  p.abort_at_end = options_.archetype == HostileArchetype::kAbortStorm;
  return p;
}

RowAccess HostileWorkload::NextAccess(Rng&) {
  RowAccess a;
  a.table = table_;
  a.row = cursor_++ % row_count_;
  a.mode = options_.mode;
  return a;
}

}  // namespace locktune
