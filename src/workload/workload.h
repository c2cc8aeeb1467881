// Workload abstraction: what lock demand a client application generates.
//
// A Workload produces transaction profiles (how many row locks, how fast,
// how long the result is held) and row accesses (which table/row/mode).
// AppStore's per-application state machine (app_store.h) turns these into
// lock manager traffic.
#ifndef LOCKTUNE_WORKLOAD_WORKLOAD_H_
#define LOCKTUNE_WORKLOAD_WORKLOAD_H_

#include <cstdint>

#include "common/random.h"
#include "common/sim_clock.h"
#include "lock/lock_mode.h"
#include "lock/resource.h"

namespace locktune {

struct RowAccess {
  TableId table = 0;
  int64_t row = 0;
  LockMode mode = LockMode::kS;
};

struct TransactionProfile {
  // Row locks the transaction acquires in total.
  int64_t total_locks = 0;
  // Acquisition rate: row locks requested per simulation tick.
  int locks_per_tick = 0;
  // Time locks are held after the last acquisition, before commit
  // (0 for OLTP; long for a reporting query that keeps scanning state).
  DurationMs hold_time = 0;
  // Client think time after commit, before the next transaction.
  DurationMs think_time = 0;
  // Misbehaving application (abort-storm archetype): the transaction does
  // all its work, then rolls back instead of committing.
  bool abort_at_end = false;
};

class Workload {
 public:
  virtual ~Workload() = default;

  // Profile for the next transaction of one client.
  virtual TransactionProfile NextTransaction(Rng& rng) = 0;

  // The next row this transaction touches.
  virtual RowAccess NextAccess(Rng& rng) = 0;
};

}  // namespace locktune

#endif  // LOCKTUNE_WORKLOAD_WORKLOAD_H_
