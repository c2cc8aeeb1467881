// Misbehaving-application workloads for chaos scenarios.
//
// Each archetype models one way real applications abuse a lock manager:
//  * lock hog      — huge X transactions held for a long time, starving the
//    lock memory everyone shares;
//  * idle holder   — moderate lock counts parked behind an effectively
//    infinite hold time (the "connection left open over lunch" pattern);
//  * abort storm   — transactions that do all the locking work and then
//    roll back, paying acquisition cost for zero commits;
//  * request storm — maximal acquisition rate with no think time, a
//    tight-loop client hammering the lock request path.
//
// Like BatchWorkload, a hostile client scans one table sequentially, so two
// hostile clients on the same table collide and exercise the wait/deadlock
// machinery too.
#ifndef LOCKTUNE_WORKLOAD_HOSTILE_WORKLOAD_H_
#define LOCKTUNE_WORKLOAD_HOSTILE_WORKLOAD_H_

#include <string>

#include "engine/catalog.h"
#include "workload/workload.h"

namespace locktune {

enum class HostileArchetype {
  kLockHog,
  kIdleHolder,
  kAbortStorm,
  kRequestStorm,
};

const char* HostileArchetypeName(HostileArchetype archetype);

struct HostileOptions {
  HostileArchetype archetype = HostileArchetype::kLockHog;
  // Zero / negative values mean "use the archetype default" (resolved in
  // the constructor), so scenario files only override what they care about.
  int64_t locks_per_txn = 0;
  int locks_per_tick = 0;
  DurationMs hold_time = -1;
  DurationMs think_time = -1;
  LockMode mode = LockMode::kX;
};

class HostileWorkload : public Workload {
 public:
  // Scans `table` sequentially, wrapping at its row count. `catalog` must
  // outlive the workload.
  HostileWorkload(const Catalog& catalog, const std::string& table,
                  const HostileOptions& options);

  TransactionProfile NextTransaction(Rng& rng) override;
  RowAccess NextAccess(Rng& rng) override;

  // Options after archetype defaults were applied.
  const HostileOptions& options() const { return options_; }

 private:
  HostileOptions options_;
  TableId table_;
  int64_t row_count_;
  int64_t cursor_ = 0;  // shared scan position; see dss_workload.h
};

}  // namespace locktune

#endif  // LOCKTUNE_WORKLOAD_HOSTILE_WORKLOAD_H_
