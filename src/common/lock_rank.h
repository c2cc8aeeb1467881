// Paranoid-mode runtime lock-rank assertion.
//
// The dynamic third leg of the concurrency-discipline tripod (clang
// -Wthread-safety annotations, locklint LL011, and this): every ranked
// lock acquisition is checked against a per-thread stack of held ranks,
// seeded from the same table (src/common/lock_rank_table.h) locklint
// builds its lock-order graph from. A thread may only acquire a lock
// whose rank is strictly greater than every rank it already holds;
// violating that aborts with both lock names, the same way a
// LOCKTUNE_CHECK failure does. This catches out-of-order acquisitions
// that flow through callbacks or function pointers the static passes
// cannot see.
//
// Cost model: the checks are dead weight unless paranoid mode is on
// (LOCKTUNE_PARANOID env / SetParanoidForTesting — see
// common/paranoid.h). Disabled, an acquisition pays one predictable
// branch; never benchmark with it enabled (docs/PERFORMANCE.md).
#ifndef LOCKTUNE_COMMON_LOCK_RANK_H_
#define LOCKTUNE_COMMON_LOCK_RANK_H_

#include "common/lock_rank_table.h"
#include "common/paranoid.h"

namespace locktune {

// Aborts (after running the CHECK-failure hooks, so the flight recorder
// dumps) if the calling thread already holds a lock of rank >= `rank`.
// Otherwise pushes `rank` onto the thread's held stack. `name` is only
// used in the failure message. No-op for kLockRankUnranked.
void LockRankOnAcquireSlow(int rank, const char* name);

// Pops the most recent occurrence of `rank` from the thread's held
// stack. Tolerates non-LIFO release orders and enable-flips mid-hold
// (the pop simply misses). No-op for kLockRankUnranked.
void LockRankOnReleaseSlow(int rank);

inline void LockRankOnAcquire(int rank, const char* name) {
  if (rank != kLockRankUnranked && ParanoidEnabled()) {
    LockRankOnAcquireSlow(rank, name);
  }
}

inline void LockRankOnRelease(int rank) {
  if (rank != kLockRankUnranked && ParanoidEnabled()) {
    LockRankOnReleaseSlow(rank);
  }
}

}  // namespace locktune

#endif  // LOCKTUNE_COMMON_LOCK_RANK_H_
