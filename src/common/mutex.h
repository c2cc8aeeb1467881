// Annotated mutex wrapper: the capability type clang's -Wthread-safety
// analysis reasons about.
//
// libstdc++'s std::mutex carries no capability attributes, so a member can
// be LT_GUARDED_BY a lock only if the lock's type is annotated. Mutex is
// that type: zero-overhead forwarding to std::mutex, plus
//
//   * the capability attributes (LT_CAPABILITY / LT_ACQUIRE / ...), and
//   * an optional lock rank wired into the paranoid-mode runtime
//     hierarchy assertion (common/lock_rank.h). Ranked construction is
//     `Mutex(kLockRankManager, "LockManager::mu_")`; the name must match
//     the canonical spelling in common/lock_rank_table.h so the runtime
//     checker, locklint's graph, and the docs stay in sync.
//
// The scoped guard MutexLock replaces std::lock_guard on this type.
#ifndef LOCKTUNE_COMMON_MUTEX_H_
#define LOCKTUNE_COMMON_MUTEX_H_

#include <mutex>

#include "common/lock_rank.h"
#include "common/thread_annotations.h"

namespace locktune {

class LT_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(int rank, const char* name) : rank_(rank), name_(name) {}
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void Lock() LT_ACQUIRE() {
    mu_.lock();
    LockRankOnAcquire(rank_, name_);
  }
  void Unlock() LT_RELEASE() {
    LockRankOnRelease(rank_);
    mu_.unlock();
  }

 private:
  std::mutex mu_;
  int rank_ = kLockRankUnranked;
  const char* name_ = "Mutex";
};

class LT_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) LT_ACQUIRE(mu) : mu_(mu) { mu_.Lock(); }
  ~MutexLock() LT_RELEASE() { mu_.Unlock(); }
  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex& mu_;
};

}  // namespace locktune

#endif  // LOCKTUNE_COMMON_MUTEX_H_
