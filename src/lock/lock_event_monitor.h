// Lock event monitoring (the analogue of DB2's lock event monitor /
// db2pd -locks diagnostics).
//
// A LockEventMonitor observes the lock manager's interesting transitions:
// waits beginning and ending, escalations, timeouts, deadlock victims, and
// out-of-lock-memory failures. Monitors are how operators diagnose the
// exact situations this paper is about — "why did my workload escalate?" —
// so the library ships a bounded ring-buffer recorder and a counting
// aggregator, plus the observer interface for custom sinks.
//
// Events are delivered synchronously under the lock manager's mutex:
// implementations must be fast and must not call back into the manager.
#ifndef LOCKTUNE_LOCK_LOCK_EVENT_MONITOR_H_
#define LOCKTUNE_LOCK_LOCK_EVENT_MONITOR_H_

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "common/sim_clock.h"
#include "lock/lock_head.h"
#include "lock/lock_mode.h"
#include "lock/resource.h"

namespace locktune {

enum class LockEventKind : uint8_t {
  kWaitBegin = 0,      // a request queued behind incompatible holders
  kWaitEnd,            // a queued request was granted
  kEscalation,         // row locks collapsed into a table lock
  kTimeout,            // a waiter exceeded LOCKTIMEOUT
  kDeadlockVictim,     // chosen to break a cycle
  kOutOfLockMemory,    // no structure available and nothing to escalate
  kSynchronousGrowth,  // a block was added on the request path
};

inline constexpr int kNumLockEventKinds = 7;

std::string_view LockEventKindName(LockEventKind kind);

struct LockEvent {
  LockEventKind kind = LockEventKind::kWaitBegin;
  TimeMs time = 0;
  AppId app = 0;
  ResourceId resource;            // subject resource (table for escalation)
  LockMode mode = LockMode::kNone;  // requested / escalated-to mode
  // kWaitEnd: how long the wait lasted. kEscalation: row locks released.
  int64_t value = 0;

  // One-line rendering, e.g. "t=12.3s ESCALATION app=7 tab(3) X rows=2048".
  std::string ToString() const;
};

class LockEventMonitor {
 public:
  virtual ~LockEventMonitor() = default;
  virtual void OnLockEvent(const LockEvent& event) = 0;
};

// Keeps the last `capacity` events in a ring (the flight recorder).
class RingBufferEventMonitor : public LockEventMonitor {
 public:
  explicit RingBufferEventMonitor(size_t capacity = 1024);

  void OnLockEvent(const LockEvent& event) override;

  // Events in arrival order, oldest first.
  std::vector<LockEvent> Events() const;
  int64_t total_events() const { return total_; }
  size_t capacity() const { return capacity_; }

  // Renders the buffered events, one per line.
  std::string Dump() const;

 private:
  size_t capacity_;
  std::vector<LockEvent> ring_;
  size_t next_ = 0;
  int64_t total_ = 0;
};

// Counts events by kind (cheap always-on aggregation).
class CountingEventMonitor : public LockEventMonitor {
 public:
  void OnLockEvent(const LockEvent& event) override;

  int64_t count(LockEventKind kind) const {
    return counts_[static_cast<size_t>(kind)];
  }
  int64_t total() const;

 private:
  std::array<int64_t, kNumLockEventKinds> counts_{};
};

}  // namespace locktune

#endif  // LOCKTUNE_LOCK_LOCK_EVENT_MONITOR_H_
