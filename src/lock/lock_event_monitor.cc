#include "lock/lock_event_monitor.h"

#include <cstdio>

#include "common/check.h"

namespace locktune {

std::string_view LockEventKindName(LockEventKind kind) {
  switch (kind) {
    case LockEventKind::kWaitBegin:
      return "WAIT_BEGIN";
    case LockEventKind::kWaitEnd:
      return "WAIT_END";
    case LockEventKind::kEscalation:
      return "ESCALATION";
    case LockEventKind::kTimeout:
      return "TIMEOUT";
    case LockEventKind::kDeadlockVictim:
      return "DEADLOCK_VICTIM";
    case LockEventKind::kOutOfLockMemory:
      return "OUT_OF_LOCK_MEMORY";
    case LockEventKind::kSynchronousGrowth:
      return "SYNC_GROWTH";
  }
  return "?";
}

std::string LockEvent::ToString() const {
  char buf[160];
  std::snprintf(buf, sizeof(buf), "t=%.1fs %s app=%d %s %s value=%lld",
                static_cast<double>(time) / 1000.0,
                std::string(LockEventKindName(kind)).c_str(), app,
                resource.ToString().c_str(),
                std::string(ModeName(mode)).c_str(),
                static_cast<long long>(value));
  return buf;
}

RingBufferEventMonitor::RingBufferEventMonitor(size_t capacity)
    : capacity_(capacity) {
  LOCKTUNE_CHECK(capacity > 0);
  ring_.reserve(capacity);
}

void RingBufferEventMonitor::OnLockEvent(const LockEvent& event) {
  if (ring_.size() < capacity_) {
    ring_.push_back(event);
  } else {
    ring_[next_] = event;
  }
  next_ = (next_ + 1) % capacity_;
  ++total_;
}

std::vector<LockEvent> RingBufferEventMonitor::Events() const {
  std::vector<LockEvent> out;
  out.reserve(ring_.size());
  if (ring_.size() < capacity_) {
    out = ring_;
  } else {
    for (size_t i = 0; i < capacity_; ++i) {
      out.push_back(ring_[(next_ + i) % capacity_]);
    }
  }
  return out;
}

std::string RingBufferEventMonitor::Dump() const {
  std::string out;
  for (const LockEvent& e : Events()) {
    out += e.ToString();
    out += '\n';
  }
  return out;
}

void CountingEventMonitor::OnLockEvent(const LockEvent& event) {
  ++counts_[static_cast<size_t>(event.kind)];
}

int64_t CountingEventMonitor::total() const {
  int64_t sum = 0;
  for (int64_t c : counts_) sum += c;
  return sum;
}

}  // namespace locktune
