#include "telemetry/flight_recorder.h"

#include <atomic>
#include <memory>

#include "common/check.h"
#include "common/mutex.h"
#include "common/thread_annotations.h"

namespace locktune {

const char* FlightEventKindName(FlightEventKind kind) {
  switch (kind) {
    case FlightEventKind::kWaitBegin:
      return "wait_begin";
    case FlightEventKind::kWaitEnd:
      return "wait_end";
    case FlightEventKind::kEscalation:
      return "escalation";
    case FlightEventKind::kDeadlockVictim:
      return "deadlock_victim";
    case FlightEventKind::kTimeout:
      return "timeout";
    case FlightEventKind::kOutOfLockMemory:
      return "out_of_lock_memory";
    case FlightEventKind::kSynchronousGrowth:
      return "sync_growth";
    case FlightEventKind::kTunerPass:
      return "tuner_pass";
    case FlightEventKind::kFaultInjection:
      return "fault_injection";
    case FlightEventKind::kFaultAbsorbed:
      return "fault_absorbed";
    case FlightEventKind::kFaultRecovery:
      return "fault_recovery";
  }
  return "unknown";
}

std::string FlightEvent::ToString() const {
  char buf[128];
  std::snprintf(buf, sizeof(buf),
                "t=%lldms %-18s app=%d a=%lld b=%lld",
                static_cast<long long>(time_ms), FlightEventKindName(kind),
                app, static_cast<long long>(a), static_cast<long long>(b));
  return buf;
}

namespace {

struct FlightRing {
  FlightEvent events[kFlightRingCapacity];
  // Monotonic write cursor; events[next % capacity] is the next slot. The
  // owner thread is the only writer; dump-time cross-thread reads are
  // unsynchronized by design (abort path / serial regions only).
  std::atomic<uint64_t> next{0};
  int thread_index = 0;
};

struct RingRegistry {
  Mutex mu{kLockRankLeaf, "flight_recorder::mu"};
  // Guards registration only; the abort-path dump reads it lock-free by
  // design (see DumpFlightRecorder).
  std::vector<std::unique_ptr<FlightRing>> rings LT_GUARDED_BY(mu);
};

RingRegistry& Registry() {
  static RingRegistry* registry = new RingRegistry();
  return *registry;
}

std::atomic<bool> g_victim_dump_armed{false};
std::atomic<bool> g_victim_dump_spent{false};

void DumpHook() { DumpFlightRecorder(stderr); }

FlightRing& Ring() {
  thread_local FlightRing* ring = [] {
    auto owned = std::make_unique<FlightRing>();
    FlightRing* raw = owned.get();
    RingRegistry& reg = Registry();
    MutexLock guard(reg.mu);
    raw->thread_index = static_cast<int>(reg.rings.size());
    reg.rings.push_back(std::move(owned));
    if (raw->thread_index == 0) AddCheckFailureHook(&DumpHook);
    return raw;
  }();
  return *ring;
}

}  // namespace

void FlightRecord(FlightEventKind kind, int64_t time_ms, int32_t app,
                  int64_t a, int64_t b) {
  FlightRing& ring = Ring();
  const uint64_t n = ring.next.load(std::memory_order_relaxed);
  FlightEvent& slot = ring.events[n % kFlightRingCapacity];
  slot.time_ms = time_ms;
  slot.kind = kind;
  slot.app = app;
  slot.a = a;
  slot.b = b;
  ring.next.store(n + 1, std::memory_order_release);
}

// Outside the capability analysis: the dump runs on the abort path where
// the failing thread may already hold the registry lock.
void DumpFlightRecorder(std::FILE* out) LT_NO_THREAD_SAFETY_ANALYSIS {
  RingRegistry& reg = Registry();
  // No registry lock: the dump runs on the abort path, where the failing
  // thread may already hold it (it only guards registration, so the worst
  // case is missing a ring registered mid-dump).
  std::fprintf(out, "flight recorder dump (%zu thread rings):\n",
               reg.rings.size());
  for (const auto& ring : reg.rings) {
    const uint64_t next = ring->next.load(std::memory_order_acquire);
    const uint64_t count =
        next < kFlightRingCapacity ? next : kFlightRingCapacity;
    std::fprintf(out,
                 "  thread ring %d: %llu events recorded, last %llu:\n",
                 ring->thread_index, static_cast<unsigned long long>(next),
                 static_cast<unsigned long long>(count));
    for (uint64_t i = next - count; i < next; ++i) {
      std::fprintf(out, "    %s\n",
                   ring->events[i % kFlightRingCapacity].ToString().c_str());
    }
  }
}

void ArmFlightDumpOnVictim(bool armed) {
  g_victim_dump_armed.store(armed, std::memory_order_relaxed);
}

bool FlightDumpOnVictimArmed() {
  return g_victim_dump_armed.load(std::memory_order_relaxed);
}

bool TakeVictimDumpBudget() {
  if (!FlightDumpOnVictimArmed()) return false;
  return !g_victim_dump_spent.exchange(true, std::memory_order_relaxed);
}

std::vector<FlightEvent> RecentFlightEvents() {
  FlightRing& ring = Ring();
  const uint64_t next = ring.next.load(std::memory_order_relaxed);
  const uint64_t count =
      next < kFlightRingCapacity ? next : kFlightRingCapacity;
  std::vector<FlightEvent> out;
  out.reserve(count);
  for (uint64_t i = next - count; i < next; ++i) {
    out.push_back(ring.events[i % kFlightRingCapacity]);
  }
  return out;
}

uint64_t FlightEventsRecorded() {
  return Ring().next.load(std::memory_order_relaxed);
}

void ResetFlightRecorderForTesting() {
  RingRegistry& reg = Registry();
  MutexLock guard(reg.mu);
  for (const auto& ring : reg.rings) {
    ring->next.store(0, std::memory_order_relaxed);
  }
  g_victim_dump_spent.store(false, std::memory_order_relaxed);
}

}  // namespace locktune
