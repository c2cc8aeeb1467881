#include "telemetry/flight_recorder.h"

#include <iterator>

#include "common/check.h"

namespace locktune {

namespace {

struct EventNames {
  const char* dump;
  const char* record;
};

// One row per EventKind, in declaration order.
constexpr EventNames kEventNames[] = {
    {"wait_begin", "WAIT_BEGIN"},
    {"wait_end", "WAIT_END"},
    {"escalation", "ESCALATION"},
    {"deadlock_victim", "DEADLOCK_VICTIM"},
    {"timeout", "TIMEOUT"},
    {"out_of_lock_memory", "OUT_OF_LOCK_MEMORY"},
    {"sync_growth", "SYNC_GROWTH"},
    {"tuner_pass", "TUNER_PASS"},
    {"fault_injection", "FAULT_INJECTION"},
    {"fault_absorbed", "FAULT_ABSORBED"},
    {"fault_recovery", "FAULT_RECOVERY"},
};
static_assert(std::size(kEventNames) ==
              static_cast<size_t>(EventKind::kFaultRecovery) + 1);

}  // namespace

const char* EventDumpName(EventKind kind) {
  return kEventNames[static_cast<size_t>(kind)].dump;
}

const char* EventRecordName(EventKind kind) {
  return kEventNames[static_cast<size_t>(kind)].record;
}

std::string FlightEvent::ToString() const {
  char buf[128];
  std::snprintf(buf, sizeof(buf),
                "t=%lldms %-18s app=%d a=%lld b=%lld",
                static_cast<long long>(time_ms), EventDumpName(kind),
                app, static_cast<long long>(a), static_cast<long long>(b));
  return buf;
}

namespace {

struct FlightRing {
  FlightEvent events[kFlightRingCapacity];
  // Monotonic write cursor; events[next % capacity] is the next slot.
  uint64_t next = 0;
};

FlightRing g_ring;
bool g_hook_installed = false;
bool g_victim_dump_armed = false;
bool g_victim_dump_spent = false;

void DumpHook() { DumpFlightRecorder(stderr); }

FlightRing& Ring() {
  if (!g_hook_installed) {
    g_hook_installed = true;
    AddCheckFailureHook(&DumpHook);
  }
  return g_ring;
}

}  // namespace

void FlightRecord(EventKind kind, int64_t time_ms, int32_t app, int64_t a,
                  int64_t b) {
  FlightRing& ring = Ring();
  FlightEvent& slot = ring.events[ring.next % kFlightRingCapacity];
  slot.time_ms = time_ms;
  slot.kind = kind;
  slot.app = app;
  slot.a = a;
  slot.b = b;
  ++ring.next;
}

void DumpFlightRecorder(std::FILE* out) {
  const uint64_t next = g_ring.next;
  const uint64_t count =
      next < kFlightRingCapacity ? next : kFlightRingCapacity;
  std::fprintf(out,
               "flight recorder dump: %llu events recorded, last %llu:\n",
               static_cast<unsigned long long>(next),
               static_cast<unsigned long long>(count));
  for (uint64_t i = next - count; i < next; ++i) {
    std::fprintf(out, "  %s\n",
                 g_ring.events[i % kFlightRingCapacity].ToString().c_str());
  }
}

void ArmFlightDumpOnVictim(bool armed) { g_victim_dump_armed = armed; }

bool FlightDumpOnVictimArmed() { return g_victim_dump_armed; }

bool TakeVictimDumpBudget() {
  if (!g_victim_dump_armed || g_victim_dump_spent) return false;
  g_victim_dump_spent = true;
  return true;
}

std::vector<FlightEvent> RecentFlightEvents() {
  const FlightRing& ring = Ring();
  const uint64_t count =
      ring.next < kFlightRingCapacity ? ring.next : kFlightRingCapacity;
  std::vector<FlightEvent> out;
  out.reserve(count);
  for (uint64_t i = ring.next - count; i < ring.next; ++i) {
    out.push_back(ring.events[i % kFlightRingCapacity]);
  }
  return out;
}

uint64_t FlightEventsRecorded() { return Ring().next; }

void ResetFlightRecorderForTesting() {
  Ring().next = 0;
  g_victim_dump_spent = false;
}

}  // namespace locktune
