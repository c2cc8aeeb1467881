// Flight recorder: one fixed-size ring buffer of recent lock, tuner, and
// fault events, dumped post-mortem when an invariant trips.
//
// The process records into one 256-event ring; a Record() is two index ops
// and a 32-byte struct store, cheap enough to leave on in every build. The
// ring is dumped to stderr:
//
//   * automatically on any LOCKTUNE_CHECK / LOCKTUNE_CHECK_OK failure
//     (including paranoid-mode invariant violations), via the check-failure
//     hooks in common/check.h — every chaos failure comes with the recent
//     event history that led up to it;
//   * on deadlock-victim selection, at most once per process, when armed
//     (--flight-dump or runtime paranoid mode) — victims are routine in
//     contention scenarios, so unarmed runs stay quiet;
//   * on demand at end of run via locktune_sim --flight-dump.
//
// locktune_sim --inspect also renders the ring's tail (RecentFlightEvents).
//
// Times are virtual (SimClock ms): the recorder explains simulated
// behavior, so it speaks the simulation's clock. Like the Database it
// records for, the recorder is driven from one thread; the crash handler's
// signal path reads the ring through DumpFlightRecorder.
#ifndef LOCKTUNE_TELEMETRY_FLIGHT_RECORDER_H_
#define LOCKTUNE_TELEMETRY_FLIGHT_RECORDER_H_

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace locktune {

// Every recorded event, in one vocabulary: the lock manager, the STMM
// controller and the degradation ledger record these kinds directly.
// Telemetry cannot see lock/ or fault/ types, so events carry generic
// integer payloads.
enum class EventKind : uint8_t {
  kWaitBegin = 0,      // a request queued behind incompatible holders
  kWaitEnd,            // a queued request was granted
  kEscalation,         // row locks collapsed into a table lock
  kDeadlockVictim,     // chosen to break a cycle
  kTimeout,            // a waiter exceeded LOCKTIMEOUT
  kOutOfLockMemory,    // no structure available and nothing to escalate
  kSynchronousGrowth,  // a block was added on the request path
  kTunerPass,          // one asynchronous STMM tuning pass
  kFaultInjection,     // the fault plan delivered a fault
  kFaultAbsorbed,      // a subsystem degraded instead of failing
  kFaultRecovery,      // a subsystem left its degraded state
};

// The flight-dump name ("wait_begin"), as FlightEvent::ToString prints it.
const char* EventDumpName(EventKind kind);
// The record name ("WAIT_BEGIN"): the `event` field of a `lock_event`
// trace record and the name of a Chrome-trace instant.
const char* EventRecordName(EventKind kind);

struct FlightEvent {
  int64_t time_ms = 0;  // virtual time
  EventKind kind = EventKind::kWaitBegin;
  int32_t app = 0;
  int64_t a = 0;  // kind-specific (table id, tuner action, ...)
  int64_t b = 0;  // kind-specific (row id, value, ...)

  std::string ToString() const;
};

inline constexpr int kFlightRingCapacity = 256;

// Appends to the ring. Installs the check-failure dump hook on the first
// use of the recorder.
void FlightRecord(EventKind kind, int64_t time_ms, int32_t app, int64_t a,
                  int64_t b);

// Writes the ring (oldest surviving event first) to `out`.
void DumpFlightRecorder(std::FILE* out);

// Arms the once-per-process automatic dump on deadlock-victim selection.
void ArmFlightDumpOnVictim(bool armed);
bool FlightDumpOnVictimArmed();

// True exactly once: the victim-dump rate limiter. The lock manager calls
// this when it selects victims; a true return means "dump now".
bool TakeVictimDumpBudget();

// The surviving events in record order, oldest first, and the total ever
// recorded (more than the ring holds once it wraps).
std::vector<FlightEvent> RecentFlightEvents();
uint64_t FlightEventsRecorded();

// Test hook: empties the ring and refills the victim-dump budget.
void ResetFlightRecorderForTesting();

}  // namespace locktune

#endif  // LOCKTUNE_TELEMETRY_FLIGHT_RECORDER_H_
