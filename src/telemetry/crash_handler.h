// Crash attribution for tools: on an otherwise-silent fatal path — an
// unhandled exception (std::terminate) or a fatal signal (SIGSEGV, SIGBUS,
// SIGFPE, SIGILL, SIGABRT) — dump the flight-recorder ring to stderr and
// die with the default disposition, so the supervising process still sees
// the real signal (and ASan et al. still get their turn).
//
// This is the fuzzer's attribution contract: any crash a generated
// scenario provokes leaves the recent lock/tuner/fault event history on
// stderr instead of a bare "Segmentation fault". LOCKTUNE_CHECK failures
// already dump via the check-failure hooks (common/check.h); the handler
// coordinates with them so an abort after a CHECK does not dump twice.
#ifndef LOCKTUNE_TELEMETRY_CRASH_HANDLER_H_
#define LOCKTUNE_TELEMETRY_CRASH_HANDLER_H_

namespace locktune {

// Installs the terminate handler and fatal-signal handlers. Idempotent;
// call once from a tool's main() before running scenarios. Never installed
// implicitly by the library: tests that *expect* clean aborts (death
// tests) should not inherit it.
void InstallCrashAttribution();

}  // namespace locktune

#endif  // LOCKTUNE_TELEMETRY_CRASH_HANDLER_H_
