#include "telemetry/crash_handler.h"

#include <csignal>
#include <cstdio>
#include <cstring>
#include <exception>

#include "common/check.h"
#include "telemetry/flight_recorder.h"

namespace locktune {

namespace {

// One dump per process: set by whichever fatal path fires first. The
// check-failure hook below sets it too, so a LOCKTUNE_CHECK abort (which
// already dumped through common/check.h) does not dump a second time when
// its SIGABRT reaches the signal handler. The signal path reads exactly two
// things: this flag (hence volatile sig_atomic_t) and the flight-recorder
// ring, through DumpFlightRecorder.
volatile std::sig_atomic_t dumped = 0;

void DumpOnce(const char* why) {
  if (dumped != 0) return;
  dumped = 1;
  std::fprintf(stderr, "locktune: fatal: %s — flight recorder follows\n",
               why);
  // Not async-signal-safe in the strict sense (fprintf, a ring walk), but
  // the process is already dying and the alternative is no attribution at
  // all.
  DumpFlightRecorder(stderr);
}

void MarkDumpedByCheckFailure() {
  // common/check.h just ran the flight-recorder dump hook; suppress ours.
  dumped = 1;
}

[[noreturn]] void TerminateHandler() {
  const char* what = "std::terminate";
  if (std::exception_ptr eptr = std::current_exception()) {
    try {
      std::rethrow_exception(eptr);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "locktune: unhandled exception: %s\n", e.what());
      what = "unhandled exception";
    } catch (...) {
      what = "unhandled exception (non-std type)";
    }
  }
  DumpOnce(what);
  std::abort();
}

void FatalSignalHandler(int signo) {
  char why[64];
  std::snprintf(why, sizeof(why), "signal %d (%s)", signo,
                strsignal(signo));
  DumpOnce(why);
  // Restore the default disposition and re-raise so the process dies with
  // the true signal: wait(2) status, core dumps, and sanitizer reports all
  // behave as if we were never here.
  std::signal(signo, SIG_DFL);
  std::raise(signo);
}

}  // namespace

void InstallCrashAttribution() {
  static bool installed = false;
  if (installed) return;
  installed = true;
  AddCheckFailureHook(&MarkDumpedByCheckFailure);
  std::set_terminate(&TerminateHandler);
  for (int signo : {SIGSEGV, SIGBUS, SIGFPE, SIGILL, SIGABRT}) {
    std::signal(signo, &FatalSignalHandler);
  }
}

}  // namespace locktune
