// Invariant-check macros (the repo's replacement for raw assert()).
//
// Two tiers:
//
//  * LOCKTUNE_CHECK(cond)            — always on, in every build type.
//    Use for configuration validation and cold-path contract checks whose
//    cost is irrelevant (constructors, tuning passes, shrink/grow).
//
//  * LOCKTUNE_DCHECK(cond)           — hot-path checks. Compiled in unless
//    NDEBUG is defined; the project build keeps NDEBUG stripped in all
//    standard build types, so these are active everywhere today, exactly
//    like the assert() calls they replace. A future "checks off" build can
//    define NDEBUG without touching call sites.
//
// Both print `locktune: CHECK failed: <expr> (file:line)` to stderr and
// abort, so a violated invariant is loud and localizable rather than a
// silently-wrong golden file. Keep the `cond && "message"` idiom for
// context; the whole expression is printed.
//
// LOCKTUNE_CHECK_OK(status) is a convenience for Status-returning
// validators: it prints the status message on failure.
//
// Unlike assert(), these stay active under -DNDEBUG=OFF regardless of the
// compiler's NDEBUG handling, and the failure text is grep-stable for the
// paranoid-mode tests ("CHECK failed").
#ifndef LOCKTUNE_COMMON_CHECK_H_
#define LOCKTUNE_COMMON_CHECK_H_

#include <cstdio>
#include <cstdlib>

namespace locktune {

// Post-mortem hooks, run after a CHECK prints its message and before the
// process aborts. The flight recorder (telemetry/flight_recorder.h)
// registers one so every CHECK failure comes with the recent lock/tuner
// event history. Hooks must be async-signal-tolerant in spirit: no
// allocation-heavy work. Re-entrant failures (a hook tripping a CHECK) skip
// straight to abort.
using CheckFailureHook = void (*)();
void AddCheckFailureHook(CheckFailureHook hook);
void InvokeCheckFailureHooks();

}  // namespace locktune

#define LOCKTUNE_CHECK(cond)                                          \
  do {                                                                \
    if (!(cond)) {                                                    \
      std::fprintf(stderr, "locktune: CHECK failed: %s (%s:%d)\n",    \
                   #cond, __FILE__, __LINE__);                        \
      ::locktune::InvokeCheckFailureHooks();                          \
      std::abort();                                                   \
    }                                                                 \
  } while (0)

// Hot-path tier: same behavior as LOCKTUNE_CHECK while NDEBUG is off
// (the default in every project build type: the root CMakeLists strips
// -DNDEBUG).
#ifdef NDEBUG
#define LOCKTUNE_DCHECK(cond) \
  do {                        \
  } while (0)
#else
#define LOCKTUNE_DCHECK(cond) LOCKTUNE_CHECK(cond)
#endif

// For Status-returning validators: aborts with the status message.
// `status` must be an expression convertible to locktune::Status (evaluated
// once).
#define LOCKTUNE_CHECK_OK(status)                                      \
  do {                                                                 \
    const auto& locktune_check_ok_s = (status);                        \
    if (!locktune_check_ok_s.ok()) {                                   \
      std::fprintf(stderr, "locktune: CHECK failed: %s (%s:%d)\n",     \
                   locktune_check_ok_s.ToString().c_str(), __FILE__,   \
                   __LINE__);                                          \
      ::locktune::InvokeCheckFailureHooks();                           \
      std::abort();                                                    \
    }                                                                  \
  } while (0)

#endif  // LOCKTUNE_COMMON_CHECK_H_
