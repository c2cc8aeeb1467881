// Build fingerprint for the benchmark: whether a lock-path contention
// profiler is compiled in. None is: one thread drives the lock manager, so
// there is no contention to profile.
#ifndef LOCKTUNE_TELEMETRY_LOCK_PROFILER_H_
#define LOCKTUNE_TELEMETRY_LOCK_PROFILER_H_

namespace locktune {

// Always false. Kept only because perfbench's build fingerprint prints it.
constexpr bool ProfileCompiledIn() { return false; }

}  // namespace locktune

#endif  // LOCKTUNE_TELEMETRY_LOCK_PROFILER_H_
