// Point-in-time diagnostic snapshot of a Database — the analogue of
// `db2pd -memsets -locks -stmm`: heap sizes, lock memory state, lock
// manager counters, and the heaviest lock-holding applications, with a
// text rendering for operators.
#ifndef LOCKTUNE_ENGINE_DB_SNAPSHOT_H_
#define LOCKTUNE_ENGINE_DB_SNAPSHOT_H_

#include <string>
#include <vector>

#include "engine/database.h"

namespace locktune {

struct HeapSnapshot {
  std::string name;
  ConsumerClass consumer_class = ConsumerClass::kPerformance;
  Bytes size = 0;
  Bytes min_size = 0;
  Bytes max_size = 0;
};

struct AppLockSnapshot {
  AppId app = 0;
  int64_t held_structures = 0;
  bool blocked = false;
};

struct DatabaseSnapshot {
  TimeMs time = 0;
  Bytes database_memory = 0;
  Bytes overflow = 0;
  Bytes overflow_goal = 0;
  std::vector<HeapSnapshot> heaps;

  // Lock memory.
  Bytes lock_allocated = 0;
  Bytes lock_used = 0;
  Bytes lmoc = 0;       // externalized config (== allocated when static)
  Bytes lmo = 0;        // transient overflow borrowings (self-tuning only)
  double maxlocks_percent = 0.0;
  LockManagerStats lock_stats;
  int64_t waiting_apps = 0;

  // Applications holding the most lock structures, descending.
  std::vector<AppLockSnapshot> top_lock_holders;
};

// Captures the current state. `top_n` bounds top_lock_holders; the probe
// scans app ids [1, max_app_id] (the scenario runner assigns ids densely
// from 1).
DatabaseSnapshot CaptureSnapshot(Database& db, int max_app_id,
                                 int top_n = 5);

// Multi-line operator-facing rendering.
std::string RenderSnapshot(const DatabaseSnapshot& snapshot);

// The `locktune_pd` full inspection: the snapshot above, the telemetry
// registry table, the last STMM tuning passes, and the last `tail` events
// of the calling thread's flight-recorder ring (lock events, tuner passes
// and faults), one FlightEvent::ToString() line each.
std::string RenderInspector(Database& db, int max_app_id, size_t tail = 20);

}  // namespace locktune

#endif  // LOCKTUNE_ENGINE_DB_SNAPSHOT_H_
