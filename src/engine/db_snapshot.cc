#include "engine/db_snapshot.h"

#include <algorithm>
#include <cstdio>

#include "core/stmm_report.h"
#include "telemetry/exporters.h"

namespace locktune {

namespace {
constexpr double kMb = 1024.0 * 1024.0;

double Mb(Bytes b) { return static_cast<double>(b) / kMb; }
}  // namespace

DatabaseSnapshot CaptureSnapshot(Database& db, int max_app_id, int top_n) {
  DatabaseSnapshot s;
  s.time = db.clock().now();
  s.database_memory = db.memory().total();
  s.overflow = db.memory().overflow_bytes();
  s.overflow_goal = db.memory().overflow_goal();
  for (const auto& heap : db.memory().heaps()) {
    s.heaps.push_back({heap->name(), heap->consumer_class(), heap->size(),
                       heap->min_size(), heap->max_size()});
  }

  s.lock_allocated = db.locks().allocated_bytes();
  s.lock_used = db.locks().used_bytes();
  if (db.stmm() != nullptr) {
    s.lmoc = db.stmm()->lmoc();
    s.lmo = db.stmm()->lmo();
  } else {
    s.lmoc = s.lock_allocated;
  }
  s.maxlocks_percent = db.locks().CurrentMaxlocksPercent();
  s.lock_stats = db.locks().stats();
  s.waiting_apps = db.locks().waiting_app_count();

  // One aggregate pass under one manager guard. The old probe called
  // HeldStructures + IsBlocked per app id in [1, max_app_id], re-locking
  // the manager two to three times per application — at 10^6 connected
  // applications a single snapshot stalled the whole lock path.
  for (const AppLockUsage& a : db.locks().TopLockHolders(max_app_id, top_n)) {
    s.top_lock_holders.push_back({a.app, a.held_structures, a.blocked});
  }
  return s;
}

std::string RenderSnapshot(const DatabaseSnapshot& s) {
  std::string out;
  char line[200];

  std::snprintf(line, sizeof(line),
                "database snapshot at t=%.1fs (memory %.0f MB)\n",
                static_cast<double>(s.time) / 1000.0, Mb(s.database_memory));
  out += line;

  out += "  heaps:\n";
  for (const HeapSnapshot& h : s.heaps) {
    std::snprintf(line, sizeof(line),
                  "    %-14s %8.2f MB  [%s]  (min %.2f, max %.2f)\n",
                  h.name.c_str(), Mb(h.size),
                  h.consumer_class == ConsumerClass::kPerformance ? "PMC"
                                                                  : "FMC",
                  Mb(h.min_size), Mb(h.max_size));
    out += line;
  }
  std::snprintf(line, sizeof(line),
                "    %-14s %8.2f MB  (goal %.2f MB)\n", "overflow",
                Mb(s.overflow), Mb(s.overflow_goal));
  out += line;

  const double free_pct =
      s.lock_allocated > 0
          ? 100.0 * static_cast<double>(s.lock_allocated - s.lock_used) /
                static_cast<double>(s.lock_allocated)
          : 0.0;
  std::snprintf(line, sizeof(line),
                "  lock memory: %.2f MB allocated (%.1f%% free), "
                "LMOC %.2f MB, LMO %.2f MB, maxlocks %.1f%%\n",
                Mb(s.lock_allocated), free_pct, Mb(s.lmoc), Mb(s.lmo),
                s.maxlocks_percent);
  out += line;

  std::snprintf(line, sizeof(line),
                "  lock activity: requests=%lld waits=%lld "
                "escalations=%lld (excl=%lld) timeouts=%lld deadlocks=%lld "
                "oom=%lld sync_growth_blocks=%lld waiting_apps=%lld\n",
                static_cast<long long>(s.lock_stats.lock_requests),
                static_cast<long long>(s.lock_stats.lock_waits),
                static_cast<long long>(s.lock_stats.escalations),
                static_cast<long long>(s.lock_stats.exclusive_escalations),
                static_cast<long long>(s.lock_stats.lock_timeouts),
                static_cast<long long>(s.lock_stats.deadlock_victims),
                static_cast<long long>(s.lock_stats.out_of_memory_failures),
                static_cast<long long>(s.lock_stats.sync_growth_blocks),
                static_cast<long long>(s.waiting_apps));
  out += line;

  if (!s.top_lock_holders.empty()) {
    out += "  top lock holders:\n";
    for (const AppLockSnapshot& a : s.top_lock_holders) {
      std::snprintf(line, sizeof(line),
                    "    app %-5d %8lld structures (%.2f MB)%s\n", a.app,
                    static_cast<long long>(a.held_structures),
                    Mb(a.held_structures * kLockStructSize),
                    a.blocked ? "  [BLOCKED]" : "");
      out += line;
    }
  }
  return out;
}

std::string RenderInspector(Database& db, int max_app_id,
                            const RingBufferEventMonitor* ring,
                            size_t ring_tail) {
  std::string out = RenderSnapshot(CaptureSnapshot(db, max_app_id));
  out += "\n";
  out += RenderRegistryTable(db.metrics());
  if (db.stmm() != nullptr && !db.stmm()->history().empty()) {
    out += "\nSTMM tuning history (last 10 passes):\n";
    out += RenderHistoryTable(db.stmm()->history(), 10);
    out += RenderSummary(Summarize(db.stmm()->history()));
  }
  if (ring != nullptr) {
    const std::vector<LockEvent> events = ring->Events();
    const size_t shown = std::min(ring_tail, events.size());
    char line[120];
    std::snprintf(line, sizeof(line),
                  "\nlock event ring buffer (%lld total, last %zu):\n",
                  static_cast<long long>(ring->total_events()), shown);
    out += line;
    for (size_t i = events.size() - shown; i < events.size(); ++i) {
      out += "  " + events[i].ToString() + "\n";
    }
  }
  return out;
}

}  // namespace locktune
