// The repo-wide lock hierarchy, as data.
//
// This header is the single source of truth for which lock may be taken
// while which other lock is held. It is deliberately self-contained
// (standard library only, no project includes) because it is compiled
// into two very different consumers that must never disagree:
//
//   * tools/locklint/locklint.cc — the static analyzer builds the
//     whole-repo lock-order graph and checks every edge against these
//     ranks (rule LL011), including cycle detection;
//   * src/common/lock_rank.cc — the paranoid-mode runtime assertion
//     keeps a per-thread stack of held ranks and aborts on an
//     out-of-order acquisition the static pass missed (callbacks,
//     function pointers, code locklint cannot see through).
//
// The rule: a thread may acquire a lock only while every lock it already
// holds has a STRICTLY SMALLER rank. Strict ordering at equal rank is
// intentional: two locks of one rank never nest, in either order.
//
// The hierarchy (outermost first; see docs/STATIC_ANALYSIS.md §2 for the
// prose version and the evidence for each edge):
//
//   rank 0   MetricsRegistry::mu_   Collect() holds it while running
//                                   registered callbacks, and the lock
//                                   manager's gauge callbacks take the
//                                   manager lock — so the registry lock
//                                   is OUTERMOST, nothing may be held
//                                   when calling Collect().
//   rank 10  LockManager::mu_       the lock manager's one mutex; every
//                                   public manager call holds it.
//   rank 40  leaf telemetry locks   trace writers, chrome trace, flight
//                                   recorder registry, histogram
//                                   buckets. Take nothing underneath.
//
// Adding a lock: give it a rank here, name it in the table below with
// the same canonical `Class::member` spelling locklint derives, and add
// a row to the docs table. locklint's golden lock-order-graph test
// (tests/golden/lock_order_graph.dot) will fail until the graph, the
// table, and the docs agree.
#ifndef LOCKTUNE_COMMON_LOCK_RANK_TABLE_H_
#define LOCKTUNE_COMMON_LOCK_RANK_TABLE_H_

#include <cstddef>

namespace locktune {

// Ranks are sparse so a future lock can slot between existing levels
// without renumbering. kLockRankUnranked opts a lock out of runtime
// checking (locklint still sees it as a graph node).
inline constexpr int kLockRankUnranked = -1;
inline constexpr int kLockRankMetricsRegistry = 0;
inline constexpr int kLockRankManager = 10;
inline constexpr int kLockRankLeaf = 40;

struct LockRankEntry {
  const char* name;  // canonical `Class::member` (locklint's spelling)
  int rank;
};

// Every named lock in the tree. Locks absent from this table are treated
// as leaves by the runtime checker's callers (they should still be added
// here when they participate in any nesting).
inline constexpr LockRankEntry kLockRankTable[] = {
    {"MetricsRegistry::mu_", kLockRankMetricsRegistry},
    {"LockManager::mu_", kLockRankManager},
    // Leaves: telemetry sinks and registries. Code holding one of these
    // must not call back into anything above.
    {"HistogramMetric::mu_", kLockRankLeaf},
    {"JsonlTraceWriter::mu_", kLockRankLeaf},
    {"MemoryTraceSink::mu_", kLockRankLeaf},
    {"ChromeTraceCollector::mu_", kLockRankLeaf},
    {"flight_recorder::mu", kLockRankLeaf},
};

inline constexpr std::size_t kLockRankTableSize =
    sizeof(kLockRankTable) / sizeof(kLockRankTable[0]);

// Rank lookup by canonical name; kLockRankUnranked when absent. Linear
// scan — both consumers call this at startup / analysis time, never on a
// hot path.
inline int LockRankForName(const char* name) {
  for (std::size_t i = 0; i < kLockRankTableSize; ++i) {
    const char* a = kLockRankTable[i].name;
    const char* b = name;
    while (*a != '\0' && *a == *b) {
      ++a;
      ++b;
    }
    if (*a == '\0' && *b == '\0') return kLockRankTable[i].rank;
  }
  return kLockRankUnranked;
}

}  // namespace locktune

#endif  // LOCKTUNE_COMMON_LOCK_RANK_TABLE_H_
