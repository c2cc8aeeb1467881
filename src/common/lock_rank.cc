#include "common/lock_rank.h"

#include <cstdio>
#include <cstdlib>

#include "common/check.h"

namespace locktune {

namespace {

// Deepest legal nesting today is three (MetricsRegistry → manager →
// leaf); 16 leaves headroom for future levels.
constexpr int kMaxHeldRanks = 16;

struct HeldStack {
  int rank[kMaxHeldRanks];
  const char* name[kMaxHeldRanks];
  int depth = 0;
};

thread_local HeldStack tls_held;

}  // namespace

void LockRankOnAcquireSlow(int rank, const char* name) {
  HeldStack& held = tls_held;
  for (int i = 0; i < held.depth && i < kMaxHeldRanks; ++i) {
    if (held.rank[i] >= rank) {
      std::fprintf(stderr,
                   "locktune: CHECK failed: lock-rank order violation: "
                   "acquiring %s (rank %d) while holding %s (rank %d) "
                   "(%s:%d)\n",
                   name, rank, held.name[i], held.rank[i], __FILE__, __LINE__);
      InvokeCheckFailureHooks();
      std::abort();
    }
  }
  if (held.depth < kMaxHeldRanks) {
    held.rank[held.depth] = rank;
    held.name[held.depth] = name;
  }
  // Depth beyond the fixed stack is itself a hierarchy bug: the table
  // only permits a handful of nesting levels.
  LOCKTUNE_CHECK(held.depth < kMaxHeldRanks &&
                 "lock-rank stack overflow: nesting deeper than the "
                 "documented hierarchy allows");
  ++held.depth;
}

void LockRankOnReleaseSlow(int rank) {
  HeldStack& held = tls_held;
  // Releases are usually LIFO (RAII guards), but paranoid mode can be
  // flipped on while locks are held — so scan for the most recent
  // matching rank and tolerate a miss.
  for (int i = held.depth - 1; i >= 0; --i) {
    if (held.rank[i] == rank) {
      for (int j = i; j + 1 < held.depth; ++j) {
        held.rank[j] = held.rank[j + 1];
        held.name[j] = held.name[j + 1];
      }
      --held.depth;
      return;
    }
  }
}

}  // namespace locktune
