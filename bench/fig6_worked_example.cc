// Figure 6 — the worked example of §4: combined synchronous & asynchronous
// lock memory tuning. Reproduces the bar chart's timeline:
//   T0 steady state (2 % of memory in lock structures, half-free heap)
//   T1 surge to 3 %, absorbed by the free space (no overflow use)
//   T2 tuning interval: grow to restore the minFree objective
//   T3 267 % surge to 8 %: free space + synchronous overflow consumption
//   T4 tuning interval: heaps reduced, overflow reclaimed to its goal
//   T5 slump back to 2 %: most of the lock memory now empty
//   T6..Tn: 5 % asynchronous decay per interval until maxFree is reached
#include <algorithm>
#include <cstdio>
#include <memory>
#include <vector>

#include "bench/bench_util.h"
#include "engine/database.h"

using namespace locktune;

namespace {

constexpr TableId kTable = 1;
constexpr AppId kApp = 1;

// Drives the held lock-structure count of one application to `slots`.
// Always acquires fresh row ids (re-locking a held row consumes nothing).
void SetDemand(Database& db, int64_t slots) {
  static int64_t next_row = 0;
  if (slots < db.locks().HeldStructures(kApp)) {
    db.locks().ReleaseAll(kApp);
  }
  while (db.locks().HeldStructures(kApp) < slots) {
    const LockResult r =
        db.locks().Lock(kApp, RowResource(kTable, next_row++), LockMode::kS);
    if (r.outcome != LockOutcome::kGranted) break;
  }
}

struct Snapshot {
  const char* label;
  Bytes allocated;
  double alloc_pct;
  double used_pct;
  double overflow_pct;
  double lmo_mb;
};

Snapshot Snap(const char* label, Database& db) {
  const double dbmem = static_cast<double>(db.options().params.database_memory);
  return {label, db.locks().allocated_bytes(),
          100.0 * static_cast<double>(db.locks().allocated_bytes()) / dbmem,
          100.0 * static_cast<double>(db.locks().used_bytes()) / dbmem,
          100.0 * static_cast<double>(db.memory().overflow_bytes()) / dbmem,
          static_cast<double>(db.stmm()->lmo()) / (1024.0 * 1024.0)};
}

}  // namespace

int main() {
  bench::PrintHeader(
      "Figure 6", "Combined synchronous & asynchronous lock memory tuning",
      "512 MB database, overflow goal 10%, 30 s tuning interval; one "
      "application's lock demand is scripted through the §4 timeline.");

  DatabaseOptions o;
  o.params.database_memory = 512 * kMiB;
  std::unique_ptr<Database> db = Database::Open(o).value();
  db->set_connected_applications(1);
  const double pct_slots =
      static_cast<double>(o.params.database_memory) / 100.0 /
      static_cast<double>(kLockStructSize);
  const auto demand_pct = [&](double pct) {
    return static_cast<int64_t>(pct * pct_slots);
  };

  std::vector<Snapshot> timeline;
  // T0: steady at 2 % used; let the tuner settle first.
  SetDemand(*db, demand_pct(2.0));
  for (int i = 0; i < 4; ++i) db->Tick(30 * kSecond);
  timeline.push_back(Snap("T0 steady (2% used)", *db));

  // T1: surge to 3 % — contained within the allocated lock memory.
  SetDemand(*db, demand_pct(3.0));
  timeline.push_back(Snap("T1 surge to 3%", *db));

  // T2: next tuning interval restores the minFree objective.
  db->Tick(30 * kSecond);
  timeline.push_back(Snap("T2 tuning interval", *db));

  // T3: 267 % surge to 8 % — partially satisfied synchronously from
  // overflow memory.
  SetDemand(*db, demand_pct(8.0));
  timeline.push_back(Snap("T3 surge to 8%", *db));

  // T4: tuning interval reclaims overflow and re-establishes minFree.
  db->Tick(30 * kSecond);
  timeline.push_back(Snap("T4 tuning interval", *db));

  // T5: pressure returns to the steady level.
  SetDemand(*db, demand_pct(2.0));
  timeline.push_back(Snap("T5 slump to 2%", *db));

  // T6..Tn: slow decay, one interval at a time, until the shrink stops at
  // the maxFree goal (~22 intervals for 16 % → 5 % at 5 %/interval).
  for (int i = 0; i < 40; ++i) {
    const Bytes before = db->locks().allocated_bytes();
    db->Tick(30 * kSecond);
    timeline.push_back(Snap("decay interval", *db));
    if (db->locks().allocated_bytes() == before) break;  // settled
  }

  std::printf("%-24s %10s %9s %11s %8s\n", "point", "lock_alloc%",
              "lock_use%", "overflow%", "LMO(MB)");
  for (const Snapshot& s : timeline) {
    std::printf("%-24s %10.2f %9.2f %11.2f %8.2f\n", s.label, s.alloc_pct,
                s.used_pct, s.overflow_pct, s.lmo_mb);
  }

  std::printf("\nsummary:\n");
  const Snapshot& t0 = timeline[0];
  const Snapshot& t1 = timeline[1];
  const Snapshot& t2 = timeline[2];
  const Snapshot& t3 = timeline[3];
  const Snapshot& t4 = timeline[4];
  const Snapshot& tn = timeline.back();
  const auto free_pct = [](const Snapshot& s) {
    return 100.0 * (1.0 - s.used_pct / s.alloc_pct);
  };
  // Resizes move whole 128 KB blocks, so a free-space objective is met to
  // within one block of the allocation it applies to.
  const auto block_pct_of = [](Bytes bytes) {
    return 100.0 * static_cast<double>(kLockBlockSize) /
           static_cast<double>(bytes);
  };
  // Table 1's minFree, maxFree, overflow goal and delta_reduce: the
  // bounds hold the run to the paper's values, not to the configured ones.
  constexpr double kMinFreePct = 50.0;
  constexpr double kMaxFreePct = 60.0;
  constexpr double kOverflowGoalPct = 10.0;
  constexpr double kDeltaReduce = 0.05;
  bench::Claim("T0 roughly half of lock memory free", "~50% free",
               std::to_string(free_pct(t0)) + "% free",
               bench::Within(free_pct(t0), kMinFreePct,
                             kMinFreePct + block_pct_of(t0.allocated)));
  bench::Claim("T1 surge absorbed without overflow", "LMO = 0",
               t1.lmo_mb > 0 ? "LMO > 0" : "LMO = 0",
               bench::AtMost(t1.lmo_mb, 0.0));
  bench::Claim("T2 grows to restore minFree", ">= 2x used",
               bench::Ratio(t2.alloc_pct / t2.used_pct),
               bench::AtLeast(t2.alloc_pct / t2.used_pct,
                              100.0 / (100.0 - kMinFreePct)));
  // Synchronous growth takes at least one block from overflow.
  bench::Claim("T3 synchronous growth consumed overflow", "LMO > 0",
               t3.lmo_mb > 0 ? "LMO > 0" : "LMO = 0",
               bench::AtLeast(t3.lmo_mb, bench::kBlockMb));
  bench::Claim("T4 overflow reclaimed to its goal", "10%",
               std::to_string(t4.overflow_pct) + "%",
               bench::Within(t4.overflow_pct, kOverflowGoalPct,
                             kOverflowGoalPct +
                                 block_pct_of(o.params.database_memory)));
  bench::Claim("decay settles at maxFree free", "<= 60% free",
               std::to_string(free_pct(tn)) + "% free",
               bench::AtMost(free_pct(tn),
                             kMaxFreePct + block_pct_of(tn.allocated)));
  // Each decay interval cuts at most delta_reduce of the allocation plus
  // one block of rounding.
  int shrink_steps = 0;
  double largest_cut_pct = 0.0;
  double cut_beyond_delta = 0.0;  // bytes past delta_reduce, worst step
  for (size_t i = 6; i < timeline.size(); ++i) {  // the decay intervals
    const double level = static_cast<double>(timeline[i - 1].allocated);
    const double cut = level - static_cast<double>(timeline[i].allocated);
    if (cut <= 0) continue;
    ++shrink_steps;
    largest_cut_pct = std::max(largest_cut_pct, 100.0 * cut / level);
    cut_beyond_delta = std::max(cut_beyond_delta, cut - kDeltaReduce * level);
  }
  bench::Claim("decay is gradual (5%/interval)", "several intervals",
               std::to_string(shrink_steps) + " shrink steps, largest " +
                   std::to_string(largest_cut_pct) + "%",
               bench::AtMost(cut_beyond_delta,
                             static_cast<double>(kLockBlockSize)));
  return bench::ExitStatus();
}
