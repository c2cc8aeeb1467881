// Ablation — §6.1 future work: "application policies to bias when lock
// escalations are a preferred strategy over lock memory growth. Selective
// lock escalation would reduce memory requirements for locking providing
// more memory for caching and sorting etc."
//
// A nightly batch job scans millions of rows it will never touch again.
// Growing lock memory for it steals buffer-pool memory from the OLTP side;
// marking the batch application escalation-preferred trades its row locks
// for one table lock instead, keeping the lock heap (and the buffer pool)
// where the interactive load wants them.
#include <cstdio>
#include <memory>
#include <string>

#include "bench/bench_util.h"
#include "engine/database.h"
#include "workload/batch_workload.h"
#include "workload/oltp_workload.h"
#include "workload/scenario.h"

using namespace locktune;

namespace {

struct Run {
  double peak_lock_mb;
  double final_bp_mb;
  int64_t batch_commits;
  int64_t oltp_commits;
  int64_t preferred_escalations;
};

Run RunBatch(bool preferred) {
  DatabaseOptions o;
  o.params.database_memory = 512 * kMiB;
  std::unique_ptr<Database> db = Database::Open(o).value();
  OltpWorkload oltp(db->catalog(), OltpOptions{});
  BatchWorkload batch(db->catalog(), "tpch_orders", BatchOptions{});
  ClientTimeline oltp_tl, batch_tl;
  oltp_tl.workload = &oltp;
  oltp_tl.steps = {{0, 40}};
  batch_tl.workload = &batch;
  batch_tl.steps = {{kMinute, 1}};
  ScenarioOptions so;
  so.duration = 8 * kMinute;
  ScenarioRunner runner(db.get(), {oltp_tl, batch_tl}, so);
  const AppId batch_app = runner.store().id(40);
  if (preferred) db->locks().SetEscalationPreferred(batch_app, true);
  runner.Run();

  Run r;
  r.peak_lock_mb =
      runner.series().Get(ScenarioRunner::kLockAllocatedMb).MaxValue();
  r.final_bp_mb = static_cast<double>(db->buffer_pool_heap()->size()) /
                  (1024.0 * 1024.0);
  r.batch_commits = runner.store().stats(40).commits;
  int64_t oltp_commits = 0;
  for (uint32_t i = 0; i < 40; ++i) {
    oltp_commits += runner.store().stats(i).commits;
  }
  r.oltp_commits = oltp_commits;
  r.preferred_escalations = db->locks().stats().preferred_escalations;
  return r;
}

}  // namespace

int main() {
  bench::PrintHeader(
      "Ablation", "Selective escalation (6.1 future work)",
      "40 OLTP clients + a 500k-row batch update at t=60 s; 512 MB "
      "database; batch application marked escalation-preferred vs not.");

  const Run grow = RunBatch(false);
  const Run esc = RunBatch(true);

  std::printf("%-26s %14s %14s %14s %14s %12s\n", "batch policy",
              "peak_lock_MB", "buffer_pool_MB", "batch_commits",
              "oltp_commits", "pref_escal");
  std::printf("%-26s %14.2f %14.2f %14lld %14lld %12lld\n",
              "grow lock memory", grow.peak_lock_mb, grow.final_bp_mb,
              static_cast<long long>(grow.batch_commits),
              static_cast<long long>(grow.oltp_commits),
              static_cast<long long>(grow.preferred_escalations));
  std::printf("%-26s %14.2f %14.2f %14lld %14lld %12lld\n",
              "escalation-preferred", esc.peak_lock_mb, esc.final_bp_mb,
              static_cast<long long>(esc.batch_commits),
              static_cast<long long>(esc.oltp_commits),
              static_cast<long long>(esc.preferred_escalations));

  std::printf(
      "\nreading: growing for the batch job inflates the lock heap by tens "
      "of MB that the STMM takes from the buffer pool; the escalation-"
      "preferred batch runs under one X table lock on its private table, "
      "the lock heap stays at the OLTP working size, and the buffer pool "
      "keeps the memory — the trade 6.1 proposes.\n");

  std::printf("\nsummary:\n");
  bench::Claim("the batch escalates instead of growing", "escalation preferred",
               std::to_string(esc.preferred_escalations) +
                   " preferred escalations",
               bench::AtLeast(esc.preferred_escalations, 1));
  // An order of magnitude: the OLTP working size against the tens of MB
  // the batch's row locks take.
  bench::Claim("the lock heap stays at the OLTP size", "less lock memory",
               bench::Mb(esc.peak_lock_mb) + " vs " +
                   bench::Mb(grow.peak_lock_mb) + " peak",
               bench::AtMost(esc.peak_lock_mb / grow.peak_lock_mb, 0.1));
  // STMM hands most of the lock memory the batch did not take to the
  // buffer pool.
  const double saved_mb = grow.peak_lock_mb - esc.peak_lock_mb;
  const double bp_gain_mb = esc.final_bp_mb - grow.final_bp_mb;
  bench::Claim("the buffer pool keeps the memory", "more for caching",
               bench::Mb(bp_gain_mb) + " more",
               bench::AtLeast(bp_gain_mb / saved_mb, 0.5));
  // Same throughput: the escalated table is the batch's own.
  const double oltp_ratio = static_cast<double>(esc.oltp_commits) /
                            static_cast<double>(grow.oltp_commits);
  bench::Claim("OLTP throughput unchanged", "no concurrency lost",
               std::to_string(esc.oltp_commits) + " vs " +
                   std::to_string(grow.oltp_commits) + " commits",
               bench::Within(oltp_ratio, 1.0, 1.0));
  return bench::ExitStatus();
}
