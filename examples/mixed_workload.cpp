// Mixed OLTP + decision-support workload (the situation the paper's
// introduction motivates): a reporting query with massive row-locking
// requirements lands in the middle of a steady transactional load.
//
// The self-tuning lock memory absorbs the surge — watch the allocation
// climb within seconds of the injection, the adaptive
// lockPercentPerApplication stay permissive, and the OLTP side keep
// committing with zero exclusive escalations.
#include <cstdio>

#include "engine/database.h"
#include "workload/oltp_workload.h"
#include "workload/scan_workload.h"
#include "workload/scenario.h"

using namespace locktune;

int main() {
  DatabaseOptions options;
  options.params.database_memory = 512 * kMiB;
  Result<std::unique_ptr<Database>> db = Database::Open(options);
  if (!db.ok()) {
    std::fprintf(stderr, "open failed: %s\n", db.status().ToString().c_str());
    return 1;
  }
  Database& database = *db.value();

  // 40 OLTP clients from the start; one reporting query at t = 2 min.
  OltpWorkload oltp(database.catalog(), OltpOptions{});
  ScanOptions dss_options = ScanDefaults(ScanPreset::kDss);
  dss_options.total_locks = 400'000;       // 25 MB of lock structures
  dss_options.locks_per_tick = 2500;       // 25 000 locks/s
  dss_options.hold_time = 3 * kMinute;     // the report keeps running
  ScanWorkload dss(database.catalog(), dss_options);

  ClientTimeline oltp_clients, report;
  oltp_clients.workload = &oltp;
  oltp_clients.steps = {{0, 40}};
  report.workload = &dss;
  report.steps = {{2 * kMinute, 1}};

  ScenarioOptions scenario;
  scenario.duration = 8 * kMinute;
  ScenarioRunner runner(&database, {oltp_clients, report}, scenario);
  runner.Run();

  std::printf("t(s)  lock_alloc(MB)  lock_used(MB)  tps  maxlocks%%\n");
  const TimeSeriesSet& s = runner.series();
  for (size_t i = 0; i < s.Get(ScenarioRunner::kLockAllocatedMb).size();
       i += 20) {
    std::printf(
        "%4lld %13.2f %14.2f %5.0f %8.1f\n",
        static_cast<long long>(
            s.Get(ScenarioRunner::kLockAllocatedMb).points()[i].time_ms /
            1000),
        s.Get(ScenarioRunner::kLockAllocatedMb).points()[i].value,
        s.Get(ScenarioRunner::kLockUsedMb).points()[i].value,
        s.Get(ScenarioRunner::kThroughputTps).points()[i].value,
        s.Get(ScenarioRunner::kMaxlocksPercent).points()[i].value);
  }

  const LockManagerStats& stats = database.locks().stats();
  std::printf("\nexclusive escalations: %lld (the report was absorbed)\n",
              static_cast<long long>(stats.exclusive_escalations));
  std::printf("lock memory errors:    %lld\n",
              static_cast<long long>(runner.total_oom_aborts()));
  std::printf("OLTP commits:          %lld\n",
              static_cast<long long>(runner.total_commits()));
  return 0;
}
