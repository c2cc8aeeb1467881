// locktune_perfbench — runs one benchmark workload through the locktune
// library's public API (Database, ScenarioRunner, AppStore, LockManager,
// StmmController) and reports its metrics as one JSON object on stdout.
//
//   locktune_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                      [--spans-out PATH]
//
// --trace 0 repeats the untraced scenario (ScenarioRunner, one RunUntil call
// per tick so each tick's wall time is a sample) until S seconds are spent
// and reports the end-to-end metrics, their times scaled to a reference host
// speed (HostProbe below). --trace 1 alternates an untraced
// repetition with a traced one and reports the per-layer metrics; the
// traced repetition drives the same public calls as ScenarioRunner::RunUntil
// itself and times each call group from outside (TickTracer below).
// perfbench/run.py builds this binary, compares the outcome fingerprints
// with the stored references, and prints the result; perfbench/README.md
// explains the workloads and every metric.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/paranoid.h"
#include "common/random.h"
#include "common/units.h"
#include "engine/database.h"
#include "telemetry/lock_profiler.h"
#include "workload/app_store.h"
#include "workload/oltp_workload.h"
#include "workload/scenario.h"

using namespace locktune;

namespace {

using Clock = std::chrono::steady_clock;

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

double SecondsBetween(int64_t from_ns, int64_t to_ns) {
  return static_cast<double>(to_ns - from_ns) / 1e9;
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

// Nearest-rank percentile.
double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t rank = static_cast<size_t>(
      std::ceil(p / 100.0 * static_cast<double>(v.size())));
  return v[std::clamp<size_t>(rank, 1, v.size()) - 1];
}

// ---------------------------------------------------------------------------
// Host speed. On the shared virtual machine this benchmark was defined on,
// the same code ran up to 30 % faster or slower from one minute to the next
// while the process kept its CPU (README.md), far more than the changes the
// benchmark must resolve. So a fixed probe that does not touch the library
// runs between ticks, and every timed end-to-end metric is scaled by
// kReferenceProbeNs / (the probe's median time in that repetition): it is
// the time the repetition would have taken had the host run at the speed at
// which the probe takes kReferenceProbeNs (about this host's typical speed).
//
// The probe is eight independent xorshift streams making read-modify-writes
// into a 256 KiB table, so it competes for the same core resources as the
// lock path's hashing and pointer work. It is timed on its second pass so
// that the caches the library left behind do not leak into it. Its work
// must never change: its time is the unit every scaled number is in.
class HostProbe {
 public:
  // Runs the fixed work twice and returns the second pass's wall time.
  int64_t SampleNs() {
    Pass();
    const int64_t t0 = NowNs();
    Pass();
    return NowNs() - t0;
  }

 private:
  static constexpr int kStreams = 8;
  static constexpr int kRounds = 10'000;
  static constexpr size_t kSlots = size_t{1} << 15;  // 256 KiB

  void Pass() {
    uint64_t x[kStreams];
    for (int k = 0; k < kStreams; ++k) {
      x[k] = 0x9E3779B97F4A7C15ULL * static_cast<uint64_t>(k + 1);
    }
    for (int i = 0; i < kRounds; ++i) {
      for (uint64_t& v : x) {
        v ^= v << 13;
        v ^= v >> 7;
        v ^= v << 17;
        uint64_t& slot = table_[v & (kSlots - 1)];
        slot += v;
        if ((slot >> 5) & 1) v += 1;
      }
    }
  }

  std::vector<uint64_t> table_ = std::vector<uint64_t>(kSlots);
};

// The probe's time at the reference speed, in ns.
constexpr double kReferenceProbeNs = 200'000.0;

// Probe between ticks after at least this much tick time.
constexpr int64_t kProbeEveryNs = 20'000'000;

// ---------------------------------------------------------------------------
// Workloads. All are closed loops of OLTP clients: a client requests its next
// lock only after the previous one was granted and starts its next
// transaction a fixed think time after commit. README.md records why each
// one exists.

struct WorkloadSpec {
  DatabaseOptions database;
  OltpOptions oltp;
  // One client timeline per group; every group shares the one workload.
  std::vector<std::vector<std::pair<TimeMs, int>>> groups;
  ScenarioOptions runner;
};

bool MakeWorkload(const std::string& name, WorkloadSpec* spec) {
  WorkloadSpec s;
  if (name == "fig9_ramp") {
    // scenarios/fig9_ramp.conf: paper Figure 9, 1 -> 130 clients under
    // self-tuning lock memory from a 96-page LOCKLIST; its first 150 s (the
    // whole ramp and 60 s at 130 clients), so that a run holds enough
    // repetitions for steady medians.
    s.database.params.database_memory = 512 * kMiB;
    s.database.mode = TuningMode::kSelfTuning;
    s.database.params.initial_locklist_pages = 96;
    s.runner.duration = 150 * kSecond;
    s.groups = {{{0, 1},
                 {20 * kSecond, 20},
                 {40 * kSecond, 50},
                 {60 * kSecond, 90},
                 {90 * kSecond, 130}}};
  } else if (name == "escalation_storm") {
    // scenarios/static_escalation.conf run for 1200 s: paper Figures 7-8,
    // 130 clients on a static 100-page LOCKLIST with MAXLOCKS 10 %.
    s.database.params.database_memory = 512 * kMiB;
    s.database.mode = TuningMode::kStatic;
    s.database.static_locklist_pages = 100;
    s.database.static_maxlocks_percent = 10.0;
    s.runner.duration = 1200 * kSecond;
    s.groups = {{{0, 130}}};
  } else {
    return false;
  }
  *spec = std::move(s);
  return true;
}

// One instantiated scenario: the database and workload, plus the timelines
// that borrow the workload.
struct Instance {
  std::unique_ptr<Database> db;
  std::unique_ptr<OltpWorkload> oltp;
  std::vector<ClientTimeline> timelines;
};

Instance Instantiate(const WorkloadSpec& spec) {
  Instance inst;
  Result<std::unique_ptr<Database>> db = Database::Open(spec.database);
  if (!db.ok()) {
    std::fprintf(stderr, "locktune_perfbench: Database::Open: %s\n",
                 db.status().ToString().c_str());
    std::exit(2);
  }
  inst.db = std::move(db).value();
  inst.oltp = std::make_unique<OltpWorkload>(inst.db->catalog(), spec.oltp);
  for (const auto& steps : spec.groups) {
    ClientTimeline tl;
    tl.workload = inst.oltp.get();
    tl.steps = steps;
    inst.timelines.push_back(tl);
  }
  return inst;
}

// ---------------------------------------------------------------------------
// Outcome fingerprint: everything a --threads 1 run must reproduce exactly.

struct Outcome {
  int64_t commits = 0;
  int64_t deadlock_aborts = 0;
  int64_t timeout_aborts = 0;
  int64_t oom_aborts = 0;
  LockManagerStats locks;
  int64_t tuning_passes = 0;
  int64_t resize_passes = 0;
  Bytes lock_bytes = 0;
  Bytes lmoc = 0;
  uint64_t series_hash = 0;

  // Deadlock, timeout and lock-memory aborts over all transactions ended.
  double failed_txn_ratio() const {
    const int64_t failed = deadlock_aborts + timeout_aborts + oom_aborts;
    const int64_t ended = commits + failed;
    return ended > 0 ? static_cast<double>(failed) / static_cast<double>(ended)
                     : 0.0;
  }

  std::string Fingerprint() const {
    char buf[512];
    std::snprintf(
        buf, sizeof(buf),
        "commits=%lld deadlock_aborts=%lld timeout_aborts=%lld "
        "oom_aborts=%lld lock_requests=%lld grants=%lld waits=%lld "
        "escalations=%lld oom_failures=%lld tuning_passes=%lld "
        "lock_bytes=%lld lmoc=%lld series=%016llx",
        static_cast<long long>(commits),
        static_cast<long long>(deadlock_aborts),
        static_cast<long long>(timeout_aborts),
        static_cast<long long>(oom_aborts),
        static_cast<long long>(locks.lock_requests),
        static_cast<long long>(locks.grants),
        static_cast<long long>(locks.lock_waits),
        static_cast<long long>(locks.escalations),
        static_cast<long long>(locks.out_of_memory_failures),
        static_cast<long long>(tuning_passes),
        static_cast<long long>(lock_bytes), static_cast<long long>(lmoc),
        static_cast<unsigned long long>(series_hash));
    return buf;
  }
};

// FNV-1a over every sampled series: name, then each point's time and the
// bit pattern of its value.
uint64_t HashSeries(const TimeSeriesSet& series) {
  uint64_t h = 1469598103934665603ULL;
  const auto mix = [&h](const void* data, size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (size_t i = 0; i < n; ++i) {
      h ^= p[i];
      h *= 1099511628211ULL;
    }
  };
  for (const std::string& name : series.Names()) {
    mix(name.data(), name.size());
    for (const TimeSeries::Point& pt : series.Get(name).points()) {
      uint64_t bits = 0;
      std::memcpy(&bits, &pt.value, sizeof(bits));
      mix(&pt.time_ms, sizeof(pt.time_ms));
      mix(&bits, sizeof(bits));
    }
  }
  return h;
}

Outcome Capture(Database& db, const ApplicationStats& totals,
                const TimeSeriesSet& series) {
  Outcome o;
  o.commits = totals.commits;
  o.deadlock_aborts = totals.deadlock_aborts;
  o.timeout_aborts = totals.timeout_aborts;
  o.oom_aborts = totals.oom_aborts;
  o.locks = db.locks().stats();
  if (StmmController* stmm = db.stmm()) {
    o.tuning_passes = static_cast<int64_t>(stmm->history().size());
    for (const StmmIntervalRecord& r : stmm->history()) {
      if (r.action != LockTunerAction::kNone) ++o.resize_passes;
    }
    o.lmoc = stmm->lmoc();
  }
  o.lock_bytes = db.locks().allocated_bytes();
  o.series_hash = HashSeries(series);
  return o;
}

// ScenarioRunner keeps its totals private; mirror them into the same shape
// Capture reads.
Outcome CaptureRunner(ScenarioRunner& runner) {
  ApplicationStats totals;
  totals.commits = runner.total_commits();
  totals.deadlock_aborts = runner.total_deadlock_aborts();
  totals.timeout_aborts = runner.total_timeout_aborts();
  totals.oom_aborts = runner.total_oom_aborts();
  return Capture(*runner.db(), totals, runner.series());
}

// ---------------------------------------------------------------------------
// Untraced repetition: set-up and run timed separately; the run advances one
// RunUntil call per tick so every tick is a latency sample (at --threads 1,
// the same loop ScenarioRunner::Run executes).

struct RepResult {
  double setup_s = 0.0;  // wall time
  double run_s = 0.0;    // wall time of the RunUntil calls
  std::vector<double> tick_ms;
  // Host speed during the run: kReferenceProbeNs over the probe's median
  // time (README.md, "Host speed"). Set-up, the tenth of a second just
  // before the run, is scaled by it too.
  double speed = 0.0;
  Outcome outcome;
  std::string invariants;  // "ok" or the violated invariant
};

std::string Invariants(const Database& db) {
  const Status s = db.ValidateInvariants();
  return s.ok() ? "ok" : s.ToString();
}

RepResult RunUntraced(const WorkloadSpec& spec, HostProbe& probe) {
  RepResult r;
  const int64_t t0 = NowNs();
  Instance inst = Instantiate(spec);
  ScenarioRunner runner(inst.db.get(), inst.timelines, spec.runner);
  const int64_t t1 = NowNs();
  r.setup_s = SecondsBetween(t0, t1);
  r.tick_ms.reserve(
      static_cast<size_t>(spec.runner.duration / spec.runner.tick));
  Database& db = *inst.db;
  std::vector<double> probe_ns;
  int64_t run_ns = 0;
  int64_t since_probe_ns = 0;
  while (db.clock().now() < spec.runner.duration) {
    const int64_t a = NowNs();
    runner.RunUntil(db.clock().now() + spec.runner.tick);
    const int64_t tick_ns = NowNs() - a;
    r.tick_ms.push_back(static_cast<double>(tick_ns) / 1e6);
    run_ns += tick_ns;
    since_probe_ns += tick_ns;
    if (since_probe_ns >= kProbeEveryNs) {
      since_probe_ns = 0;
      probe_ns.push_back(static_cast<double>(probe.SampleNs()));
    }
  }
  probe_ns.push_back(static_cast<double>(probe.SampleNs()));
  r.run_s = static_cast<double>(run_ns) / 1e9;
  r.speed = kReferenceProbeNs / Median(probe_ns);
  r.outcome = CaptureRunner(runner);
  r.invariants = Invariants(*inst.db);
  return r;
}

// ---------------------------------------------------------------------------
// Traced repetition.

// Times the workload's request generation (NextTransaction / NextAccess):
// the part of the AppStore sweep that is not lock-manager work.
class TimedWorkload final : public Workload {
 public:
  explicit TimedWorkload(Workload* inner) : inner_(inner) {}

  TransactionProfile NextTransaction(Rng& rng) override {
    const int64_t t0 = NowNs();
    TransactionProfile p = inner_->NextTransaction(rng);
    ns_ += NowNs() - t0;
    return p;
  }
  RowAccess NextAccess(Rng& rng) override {
    const int64_t t0 = NowNs();
    RowAccess a = inner_->NextAccess(rng);
    ns_ += NowNs() - t0;
    return a;
  }

  int64_t TakeNs() { return std::exchange(ns_, 0); }

 private:
  Workload* inner_;
  int64_t ns_ = 0;
};

// Call groups of one tick, in the order ScenarioRunner::RunUntil makes them.
enum Span {
  kTimelines,      // AppStore::Connect / Disconnect per timeline
  kCollect,        // AppStore::CollectRunnable
  kSweep,          // AppStore::Tick for every runnable application
  kFinishSweep,    // AppStore::FinishSweep
  kDbTick,         // Database::Tick (STMM passes run inside)
  kDeadlockSweep,  // LockManager::DetectDeadlocks + ExpireTimedOutWaiters
  kAbort,          // AppStore::AbortForDeadlock / AbortForTimeout
  kSample,         // series sampling (reads only)
  kSpanCount,
};
constexpr const char* kSpanNames[kSpanCount] = {
    "timelines", "collect", "sweep", "finish_sweep",
    "db_tick",   "deadlock_sweep", "abort", "sample"};

// One tick span and its children, which share the tick index as their id.
// `draw_ns` is the part of the sweep spent in the workload's generators.
struct TickTrace {
  int64_t start_ns = 0;
  int64_t total_ns = 0;
  int64_t span_ns[kSpanCount] = {};
  int64_t draw_ns = 0;
  int64_t runnable = 0;
  bool deadlock_check = false;
  bool tuning_pass = false;
  Bytes lock_bytes = 0;

  int64_t self_ns() const {
    int64_t children = 0;
    for (int64_t ns : span_ns) children += ns;
    return total_ns - children;
  }
};

// A benchmark-side copy of ScenarioRunner::RunUntil's --threads 1 loop for
// fault-free scenarios: the same public calls on a fresh database, in the
// same order, with a span around each call group. It must reproduce the
// untraced run's outcome fingerprint exactly; run.py checks that it does.
// A stopgap until the runner records its own per-tick phase ledger.
class TickTracer {
 public:
  TickTracer(Database* db, std::vector<ClientTimeline> groups,
               const ScenarioOptions& options, TimedWorkload* draw)
      : db_(db),
        groups_(std::move(groups)),
        options_(options),
        draw_(draw),
        store_(db, options.tick) {
    next_sample_ = db->clock().now() + options_.sample_period;
    store_.set_stats_sink(&totals_);
    AppId next_id = 1;
    Rng seeder(options_.seed);
    for (const ClientTimeline& g : groups_) {
      group_start_.push_back(store_.size());
      for (int i = 0; i < g.MaxClients(); ++i) {
        store_.Add(next_id++, g.workload, seeder.Next());
      }
    }
    group_start_.push_back(store_.size());
  }

  void Run(std::vector<TickTrace>* ticks) {
    ticks->reserve(static_cast<size_t>(options_.duration / options_.tick));
    while (db_->clock().now() < options_.duration) {
      ticks->push_back(TickOnce());
    }
  }

  Outcome outcome() { return Capture(*db_, totals_, series_); }

 private:
  TickTrace TickOnce() {
    TickTrace t;
    t.start_ns = NowNs();
    const auto timed = [&t](Span span, auto&& calls) {
      const int64_t begin = NowNs();
      calls();
      t.span_ns[span] += NowNs() - begin;
    };
    const TimeMs now = db_->clock().now();
    const size_t passes_before =
        db_->stmm() != nullptr ? db_->stmm()->history().size() : 0;

    timed(kTimelines, [&] { ApplyTimelines(now); });
    const std::vector<uint32_t>* work = nullptr;
    timed(kCollect, [&] { work = &store_.CollectRunnable(); });
    t.runnable = static_cast<int64_t>(work->size());
    draw_->TakeNs();
    timed(kSweep, [&] {
      for (const uint32_t i : *work) store_.Tick(i);
    });
    t.draw_ns = draw_->TakeNs();
    timed(kFinishSweep, [&] { store_.FinishSweep(); });
    timed(kDbTick, [&] { db_->Tick(options_.tick); });
    if (now >= next_deadlock_check_) {
      t.deadlock_check = true;
      next_deadlock_check_ = now + options_.deadlock_check_period;
      std::vector<AppId> victims;
      timed(kDeadlockSweep, [&] { victims = db_->locks().DetectDeadlocks(); });
      timed(kAbort, [&] {
        for (const AppId v : victims) {
          store_.AbortForDeadlock(static_cast<uint32_t>(v - 1));
        }
      });
      timed(kDeadlockSweep,
            [&] { victims = db_->locks().ExpireTimedOutWaiters(); });
      timed(kAbort, [&] {
        for (const AppId v : victims) {
          store_.AbortForTimeout(static_cast<uint32_t>(v - 1));
        }
      });
    }
    if (db_->clock().now() >= next_sample_) {
      next_sample_ += options_.sample_period;
      timed(kSample, [&] { Sample(db_->clock().now()); });
    }
    t.tuning_pass = db_->stmm() != nullptr &&
                    db_->stmm()->history().size() > passes_before;
    t.lock_bytes = db_->locks().allocated_bytes();
    t.total_ns = NowNs() - t.start_ns;
    return t;
  }

  void ApplyTimelines(TimeMs now) {
    int total_active = 0;
    for (size_t g = 0; g < groups_.size(); ++g) {
      const int want = groups_[g].ActiveAt(now);
      total_active += want;
      for (size_t i = group_start_[g]; i < group_start_[g + 1]; ++i) {
        const bool should_connect =
            i - group_start_[g] < static_cast<size_t>(want);
        const uint32_t index = static_cast<uint32_t>(i);
        if (should_connect && !store_.connected(index)) {
          store_.Connect(index);
        } else if (!should_connect && store_.connected(index)) {
          store_.Disconnect(index);
        }
      }
    }
    db_->set_connected_applications(total_active);
  }

  // The series ScenarioRunner samples, with the same names and values.
  void Sample(TimeMs now) {
    constexpr double kBytesPerMb = 1024.0 * 1024.0;
    const LockManagerStats stats = db_->locks().stats();
    const double seconds =
        static_cast<double>(options_.sample_period) / 1000.0;
    const int64_t commits = totals_.commits;
    LockManager& locks = db_->locks();
    series_.Record(ScenarioRunner::kLockAllocatedMb, now,
                   static_cast<double>(locks.allocated_bytes()) / kBytesPerMb);
    series_.Record(ScenarioRunner::kLockUsedMb, now,
                   static_cast<double>(locks.used_bytes()) / kBytesPerMb);
    series_.Record(
        ScenarioRunner::kLmocMb, now,
        db_->stmm() != nullptr
            ? static_cast<double>(db_->stmm()->lmoc()) / kBytesPerMb
            : static_cast<double>(locks.allocated_bytes()) / kBytesPerMb);
    const double tps =
        static_cast<double>(commits - last_sample_commits_) / seconds;
    series_.Record(ScenarioRunner::kThroughputTps, now, tps);
    last_sample_commits_ = commits;
    series_.Record(ScenarioRunner::kEscalations, now,
                   static_cast<double>(stats.escalations));
    series_.Record(ScenarioRunner::kExclusiveEscalations, now,
                   static_cast<double>(stats.exclusive_escalations));
    series_.Record(ScenarioRunner::kLockWaits, now,
                   static_cast<double>(stats.lock_waits));
    series_.Record(ScenarioRunner::kMaxlocksPercent, now,
                   locks.CurrentMaxlocksPercent());
    series_.Record(ScenarioRunner::kOverflowMb, now,
                   static_cast<double>(db_->memory().overflow_bytes()) /
                       kBytesPerMb);
    series_.Record(ScenarioRunner::kClients, now,
                   static_cast<double>(db_->connected_applications()));
    series_.Record(ScenarioRunner::kBlockedApps, now,
                   static_cast<double>(locks.waiting_app_count()));
  }

  Database* db_;
  std::vector<ClientTimeline> groups_;
  ScenarioOptions options_;
  TimedWorkload* draw_;  // borrowed
  AppStore store_;
  std::vector<size_t> group_start_;
  ApplicationStats totals_;
  TimeSeriesSet series_;
  TimeMs next_sample_ = 0;
  TimeMs next_deadlock_check_ = 0;
  int64_t last_sample_commits_ = 0;
};

struct TracedResult {
  double run_s = 0.0;
  Outcome outcome;
  std::string invariants;
  std::vector<TickTrace> ticks;
};

TracedResult RunTraced(const WorkloadSpec& spec) {
  TracedResult r;
  Instance inst = Instantiate(spec);
  TimedWorkload timed(inst.oltp.get());
  for (ClientTimeline& tl : inst.timelines) tl.workload = &timed;
  TickTracer tracer(inst.db.get(), inst.timelines, spec.runner, &timed);
  const int64_t t0 = NowNs();
  tracer.Run(&r.ticks);
  r.run_s = SecondsBetween(t0, NowNs());
  r.outcome = tracer.outcome();
  r.invariants = Invariants(*inst.db);
  return r;
}

// ---------------------------------------------------------------------------
// Statistics and output.

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

// The process's peak resident set, VmHWM. Not getrusage's ru_maxrss: Linux
// carries that over exec from the parent, so under run.py it reported the
// Python interpreter's footprint whenever the workload's was smaller.
double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // in kB
    }
  }
  return 0.0;
}

using Metrics = std::vector<std::pair<std::string, double>>;

// Medians over the repetitions. The timed metrics are scaled to the
// reference host speed; the `*_wall_*` ones are the same times as measured,
// and `host_speed` is the median speed the probe saw. `first_rep_rss_mb` is
// the process's peak resident set when its first repetition ended: later
// repetitions reuse a heap whose layout depends on the previous ones, so the
// process-lifetime peak describes the run's history rather than the workload.
Metrics EndToEnd(const std::vector<RepResult>& reps, double first_rep_rss_mb) {
  std::vector<double> setup_s, run_s, req_per_s, tick_p50, tick_p99;
  std::vector<double> setup_wall_s, run_wall_s, tick_p50_wall, speed;
  std::vector<double> failed_ratio;
  for (const RepResult& r : reps) {
    const double p50 = Percentile(r.tick_ms, 50.0);
    setup_s.push_back(r.setup_s * r.speed);
    run_s.push_back(r.run_s * r.speed);
    req_per_s.push_back(Ratio(static_cast<double>(r.outcome.locks.lock_requests),
                              r.run_s * r.speed));
    tick_p50.push_back(p50 * r.speed);
    tick_p99.push_back(Percentile(r.tick_ms, 99.0) * r.speed);
    setup_wall_s.push_back(r.setup_s);
    run_wall_s.push_back(r.run_s);
    tick_p50_wall.push_back(p50);
    speed.push_back(r.speed);
    failed_ratio.push_back(r.outcome.failed_txn_ratio());
  }
  return {
      {"setup_s", Median(setup_s)},
      {"run_s", Median(run_s)},
      {"lock_requests_per_s", Median(req_per_s)},
      {"tick_p50_ms", Median(tick_p50)},
      {"peak_rss_mb", first_rep_rss_mb},
      {"tick_p99_ms", Median(tick_p99)},
      {"failed_txn_ratio", Median(failed_ratio)},
      {"setup_wall_s", Median(setup_wall_s)},
      {"run_wall_s", Median(run_wall_s)},
      {"tick_p50_wall_ms", Median(tick_p50_wall)},
      {"host_speed", Median(speed)},
  };
}

// Per-layer metrics of one traced repetition; `untraced_run_s` is the
// untraced repetition it was paired with.
Metrics PerLayer(const TracedResult& t, double untraced_run_s) {
  int64_t span_ns[kSpanCount] = {};
  int64_t draw_ns = 0;
  int64_t self_ns = 0;
  int64_t app_ticks = 0;
  int64_t deadlock_calls = 0;
  int64_t tuning_ns = 0;
  int64_t tuning_ticks = 0;
  Bytes lock_bytes_peak = 0;
  std::vector<double> runnable;
  for (const TickTrace& k : t.ticks) {
    for (int s = 0; s < kSpanCount; ++s) span_ns[s] += k.span_ns[s];
    draw_ns += k.draw_ns;
    self_ns += k.self_ns();
    app_ticks += k.runnable;
    runnable.push_back(static_cast<double>(k.runnable));
    if (k.deadlock_check) ++deadlock_calls;
    if (k.tuning_pass) {
      tuning_ns += k.span_ns[kDbTick];
      ++tuning_ticks;
    }
    lock_bytes_peak = std::max(lock_bytes_peak, k.lock_bytes);
  }
  const auto ms = [](int64_t ns) { return static_cast<double>(ns) / 1e6; };
  const LockManagerStats& lk = t.outcome.locks;
  const double requests = static_cast<double>(lk.lock_requests);
  return {
      {"workload.sweep_ms", ms(span_ns[kSweep])},
      {"workload.app_ticks", static_cast<double>(app_ticks)},
      {"workload.runnable_p50", Percentile(runnable, 50.0)},
      {"workload.draw_ms", ms(draw_ns)},
      {"workload.abort_ms", ms(span_ns[kAbort])},
      {"workload.failed_txn_ratio", t.outcome.failed_txn_ratio()},
      {"lock.request_ns",
       Ratio(static_cast<double>(span_ns[kSweep] - draw_ns), requests)},
      {"lock.requests", requests},
      {"lock.grant_ratio", Ratio(static_cast<double>(lk.grants), requests)},
      {"lock.waits", static_cast<double>(lk.lock_waits)},
      {"lock.escalations", static_cast<double>(lk.escalations)},
      {"lock.escalation_success_ratio",
       Ratio(static_cast<double>(lk.escalations),
             static_cast<double>(lk.escalation_attempts))},
      {"lock.deadlock_victims", static_cast<double>(lk.deadlock_victims)},
      {"lock.oom_failures", static_cast<double>(lk.out_of_memory_failures)},
      {"lock.deadlock_sweep_ms", ms(span_ns[kDeadlockSweep])},
      {"lock.deadlock_sweep_calls", static_cast<double>(deadlock_calls)},
      {"engine.tick_ms", ms(span_ns[kDbTick])},
      {"core.tuning_passes", static_cast<double>(t.outcome.tuning_passes)},
      {"core.resize_passes", static_cast<double>(t.outcome.resize_passes)},
      {"core.tuning_pass_us",
       Ratio(static_cast<double>(tuning_ns) / 1e3,
             static_cast<double>(tuning_ticks))},
      {"memory.sync_growth_blocks",
       static_cast<double>(lk.sync_growth_blocks)},
      {"memory.lock_mb_peak",
       static_cast<double>(lock_bytes_peak) / static_cast<double>(kMiB)},
      {"bench.tick_self_ms", ms(self_ns)},
      {"bench.trace_overhead", Ratio(t.run_s, untraced_run_s)},
  };
}

void WriteSpans(const std::string& path, const std::vector<TickTrace>& ticks) {
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "locktune_perfbench: cannot write %s\n",
                 path.c_str());
    std::exit(2);
  }
  out << "tick,start_us,tick_ns";
  for (const char* name : kSpanNames) out << ',' << name << "_ns";
  out << ",draw_ns,self_ns,runnable,deadlock_check,tuning_pass\n";
  const int64_t origin = ticks.empty() ? 0 : ticks.front().start_ns;
  for (size_t i = 0; i < ticks.size(); ++i) {
    const TickTrace& k = ticks[i];
    out << i << ',' << (k.start_ns - origin) / 1000 << ',' << k.total_ns;
    for (const int64_t ns : k.span_ns) out << ',' << ns;
    out << ',' << k.draw_ns << ',' << k.self_ns() << ',' << k.runnable << ','
        << (k.deadlock_check ? 1 : 0) << ',' << (k.tuning_pass ? 1 : 0)
        << '\n';
  }
}

std::string Sanitizer() {
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  return "on";
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(undefined_behavior_sanitizer)
  return "on";
#else
  return "off";
#endif
#else
  return "off";
#endif
}

int Usage() {
  std::fprintf(stderr,
               "usage: locktune_perfbench --workload NAME --seed N "
               "--seconds S --trace 0|1 [--spans-out PATH]\n"
               "workloads: fig9_ramp escalation_storm\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  std::string spans_out;
  uint64_t seed = 0;
  double seconds = 0.0;
  int trace = -1;
  bool have_seed = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--seed") {
      seed = std::strtoull(value, &end, 10);
      have_seed = end != value && *end == '\0';
    } else if (flag == "--seconds") {
      seconds = std::strtod(value, &end);
      if (end == value || *end != '\0') seconds = 0.0;
    } else if (flag == "--trace") {
      trace = std::strcmp(value, "0") == 0   ? 0
              : std::strcmp(value, "1") == 0 ? 1
                                             : -1;
    } else if (flag == "--spans-out") {
      spans_out = value;
    } else {
      return Usage();
    }
  }
  if (argc % 2 != 1 || !have_seed || seconds <= 0.0 || trace < 0) {
    return Usage();
  }
  WorkloadSpec spec;
  if (!MakeWorkload(workload, &spec)) return Usage();
  // docs/PERFORMANCE.md §1: never measure paranoid or sanitizer builds.
  if (ParanoidEnabled()) {
    std::fprintf(stderr,
                 "locktune_perfbench: refusing to measure with paranoid "
                 "validation on (LOCKTUNE_PARANOID build or environment)\n");
    return 3;
  }
  if (Sanitizer() == "on") {
    std::fprintf(stderr,
                 "locktune_perfbench: refusing to measure a sanitizer "
                 "build\n");
    return 3;
  }

  // Repetitions run back to back until the next one would overrun the
  // budget; there is always at least one. Repetition k runs scenario seed
  // `seed + k * kRepSeedStride`, so a run's medians average over several
  // inputs: at one seed, fig9_ramp's lock-request count moves by up to
  // ±12 % from the next seed's. Repetition 0 runs `seed` itself.
  constexpr uint64_t kRepSeedStride = 1'000'003;
  const int64_t start = NowNs();
  const int64_t budget_ns = static_cast<int64_t>(seconds * 1e9);
  HostProbe probe;
  std::vector<RepResult> reps;
  std::vector<TracedResult> traced;
  double first_rep_rss_mb = 0.0;
  int64_t ticks = 0;
  for (;;) {
    const int64_t rep_start = NowNs();
    WorkloadSpec rep_spec = spec;
    rep_spec.runner.seed = seed + reps.size() * kRepSeedStride;
    reps.push_back(RunUntraced(rep_spec, probe));
    if (reps.size() == 1) first_rep_rss_mb = PeakRssMb();
    ticks += spec.runner.duration / spec.runner.tick;
    if (trace == 1) {
      traced.push_back(RunTraced(rep_spec));
      ticks += spec.runner.duration / spec.runner.tick;
    }
    const int64_t now = NowNs();
    if (now + (now - rep_start) - start > budget_ns) break;
  }
  Metrics metrics;
  if (trace == 0) {
    metrics = EndToEnd(reps, first_rep_rss_mb);
  } else {
    // Per-layer metrics are medians over the traced repetitions.
    std::map<std::string, std::vector<double>> samples;
    std::vector<std::string> order;
    for (size_t i = 0; i < traced.size(); ++i) {
      for (const auto& [name, value] : PerLayer(traced[i], reps[i].run_s)) {
        if (samples.find(name) == samples.end()) order.push_back(name);
        samples[name].push_back(value);
      }
    }
    for (const std::string& name : order) {
      metrics.emplace_back(name, Median(samples[name]));
    }
    if (!spans_out.empty() && !traced.empty()) {
      WriteSpans(spans_out, traced.back().ticks);
    }
  }

  std::string out = "{\"workload\":" + JsonString(workload) +
                    ",\"seed\":" + std::to_string(seed) +
                    ",\"trace\":" + std::to_string(trace) +
                    ",\"reps\":" + std::to_string(reps.size()) +
                    ",\"ticks\":" + std::to_string(ticks) +
                    ",\"tick_samples\":";
  size_t tick_samples = 0;
  for (const RepResult& r : reps) tick_samples += r.tick_ms.size();
  out += std::to_string(trace == 0 ? tick_samples : 0);
  out += ",\"build\":{\"type\":" + JsonString(PERFBENCH_BUILD_TYPE) +
         ",\"cxx_flags\":" + JsonString(PERFBENCH_CXX_FLAGS) +
         ",\"compiler\":" + JsonString(__VERSION__) +
         ",\"LOCKTUNE_PROFILE\":" + (ProfileCompiledIn() ? "true" : "false") +
         ",\"paranoid\":false,\"sanitizer\":" + JsonString(Sanitizer()) + "}";
  const auto outcomes = [&](const auto& runs) {
    std::string s = "[";
    for (size_t i = 0; i < runs.size(); ++i) {
      if (i > 0) s += ',';
      s += "{\"seed\":" + std::to_string(seed + i * kRepSeedStride) +
           ",\"fingerprint\":" + JsonString(runs[i].outcome.Fingerprint()) +
           ",\"invariants\":" + JsonString(runs[i].invariants) +
           ",\"run_s\":" + JsonNumber(runs[i].run_s) + "}";
    }
    return s + "]";
  };
  out += ",\"untraced\":" + outcomes(reps);

  out += ",\"traced\":" + outcomes(traced);
  out += ",\"metrics\":{";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ',';
    out += JsonString(metrics[i].first) + ":" + JsonNumber(metrics[i].second);
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  return 0;
}
