#include "engine/database.h"

#include "common/check.h"
#include "common/paranoid.h"

namespace locktune {

namespace {

// Initial PMC layout, as fractions of databaseMemory. The exact split does
// not matter: STMM redistributes from the first tuning pass on. What matters
// is that PMCs own most of memory (so lock growth must displace them) and
// that an overflow reserve exists.
constexpr double kBufferPoolInitial = 0.55;
constexpr double kSortInitial = 0.12;
constexpr double kPackageCacheInitial = 0.08;
constexpr double kBufferPoolMin = 0.10;
constexpr double kPmcMin = 0.01;

// SQL Server 2005 (§2.3): initial memory for 2500 locks, growth capped at
// 60 % of total server memory.
constexpr int64_t kSqlServerInitialLocks = 2500;
constexpr double kSqlServerMaxFraction = 0.60;

}  // namespace

Database::Database(const DatabaseOptions& opts) : options_(opts) {}

Result<std::unique_ptr<Database>> Database::Open(const DatabaseOptions& opts) {
  if (Status s = opts.params.Validate(); !s.ok()) return s;
  if (opts.static_locklist_pages <= 0) {
    return Status::InvalidArgument("static_locklist_pages must be positive");
  }
  if (opts.static_maxlocks_percent <= 0.0 ||
      opts.static_maxlocks_percent > 100.0) {
    return Status::InvalidArgument("static_maxlocks_percent outside (0,100]");
  }
  std::unique_ptr<Database> db(new Database(opts));
  if (Status s = db->Init(); !s.ok()) return s;
  return db;
}

Status Database::Init() {
  const TuningParams& p = options_.params;
  catalog_ = Catalog::TpccTpch(options_.catalog_scale);
  memory_ =
      std::make_unique<DatabaseMemory>(p.database_memory, p.OverflowGoal());

  if (!options_.fault.empty()) {
    ledger_ = std::make_unique<DegradationLedger>(&clock_);
    fault_ = std::make_unique<FaultPlan>(options_.fault, &clock_);
    fault_->set_ledger(ledger_.get());
    memory_->set_fault_plan(fault_.get());
  }

  const auto frac = [&](double f) {
    return RoundToBlocks(
        static_cast<Bytes>(f * static_cast<double>(p.database_memory)));
  };

  // Performance consumers.
  Result<MemoryHeap*> bp = memory_->RegisterHeap(
      "buffer_pool", ConsumerClass::kPerformance, frac(kBufferPoolInitial),
      frac(kBufferPoolMin), p.database_memory);
  if (!bp.ok()) return bp.status();
  buffer_pool_ = bp.value();
  Result<MemoryHeap*> sort = memory_->RegisterHeap(
      "sort", ConsumerClass::kPerformance, frac(kSortInitial), frac(kPmcMin),
      p.database_memory);
  if (!sort.ok()) return sort.status();
  sort_ = sort.value();
  Result<MemoryHeap*> pkg = memory_->RegisterHeap(
      "package_cache", ConsumerClass::kPerformance, frac(kPackageCacheInitial),
      frac(kPmcMin), p.database_memory);
  if (!pkg.ok()) return pkg.status();
  package_cache_ = pkg.value();
  // The buffer pool benefits most from extra memory, then sort, then the
  // package cache — enough structure for donor/recipient selection.
  pmcs_.AddConsumer(buffer_pool_, 3.0e18);
  pmcs_.AddConsumer(sort_, 6.0e17);
  pmcs_.AddConsumer(package_cache_, 2.0e17);

  // Lock memory heap + lock manager, per tuning mode.
  Bytes initial_lock = 0;
  Bytes lock_heap_max = 0;
  Bytes manager_max = 0;
  switch (options_.mode) {
    case TuningMode::kSelfTuning:
      initial_lock = p.InitialLockMemory();
      lock_heap_max = p.MaxLockMemory();
      manager_max = p.MaxLockMemory();
      policy_ = std::make_unique<AdaptiveMaxlocksPolicy>(MaxlocksCurve(
          p.maxlocks_p, p.maxlocks_exponent, p.maxlocks_refresh_period));
      break;
    case TuningMode::kStatic:
      initial_lock =
          RoundUpToBlocks(PagesToBytes(options_.static_locklist_pages));
      lock_heap_max = initial_lock;
      manager_max = initial_lock;
      policy_ = std::make_unique<FixedMaxlocksPolicy>(
          options_.static_maxlocks_percent);
      break;
    case TuningMode::kSqlServer:
      initial_lock = RoundUpToBlocks(kSqlServerInitialLocks * kLockStructSize);
      lock_heap_max = static_cast<Bytes>(
          kSqlServerMaxFraction * static_cast<double>(p.database_memory));
      manager_max = lock_heap_max;
      policy_ = std::make_unique<SqlServerLockPolicy>();
      break;
  }
  Result<MemoryHeap*> lock_heap =
      memory_->RegisterHeap("locklist", ConsumerClass::kFunctional,
                            initial_lock, kLockBlockSize, lock_heap_max);
  if (!lock_heap.ok()) return lock_heap.status();
  lock_heap_ = lock_heap.value();

  // A deny_heap window on a heap that does not exist would never fire,
  // silently turning a chaos run fault-free.
  for (const FaultWindowSpec& w : options_.fault.windows) {
    if (w.kind != FaultKind::kDenyHeapGrowth || w.heap == "*" ||
        memory_->FindHeap(w.heap) != nullptr) {
      continue;
    }
    std::string valid;
    for (const std::unique_ptr<MemoryHeap>& heap : memory_->heaps()) {
      valid += heap->name() + ", ";
    }
    return Status::InvalidArgument("deny_heap: unknown heap '" + w.heap +
                                   "' (valid: " + valid + "*)");
  }

  LockManagerOptions lmo;
  lmo.initial_blocks = BytesToBlocks(initial_lock);
  lmo.max_lock_memory = manager_max;
  lmo.database_memory = p.database_memory;
  lmo.policy = policy_.get();
  lmo.clock = &clock_;
  lmo.lock_timeout = options_.lock_timeout;
  switch (options_.mode) {
    case TuningMode::kSelfTuning:
      // Synchronous growth lands in the STMM controller (overflow memory,
      // LMOmax and maxLockMemory checks).
      lmo.grow_callback = [this](int64_t blocks) {
        return stmm_ != nullptr && stmm_->GrantSynchronousGrowth(blocks);
      };
      break;
    case TuningMode::kStatic:
      lmo.grow_callback = nullptr;  // fixed LOCKLIST never grows
      break;
    case TuningMode::kSqlServer:
      lmo.grow_callback = [this](int64_t blocks) {
        return GrowSqlServerStyle(blocks);
      };
      break;
  }
  locks_ = std::make_unique<LockManager>(std::move(lmo));

  if (options_.mode == TuningMode::kSelfTuning) {
    stmm_ = std::make_unique<StmmController>(
        p, &clock_, memory_.get(), lock_heap_, locks_.get(), &pmcs_,
        [this] { return connected_applications_; });
    if (ledger_ != nullptr) stmm_->set_degradation_ledger(ledger_.get());
  }

  locks_->RegisterMetrics(&metrics_);
  memory_->RegisterMetrics(&metrics_);
  if (stmm_ != nullptr) stmm_->RegisterMetrics(&metrics_);
  // Gated on the fault plan so fault-free metric exports are byte-identical.
  if (ledger_ != nullptr) ledger_->RegisterMetrics(&metrics_);
  return Status::Ok();
}

void Database::set_trace_sink(TraceSink* sink) {
  trace_sink_ = sink;
  locks_->set_trace_sink(sink);
  if (stmm_ != nullptr) stmm_->set_trace_sink(sink);
  if (ledger_ != nullptr) ledger_->set_trace_sink(sink);
}

bool Database::GrowSqlServerStyle(int64_t blocks) {
  const Bytes delta = BlocksToBytes(blocks);
  if (lock_heap_->size() + delta > lock_heap_->max_size()) return false;
  if (memory_->overflow_bytes() < delta) {
    pmcs_.TakeFrom(*memory_, delta - memory_->overflow_bytes());
  }
  return memory_->GrowHeap(lock_heap_, delta).ok();
}

void Database::Tick(DurationMs dt) {
  clock_.Advance(dt);
  if (stmm_ != nullptr) stmm_->Poll();
  if (ParanoidEnabled()) LOCKTUNE_CHECK_OK(ValidateInvariants());
}

Status Database::ValidateInvariants() const {
  if (Status s = locks_->CheckConsistency(); !s.ok()) return s;
  if (Status s = memory_->CheckConsistency(); !s.ok()) return s;
  if (stmm_ != nullptr) {
    if (Status s = stmm_->CheckConsistency(); !s.ok()) return s;
  }
  if (ledger_ != nullptr) {
    if (Status s = ledger_->CheckConsistency(); !s.ok()) return s;
  }
  return Status::Ok();
}

}  // namespace locktune
