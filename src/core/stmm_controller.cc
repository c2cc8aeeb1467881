#include "core/stmm_controller.h"

#include <algorithm>
#include <cstdlib>

#include "common/check.h"
#include "common/logging.h"
#include "core/stmm_report.h"
#include "fault/degradation_ledger.h"
#include "telemetry/chrome_trace.h"
#include "telemetry/flight_recorder.h"
#include "telemetry/metrics.h"
#include "telemetry/trace.h"

namespace locktune {

StmmController::StmmController(const TuningParams& params,
                               const SimClock* clock, DatabaseMemory* memory,
                               MemoryHeap* lock_heap, LockManager* locks,
                               PmcModel* pmcs,
                               std::function<int()> num_applications)
    : params_(params),
      clock_(clock),
      memory_(memory),
      lock_heap_(lock_heap),
      locks_(locks),
      pmcs_(pmcs),
      num_applications_(std::move(num_applications)),
      tuner_(params),
      timer_(clock, params.tuning_interval),
      lmoc_(params.InitialLockMemory()) {
  LOCKTUNE_CHECK(params.Validate().ok());
  lmoc_ = lock_heap_->size();
}

void StmmController::Poll() {
  const int due = timer_.DuePeriods();
  for (int i = 0; i < due; ++i) RunTuningPass();
}

bool StmmController::GrantSynchronousGrowth(int64_t blocks) {
  const Bytes delta = BlocksToBytes(blocks);
  if (lock_heap_->size() + delta > params_.MaxLockMemory()) {
    growth_constrained_ = true;
    return false;
  }
  // LMOmax = C1 · (database overflow memory including LMO), §3.2.
  const Bytes lmo_max = static_cast<Bytes>(
      params_.overflow_cap_c1 *
      static_cast<double>(memory_->overflow_bytes() + lmo_));
  if (lmo_ + delta > lmo_max) {
    growth_constrained_ = true;
    return false;
  }
  if (Status s = memory_->GrowHeap(lock_heap_, delta); !s.ok()) {
    // Cold-start borrow: before the first tuning pass the locklist is still
    // the raw initial_locklist_pages allocation — it has never been sized
    // against the actual population, so an injected denial here can strand
    // one-lock transactions behind an escalation convoy (the fuzzer's
    // 6-line repro in docs/FUZZING.md). Until the first pass, take the LMO
    // debt anyway, bounded by the minimum the first pass would configure;
    // GrowHeapUnfaulted still enforces the real overflow/max bounds, so a
    // genuine exhaustion (not an injected one) stays a denial.
    if (history_.empty()) {
      const Bytes borrow_cap = params_.MinLockMemory(num_applications_());
      if (cold_borrow_ + delta <= borrow_cap &&
          memory_->GrowHeapUnfaulted(lock_heap_, delta).ok()) {
        cold_borrow_ += delta;
        lmo_ += delta;
        if (ledger_ != nullptr) {
          ledger_->RecordAbsorbed("cold_lock_borrow", s.message());
        }
        return true;
      }
    }
    growth_constrained_ = true;
    // The lock manager falls back to escalation; record the absorbed
    // denial so the degradation ledger can pair it with the recovery.
    if (ledger_ != nullptr) {
      ledger_->RecordAbsorbed("sync_lock_growth", s.message());
    }
    return false;
  }
  lmo_ += delta;
  return true;
}

void StmmController::RunTuningPass() {
  const int napps = num_applications_();

  // §3.2: the minimum is re-evaluated at each tuning interval.
  const Bytes min_lock = params_.MinLockMemory(napps);
  lock_heap_->set_min_size(std::min(min_lock, lock_heap_->size()));

  const LockManagerStats& stats = locks_->stats();
  const int64_t esc_delta = stats.escalations - last_escalations_;
  last_escalations_ = stats.escalations;

  LockTunerInputs inputs;
  inputs.allocated = locks_->allocated_bytes();
  inputs.used = locks_->used_bytes();
  inputs.escalations_in_interval = esc_delta;
  inputs.growth_was_constrained = growth_constrained_;
  inputs.num_applications = napps;
  LOCKTUNE_CHECK(inputs.allocated == lock_heap_->size());

  const LockTunerDecision decision = tuner_.Tune(inputs);
  const bool was_constrained = growth_constrained_;

  if (decision.target > inputs.allocated) {
    if (grow_holdoff_ > 0) {
      // Backoff-on-denial: a recent pass had its grow refused outright by
      // the memory set. Re-requesting the same grow every interval would
      // hammer a denying allocator, so the controller sits out a
      // geometrically growing number of passes instead.
      --grow_holdoff_;
      if (trace_ != nullptr) {
        TraceRecord backoff(clock_->now(), "grow_backoff");
        backoff.Str("action", "suppress")
            .Int("denial_streak", grow_denial_streak_)
            .Int("holdoff_remaining", grow_holdoff_)
            .Int("wanted_bytes", decision.target - inputs.allocated);
        trace_->Append(backoff);
      }
    } else {
      grow_denied_ = false;
      const Bytes grown = GrowLockMemory(decision.target - inputs.allocated);
      if (grow_denied_) {
        grow_denial_streak_ = std::min(grow_denial_streak_ + 1, 16);
        grow_holdoff_ =
            std::min(8, 1 << std::min(grow_denial_streak_, 3));
        if (trace_ != nullptr) {
          TraceRecord backoff(clock_->now(), "grow_backoff");
          backoff.Str("action", "engage")
              .Int("denial_streak", grow_denial_streak_)
              .Int("holdoff_passes", grow_holdoff_)
              .Int("wanted_bytes", decision.target - inputs.allocated);
          trace_->Append(backoff);
        }
      } else if (grown > 0 && grow_denial_streak_ > 0) {
        grow_denial_streak_ = 0;
        if (ledger_ != nullptr) {
          ledger_->RecordRecovery("async_grow", "asynchronous growth resumed");
        }
        if (trace_ != nullptr) {
          TraceRecord backoff(clock_->now(), "grow_backoff");
          backoff.Str("action", "recover").Int("grown_bytes", grown);
          trace_->Append(backoff);
        }
      }
    }
  } else if (decision.target < inputs.allocated) {
    ShrinkLockMemory(inputs.allocated - decision.target);
  }

  RestoreOverflowGoal();

  // Externalize the new configuration; memory borrowed synchronously is
  // regularized into the configured size.
  lmoc_ = decision.target;
  lmo_ = std::max<Bytes>(0, lock_heap_->size() - lmoc_);
  growth_constrained_ = false;

  AdaptInterval(decision.action);

  StmmIntervalRecord rec;
  rec.time = clock_->now();
  rec.lock_allocated = lock_heap_->size();
  rec.lock_used = locks_->used_bytes();
  rec.lmoc = lmoc_;
  rec.overflow = memory_->overflow_bytes();
  rec.maxlocks_percent = locks_->CurrentMaxlocksPercent();
  rec.escalations_delta = esc_delta;
  rec.action = decision.action;
  rec.next_interval = timer_.period();
  history_.push_back(rec);

  // Flight-recorder + trace-timeline copies of the pass: a = action, b =
  // resulting configured size, so a post-mortem dump shows what the tuner
  // was doing when an invariant tripped.
  FlightRecord(FlightEventKind::kTunerPass, rec.time, 0,
               static_cast<int64_t>(decision.action), lmoc_);
  if (ChromeTraceCollector* chrome = GlobalTraceCollector()) {
    chrome->Instant(
        "stmm_pass: " + std::string(TunerActionName(decision.action)),
        kTracePidSim, kTraceTidStmm, SimTimeToTraceUs(rec.time),
        "{\"pass\":" + std::to_string(history_.size()) +
            ",\"lmoc_bytes\":" + std::to_string(lmoc_) +
            ",\"escalations_delta\":" + std::to_string(esc_delta) + "}");
  }

  LOCKTUNE_LOG(kDebug) << "tuning pass " << history_.size() << ": "
                       << TunerActionName(decision.action) << " — "
                       << ExplainDecision(inputs, decision, params_);

  if (Counter* c = action_passes_[static_cast<size_t>(decision.action)]) {
    c->Increment();
  }
  if (resize_hist_ != nullptr) {
    resize_hist_->Observe(static_cast<double>(
        std::abs(rec.lock_allocated - inputs.allocated)));
  }
  if (trace_ != nullptr) {
    const double free_frac =
        inputs.allocated > 0
            ? static_cast<double>(inputs.allocated - inputs.used) /
                  static_cast<double>(inputs.allocated)
            : 0.0;
    // One record per pass: the inputs the tuner saw, the decision it made,
    // the state the pass left behind, and the narrative why.
    TraceRecord trace_rec(clock_->now(), "tuning_pass");
    trace_rec.Int("pass", static_cast<int64_t>(history_.size()))
        .Str("action", TunerActionName(decision.action))
        .Int("allocated_before_bytes", inputs.allocated)
        .Int("used_bytes", inputs.used)
        .Real("free_fraction", free_frac)
        .Int("escalations_delta", esc_delta)
        .Bool("growth_constrained", was_constrained)
        .Int("num_applications", inputs.num_applications)
        .Int("target_bytes", decision.target)
        .Int("allocated_after_bytes", rec.lock_allocated)
        .Int("lmoc_bytes", lmoc_)
        .Int("lmo_bytes", lmo_)
        .Int("overflow_bytes", rec.overflow)
        .Real("maxlocks_percent", rec.maxlocks_percent)
        .Int("next_interval_ms", rec.next_interval)
        .Str("why", ExplainDecision(inputs, decision, params_));
    trace_->Append(trace_rec);
  }
}

Status StmmController::CheckConsistency() const {
  // The same bytes accounted twice: the heap view (DatabaseMemory) and the
  // block-list view (LockManager) must agree at all times.
  if (lock_heap_->size() != locks_->allocated_bytes()) {
    return Status::Internal(
        "lock heap size and lock manager allocation disagree");
  }
  if (lock_heap_->size() % kLockBlockSize != 0) {
    return Status::Internal("lock heap size is not block-granular");
  }
  if (lmo_ < 0 || lmoc_ < 0) {
    return Status::Internal("negative LMO/LMOC accounting");
  }
  // The heap cannot exceed maxLockMemory, so neither may its configuration.
  if (lmoc_ > params_.MaxLockMemory()) {
    return Status::Internal("LMOC exceeds maxLockMemory");
  }
  // RunTuningPass leaves lmo_ == max(0, size - lmoc_); synchronous growth
  // bumps size and lmo_ together, so the debt always covers the part of the
  // allocation beyond the externalized configuration.
  if (lmoc_ + lmo_ < lock_heap_->size()) {
    return Status::Internal("LMOC + LMO do not cover the lock allocation");
  }
  return Status::Ok();
}

void StmmController::RegisterMetrics(MetricsRegistry* registry) {
  registry->AddCallbackCounter(
      "locktune_stmm_passes_total", "asynchronous tuning passes run",
      [this] { return static_cast<int64_t>(history_.size()); });
  for (int a = 0; a < 5; ++a) {
    const LockTunerAction action = static_cast<LockTunerAction>(a);
    action_passes_[a] = registry->AddCounter(
        std::string("locktune_stmm_pass_actions_total{action=\"") +
            std::string(TunerActionName(action)) + "\"}",
        "tuning passes by chosen action");
  }
  registry->AddCallbackGauge(
      "locktune_stmm_lmoc_bytes", "externalized on-disk lock memory config",
      [this] { return static_cast<double>(lmoc_); });
  registry->AddCallbackGauge(
      "locktune_stmm_lmo_bytes",
      "lock memory currently borrowed from overflow",
      [this] { return static_cast<double>(lmo_); });
  registry->AddCallbackGauge(
      "locktune_stmm_tuning_interval_ms", "current tuning interval",
      [this] { return static_cast<double>(timer_.period()); });
  registry->AddCallbackGauge(
      "locktune_stmm_free_fraction",
      "free share of lock memory, against the [minFree, maxFree] band",
      [this] {
        const Bytes alloc = lock_heap_->size();
        if (alloc <= 0) return 0.0;
        return static_cast<double>(alloc - locks_->used_bytes()) /
               static_cast<double>(alloc);
      });
  registry->AddCallbackGauge(
      "locktune_stmm_min_free_fraction", "minFreeLockMemory band edge",
      [this] { return params_.min_free_fraction; });
  registry->AddCallbackGauge(
      "locktune_stmm_max_free_fraction", "maxFreeLockMemory band edge",
      [this] { return params_.max_free_fraction; });
  resize_hist_ = registry->AddHistogram(
      "locktune_stmm_resize_bytes",
      "per-pass lock memory resize magnitude",
      {0.0, 128.0 * 1024, 512.0 * 1024, 1024.0 * 1024, 4096.0 * 1024,
       16384.0 * 1024, 65536.0 * 1024});
}

void StmmController::AdaptInterval(LockTunerAction action) {
  if (!params_.adaptive_interval) return;
  if (action == LockTunerAction::kNone) {
    if (++quiet_passes_ >= params_.quiet_passes_to_lengthen) {
      quiet_passes_ = 0;
      timer_.set_period(
          std::min(params_.tuning_interval_max, timer_.period() * 2));
    }
  } else {
    quiet_passes_ = 0;
    timer_.set_period(
        std::max(params_.tuning_interval_min, timer_.period() / 2));
  }
}

Bytes StmmController::GrowLockMemory(Bytes want) {
  LOCKTUNE_CHECK(want % kLockBlockSize == 0);
  // The lock memory objective outranks PMC comfort: shrink PMCs when
  // overflow cannot cover the growth (§4 T2: "making decreases in sort
  // memory (the least needy consumer)").
  if (memory_->overflow_bytes() < want) {
    pmcs_->TakeFrom(*memory_, want - memory_->overflow_bytes());
  }
  Bytes grow = std::min(want, memory_->overflow_bytes());
  grow -= grow % kLockBlockSize;
  // Never beyond maxLockMemory (heap max also enforces this).
  grow = std::min(grow, params_.MaxLockMemory() - lock_heap_->size());
  if (grow <= 0) return 0;
  const Status s = memory_->GrowHeap(lock_heap_, grow);
  if (!s.ok()) {
    // A refusal here (not a clamp-to-zero above) is what arms the backoff:
    // fault-free runs never reach this branch because `grow` was clamped to
    // both the available overflow and the heap max.
    grow_denied_ = true;
    if (ledger_ != nullptr) {
      ledger_->RecordAbsorbed("async_grow", s.message());
    }
    LOCKTUNE_LOG(kWarning) << "async lock growth failed: " << s.ToString();
    return 0;
  }
  locks_->AddBlocks(BytesToBlocks(grow));
  return grow;
}

Bytes StmmController::ShrinkLockMemory(Bytes want) {
  LOCKTUNE_CHECK(want % kLockBlockSize == 0);
  int64_t blocks = BytesToBlocks(want);
  // DB2's shrink request is all-or-nothing against the block list; if the
  // full request is not satisfiable the controller settles for the largest
  // request that is (the tuner will continue next interval).
  if (!locks_->TryRemoveBlocks(blocks).ok()) {
    blocks = std::min(blocks, locks_->entirely_free_blocks());
    if (blocks <= 0 || !locks_->TryRemoveBlocks(blocks).ok()) return 0;
  }
  const Bytes freed = BlocksToBytes(blocks);
  const Status s = memory_->ShrinkHeap(lock_heap_, freed);
  if (!s.ok()) {
    // Respect the heap minimum: put the blocks back.
    locks_->AddBlocks(blocks);
    return 0;
  }
  return freed;
}

void StmmController::RestoreOverflowGoal() {
  const Bytes goal = params_.OverflowGoal();
  const Bytes overflow = memory_->overflow_bytes();
  if (overflow < goal) {
    // Heaps grew into the reserve during the interval; rebuild it from the
    // least needy consumers.
    pmcs_->TakeFrom(*memory_, goal - overflow);
  } else if (overflow > goal) {
    // Surplus (e.g. freed lock memory) goes to the most beneficial heaps.
    pmcs_->GiveTo(*memory_, overflow - goal);
  }
}

}  // namespace locktune
