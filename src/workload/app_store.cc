#include "workload/app_store.h"

#include <algorithm>
#include <bit>

#include "common/check.h"

namespace locktune {

const char* AppPhaseName(AppPhase phase) {
  switch (phase) {
    case AppPhase::kDisconnected:
      return "disconnected";
    case AppPhase::kThinking:
      return "thinking";
    case AppPhase::kRunning:
      return "running";
    case AppPhase::kHolding:
      return "holding";
    case AppPhase::kBlocked:
      return "blocked";
  }
  return "unknown";
}

AppStore::AppStore(Database* db, DurationMs tick) : db_(db), tick_(tick) {
  LOCKTUNE_DCHECK(db != nullptr);
  LOCKTUNE_DCHECK(tick > 0);
}

std::array<int64_t, kNumAppPhases> AppStore::PhaseCounts() const {
  std::array<int64_t, kNumAppPhases> counts{};
  for (const uint8_t p : phase_) ++counts[p];
  return counts;
}

uint32_t AppStore::Add(AppId id, Workload* workload, uint64_t seed) {
  LOCKTUNE_DCHECK(workload != nullptr);
  const uint32_t index = static_cast<uint32_t>(phase_.size());
  phase_.push_back(static_cast<uint8_t>(AppPhase::kDisconnected));
  timer_.push_back(0);
  acquired_.push_back(0);
  gen_.push_back(0);
  if ((index >> 6) >= runnable_.size()) runnable_.push_back(0);
  cold_.emplace_back(id, workload, seed);
  return index;
}

void AppStore::Connect(uint32_t i) {
  if (connected(i)) return;
  phase_[i] = static_cast<uint8_t>(AppPhase::kThinking);
  // Small random offset so simultaneous connects don't lockstep.
  timer_[i] = cold_[i].rng.NextInRange(0, 100);
  Park(i);
}

void AppStore::Disconnect(uint32_t i) {
  if (!connected(i)) return;
  db_->locks().ReleaseAll(cold_[i].id);
  phase_[i] = static_cast<uint8_t>(AppPhase::kDisconnected);
  acquired_[i] = 0;
  ++gen_[i];  // orphans any parked wheel entry
  ClearRunnable(i);
}

void AppStore::AbortForDeadlock(uint32_t i) {
  LOCKTUNE_DCHECK(phase(i) == AppPhase::kBlocked);
  Count(i, &ApplicationStats::deadlock_aborts);
  AbortToThinking(i);
  ClearRunnable(i);
  Park(i);
}

void AppStore::AbortForTimeout(uint32_t i) {
  LOCKTUNE_DCHECK(phase(i) == AppPhase::kBlocked);
  Count(i, &ApplicationStats::timeout_aborts);
  AbortToThinking(i);
  ClearRunnable(i);
  Park(i);
}

void AppStore::KillConnection(uint32_t i) {
  if (!connected(i)) return;
  const AppPhase p = phase(i);
  const bool mid_txn = p == AppPhase::kRunning || p == AppPhase::kBlocked ||
                       p == AppPhase::kHolding;
  db_->locks().ReleaseAll(cold_[i].id);
  if (mid_txn) Count(i, &ApplicationStats::kill_aborts);
  phase_[i] = static_cast<uint8_t>(AppPhase::kDisconnected);
  acquired_[i] = 0;
  ++gen_[i];
  ClearRunnable(i);
}

void AppStore::Park(uint32_t i) {
  // max(1, ...) so a zero connect offset still waits for the next sweep
  // (the legacy decrement-then-test also fired no earlier than that).
  const DurationMs timer = std::max<DurationMs>(timer_[i], 0);
  const int64_t periods = std::max<int64_t>(1, (timer + tick_ - 1) / tick_);
  const int64_t due = current_tick_ + periods;
  wheel_[due & (kWheelSlots - 1)].push_back({i, gen_[i], due});
}

const std::vector<uint32_t>& AppStore::CollectRunnable() {
  ++current_tick_;
  std::vector<WheelEntry>& slot = wheel_[current_tick_ & (kWheelSlots - 1)];
  if (!slot.empty()) {
    slot_scratch_.clear();
    for (const WheelEntry& e : slot) {
      if (e.gen != gen_[e.index]) continue;  // disconnected since parking
      if (e.due == current_tick_) {
        SetRunnable(e.index);
      } else {
        slot_scratch_.push_back(e);  // timer wraps the wheel; keep waiting
      }
    }
    slot.swap(slot_scratch_);
  }
  work_.clear();
  for (size_t w = 0; w < runnable_.size(); ++w) {
    uint64_t bits = runnable_[w];
    while (bits != 0) {
      work_.push_back(static_cast<uint32_t>((w << 6) +
                                            std::countr_zero(bits)));
      bits &= bits - 1;
    }
  }
  return work_;
}

void AppStore::FinishSweep() {
  for (uint32_t i : work_) {
    switch (phase(i)) {
      case AppPhase::kRunning:
      case AppPhase::kBlocked:
        break;  // stays runnable
      case AppPhase::kThinking:
      case AppPhase::kHolding:
        ClearRunnable(i);
        Park(i);
        break;
      case AppPhase::kDisconnected:
        // Disconnects are serial-context and clear their bit themselves;
        // nothing in the sweep disconnects, but stay defensive.
        ClearRunnable(i);
        break;
    }
  }
}

void AppStore::Tick(uint32_t i) {
  switch (phase(i)) {
    case AppPhase::kDisconnected:
      return;
    case AppPhase::kBlocked:
      if (db_->locks().IsBlocked(cold_[i].id)) {
        Count(i, &ApplicationStats::blocked_ticks);
        return;
      }
      // The queued request was granted while we slept.
      ++acquired_[i];
      Count(i, &ApplicationStats::locks_acquired);
      phase_[i] = static_cast<uint8_t>(AppPhase::kRunning);
      RunAcquisition(i);
      return;
    case AppPhase::kThinking:
      // Woken by the wheel: the think timer expired this tick (the legacy
      // loop decremented timer_ every tick and started the transaction on
      // the tick the countdown crossed zero — the wheel deadline is that
      // tick by construction, see Park).
      StartTransaction(i);
      return;
    case AppPhase::kRunning:
      RunAcquisition(i);
      return;
    case AppPhase::kHolding:
      // Woken by the wheel: the hold timer expired this tick.
      Commit(i);
      return;
  }
}

void AppStore::StartTransaction(uint32_t i) {
  ColdApp& app = cold_[i];
  app.profile = app.workload->NextTransaction(app.rng);
  LOCKTUNE_DCHECK(app.profile.total_locks > 0 &&
                  app.profile.locks_per_tick > 0);
  acquired_[i] = 0;
  app.table_plan =
      app.compiler != nullptr &&
      app.compiler->ChooseGranularity(app.profile.total_locks) ==
          LockGranularity::kTable;
  if (app.table_plan) Count(i, &ApplicationStats::table_plan_txns);
  phase_[i] = static_cast<uint8_t>(AppPhase::kRunning);
}

void AppStore::RunAcquisition(uint32_t i) {
  ColdApp& app = cold_[i];
  // This tick's share of the transaction, one request at a time, each drawn
  // from the workload RNG only after the previous one was granted: a request
  // that blocks or fails ends the tick with no further draw.
  for (int64_t issued = 0; issued < app.profile.locks_per_tick &&
                           acquired_[i] < app.profile.total_locks;
       ++issued) {
    const RowAccess access = app.workload->NextAccess(app.rng);
    // A table-locking plan (§3.6) fixes the coarse granularity at compile
    // time: the self-tuning lock memory never gets a chance to avoid it.
    const ResourceId resource = app.table_plan
                                    ? TableResource(access.table)
                                    : RowResource(access.table, access.row);
    const LockMode mode = app.table_plan && access.mode != LockMode::kS
                              ? LockMode::kX
                              : access.mode;
    switch (db_->locks().Lock(app.id, resource, mode).outcome) {
      case LockOutcome::kGranted:
        ++acquired_[i];
        Count(i, &ApplicationStats::locks_acquired);
        break;
      case LockOutcome::kWaiting:
        phase_[i] = static_cast<uint8_t>(AppPhase::kBlocked);
        return;
      case LockOutcome::kOutOfMemory:
        // The statement failed (DB2 would return SQL0912N); abort the
        // transaction and retry after thinking.
        Count(i, &ApplicationStats::oom_aborts);
        AbortToThinking(i);
        return;
    }
  }
  if (acquired_[i] >= app.profile.total_locks) {
    if (app.profile.hold_time > 0) {
      phase_[i] = static_cast<uint8_t>(AppPhase::kHolding);
      timer_[i] = app.profile.hold_time;
    } else {
      Commit(i);
    }
  }
}

void AppStore::Commit(uint32_t i) {
  ColdApp& app = cold_[i];
  if (app.profile.abort_at_end) {
    // Abort-storm archetype: the client did all the locking work and rolls
    // back at the finish line.
    Count(i, &ApplicationStats::user_aborts);
    AbortToThinking(i);
    return;
  }
  db_->locks().ReleaseAll(app.id);
  Count(i, &ApplicationStats::commits);
  acquired_[i] = 0;
  phase_[i] = static_cast<uint8_t>(AppPhase::kThinking);
  timer_[i] = app.profile.think_time > 0 ? app.profile.think_time : tick_;
}

void AppStore::AbortToThinking(uint32_t i) {
  ColdApp& app = cold_[i];
  db_->locks().ReleaseAll(app.id);
  acquired_[i] = 0;
  phase_[i] = static_cast<uint8_t>(AppPhase::kThinking);
  timer_[i] = app.profile.think_time > 0 ? app.profile.think_time : tick_;
}

}  // namespace locktune
