#include "core/lock_memory_tuner.h"

#include <algorithm>
#include <cstdio>

#include "common/check.h"

namespace locktune {

namespace {

double FreeFraction(const LockTunerInputs& inputs) {
  const Bytes allocated = std::max<Bytes>(inputs.allocated, kLockBlockSize);
  const Bytes used = std::clamp<Bytes>(inputs.used, 0, allocated);
  return static_cast<double>(allocated - used) /
         static_cast<double>(allocated);
}

double ToMb(Bytes b) {
  return static_cast<double>(b) / (1024.0 * 1024.0);
}

}  // namespace

std::string ExplainDecision(const LockTunerInputs& inputs,
                            const LockTunerDecision& decision,
                            const TuningParams& params) {
  const double free_pct = 100.0 * FreeFraction(inputs);
  char buf[256];
  const Bytes min_lock = params.MinLockMemory(inputs.num_applications);
  if (min_lock > params.MaxLockMemory()) {
    std::snprintf(buf, sizeof(buf),
                  "free %.1f%%, but minLockMemory(%d apps) = %.2f MB crosses "
                  "maxLockMemory = %.2f MB: target capped at maxLockMemory",
                  free_pct, inputs.num_applications, ToMb(min_lock),
                  ToMb(params.MaxLockMemory()));
    return buf;
  }
  switch (decision.action) {
    case LockTunerAction::kDouble:
      std::snprintf(buf, sizeof(buf),
                    "%lld escalations this interval while growth was "
                    "constrained: double lock memory to %.2f MB",
                    static_cast<long long>(inputs.escalations_in_interval),
                    ToMb(decision.target));
      break;
    case LockTunerAction::kGrow:
      std::snprintf(buf, sizeof(buf),
                    "free %.1f%% below minFree %.0f%%: grow to %.2f MB so "
                    "minFree of the new size is free",
                    free_pct, 100.0 * params.min_free_fraction,
                    ToMb(decision.target));
      break;
    case LockTunerAction::kShrink:
      std::snprintf(buf, sizeof(buf),
                    "free %.1f%% above maxFree %.0f%%: shrink by "
                    "delta_reduce toward %.2f MB",
                    free_pct, 100.0 * params.max_free_fraction,
                    ToMb(decision.target));
      break;
    case LockTunerAction::kClamp:
      std::snprintf(buf, sizeof(buf),
                    "target clamped into [minLockMemory(%d apps) = %.2f MB, "
                    "maxLockMemory = %.2f MB]: %.2f MB",
                    inputs.num_applications,
                    ToMb(params.MinLockMemory(inputs.num_applications)),
                    ToMb(params.MaxLockMemory()), ToMb(decision.target));
      break;
    case LockTunerAction::kNone:
      // kNone also covers moves the [minLockMemory, maxLockMemory] clamp
      // cancelled, so check the band before claiming the dead band.
      if (FreeFraction(inputs) < params.min_free_fraction ||
          FreeFraction(inputs) > params.max_free_fraction) {
        std::snprintf(buf, sizeof(buf),
                      "free %.1f%% outside the [minFree %.0f%%, maxFree "
                      "%.0f%%] band, but the move was cancelled by the "
                      "[minLockMemory(%d apps) = %.2f MB, maxLockMemory = "
                      "%.2f MB] clamp: no change",
                      free_pct, 100.0 * params.min_free_fraction,
                      100.0 * params.max_free_fraction,
                      inputs.num_applications,
                      ToMb(params.MinLockMemory(inputs.num_applications)),
                      ToMb(params.MaxLockMemory()));
      } else {
        std::snprintf(buf, sizeof(buf),
                      "free %.1f%% inside the [minFree %.0f%%, maxFree "
                      "%.0f%%] dead band: no change",
                      free_pct, 100.0 * params.min_free_fraction,
                      100.0 * params.max_free_fraction);
      }
      break;
  }
  return buf;
}

LockMemoryTuner::LockMemoryTuner(const TuningParams& params)
    : params_(params) {
  LOCKTUNE_CHECK(params.Validate().ok());
}

LockTunerDecision LockMemoryTuner::Tune(const LockTunerInputs& inputs) const {
  const Bytes allocated = std::max<Bytes>(inputs.allocated, kLockBlockSize);
  const Bytes used = std::clamp<Bytes>(inputs.used, 0, allocated);
  const double free_frac =
      static_cast<double>(allocated - used) / static_cast<double>(allocated);

  LockTunerDecision decision;
  if (inputs.escalations_in_interval > 0 && inputs.growth_was_constrained) {
    // §3.3: while escalations continue under constrained overflow, double
    // each interval, trending toward a well-tuned allocation despite the
    // temporary escalations.
    decision.target = RoundUpToBlocks(2 * allocated);
    decision.action = LockTunerAction::kDouble;
  } else if (free_frac < params_.min_free_fraction) {
    // Restore the minFree objective: used should be (1 − minFree) of the
    // new size.
    decision.target = RoundUpToBlocks(static_cast<Bytes>(
        static_cast<double>(used) / (1.0 - params_.min_free_fraction)));
    decision.action = LockTunerAction::kGrow;
  } else if (free_frac > params_.max_free_fraction) {
    // δ_reduce decay: 5 % of the current size, rounded to blocks, at least
    // one block — but never past the point where maxFree would be free.
    const Bytes step = std::max<Bytes>(
        RoundToBlocks(static_cast<Bytes>(params_.delta_reduce *
                                         static_cast<double>(allocated))),
        kLockBlockSize);
    const Bytes floor_at_max_free = RoundUpToBlocks(static_cast<Bytes>(
        static_cast<double>(used) / (1.0 - params_.max_free_fraction)));
    decision.target = std::max(allocated - step, floor_at_max_free);
    decision.action = LockTunerAction::kShrink;
  } else {
    // Dead band: "no change will be made in the lock memory allocation
    // levels" (§3.3). The current allocation becomes the target, including
    // any synchronous growth since the last pass.
    decision.target = allocated;
    decision.action = LockTunerAction::kNone;
  }

  bool clamped = false;
  decision.target = Clamp(decision.target, inputs.num_applications, &clamped);
  if (clamped && decision.action == LockTunerAction::kNone) {
    decision.action = LockTunerAction::kClamp;
  }
  // Shrink/grow decisions that the clamp cancelled degrade to no-ops.
  if (decision.target == allocated &&
      decision.action != LockTunerAction::kNone) {
    decision.action = LockTunerAction::kNone;
  }

  return decision;
}

Bytes LockMemoryTuner::Clamp(Bytes target, int num_applications,
                             bool* clamped) const {
  // Past the crossing (minLockMemory(napps) > maxLockMemory) the band is
  // the single point maxLockMemory: the heap can never grow beyond it.
  const Bytes hi = params_.MaxLockMemory();
  const Bytes lo = std::min(params_.MinLockMemory(num_applications), hi);
  const Bytes out = std::clamp(target, lo, hi);
  *clamped = out != target;
  return out;
}

}  // namespace locktune
