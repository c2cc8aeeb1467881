// The asynchronous lock memory tuning decision (paper §3.2–§3.4).
//
// At each STMM tuning interval the tuner looks at the lock memory allocation
// and usage and decides the new target size (which also becomes the on-disk
// configured value, LMOC):
//
//  * escalations occurred while overflow was constrained → double the lock
//    memory ("lock memory will double each tuning interval while
//    escalations are continuing", §3.3);
//  * free fraction below minFreeLockMemory (50 %) → grow so that minFree of
//    the new size is free;
//  * free fraction above maxFreeLockMemory (60 %) → shrink by δ_reduce
//    (5 % of current size, block-rounded) per interval, but never past the
//    size at which maxFree would be free;
//  * otherwise → keep the current allocation (the dead band that avoids
//    constant resizing).
//
// Every decision is clamped to [minLockMemory(num_applications),
// maxLockMemory] and rounded to whole 128 KB blocks. Past the crossing,
// where minLockMemory(num_applications) exceeds maxLockMemory (3,355
// applications in a 512 MB database), the target is maxLockMemory: the
// heap cannot grow beyond it.
//
// The tuner is a pure decision object: the StmmController executes the
// decision against DatabaseMemory and the LockManager.
#ifndef LOCKTUNE_CORE_LOCK_MEMORY_TUNER_H_
#define LOCKTUNE_CORE_LOCK_MEMORY_TUNER_H_

#include <cstdint>
#include <string>

#include "common/units.h"
#include "core/config.h"

namespace locktune {

struct LockTunerInputs {
  Bytes allocated = 0;  // lock memory currently owned (block multiple)
  Bytes used = 0;       // lock structures in use × 64 B
  int64_t escalations_in_interval = 0;
  // Escalations only drive doubling when growth was actually constrained
  // (database overflow exhausted / LMOmax hit) — a quota escalation under
  // ample memory must not inflate the heap.
  bool growth_was_constrained = false;
  int num_applications = 0;
};

enum class LockTunerAction {
  kNone,    // inside the dead band
  kGrow,    // restore the minFree objective
  kShrink,  // δ_reduce decay toward the maxFree objective
  kDouble,  // escalations under constrained overflow
  kClamp,   // only the min/max bound moved the target
};

struct LockTunerDecision {
  Bytes target = 0;  // desired allocated size, block multiple
  LockTunerAction action = LockTunerAction::kNone;
};

// Human-readable rationale for a decision — the narrative the paper's
// Figure 6 worked example (and DB2's `db2pd -stmm`) tells: which rule
// fired, the observed free fraction against the [minFree, maxFree] band,
// and the resulting target. Used by the decision-trace records.
std::string ExplainDecision(const LockTunerInputs& inputs,
                            const LockTunerDecision& decision,
                            const TuningParams& params);

class LockMemoryTuner {
 public:
  explicit LockMemoryTuner(const TuningParams& params);

  // Computes the new target from the current state alone.
  LockTunerDecision Tune(const LockTunerInputs& inputs) const;

  const TuningParams& params() const { return params_; }

 private:
  Bytes Clamp(Bytes target, int num_applications, bool* clamped) const;

  TuningParams params_;
};

}  // namespace locktune

#endif  // LOCKTUNE_CORE_LOCK_MEMORY_TUNER_H_
