// The adaptive lockPercentPerApplication curve (paper §3.5, Table 1).
//
//   lockPercentPerApplication(x) = P · (1 − (x/100)^e)
//
// where x is the percentage of maxLockMemory currently in use, P = 98 and
// e = 3. The curve leaves a single application nearly unconstrained (98 %)
// while lock memory is ample and attenuates aggressively once lock memory is
// more than ~75 % used, reaching the floor of 1 % at x = 100.
//
// The value is recomputed every time lock memory is resized, and every
// refreshPeriodForAppPercent (0x80 = 128) lock structure requests — roughly
// the same interval on which new memory blocks can be allocated. The request
// counter measures requests since the last *actual* recomputation: a
// resize-triggered refresh restarts the cadence, so every interval between
// recomputations is exactly refresh_period requests (an earlier version reset
// the counter at the period boundary instead, so a resize or the initial
// computation left a partial count behind and the next refresh fired early).
//
// Threads: the lock manager calls the cached view from the one thread that
// drives it.
#ifndef LOCKTUNE_LOCK_MAXLOCKS_CURVE_H_
#define LOCKTUNE_LOCK_MAXLOCKS_CURVE_H_

#include <cstdint>

namespace locktune {

class MaxlocksCurve {
 public:
  // `p_max` is the unconstrained ceiling (paper: 98), `exponent` the
  // attenuation power (paper: 3), `refresh_period` the number of lock
  // structure requests between recomputations (paper: 0x80).
  MaxlocksCurve(double p_max = 98.0, double exponent = 3.0,
                int refresh_period = 0x80);

  double p_max() const { return p_max_; }
  double exponent() const { return exponent_; }
  int refresh_period() const { return refresh_period_; }

  // Pure curve evaluation: percent of lock memory one application may hold
  // when `used_percent_of_max` (= 100·used/maxLockMemory) is consumed.
  // Clamped to [1, p_max].
  double Evaluate(double used_percent_of_max) const;

  // --- cached, refresh-period-driven view (what the lock manager uses) ---

  // Notes one lock structure request; returns true when the cached value is
  // due for recomputation. The refresh becomes due on the refresh_period-th
  // request after the last recomputation (exactly 0x80 with defaults).
  bool OnLockRequest();

  // Forces recomputation at the next read (called on lock memory resize).
  // The resize-triggered recomputation restarts the request cadence.
  void Invalidate() { dirty_ = true; }

  // Returns the cached percent, recomputing from `used_percent_of_max` if
  // due. This is the externally visible lockPercentPerApplication.
  double Current(double used_percent_of_max);

  // Requests observed since the last recomputation (test/inspection hook).
  int requests_since_refresh() const { return requests_since_refresh_; }

 private:
  double p_max_;
  double exponent_;
  int refresh_period_;
  int requests_since_refresh_ = 0;
  bool dirty_ = true;
  double cached_percent_ = 0.0;
};

}  // namespace locktune

#endif  // LOCKTUNE_LOCK_MAXLOCKS_CURVE_H_
