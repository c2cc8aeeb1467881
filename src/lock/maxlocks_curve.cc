#include "lock/maxlocks_curve.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"

namespace locktune {

MaxlocksCurve::MaxlocksCurve(double p_max, double exponent,
                             int refresh_period)
    : p_max_(p_max), exponent_(exponent), refresh_period_(refresh_period) {
  LOCKTUNE_CHECK(p_max > 0.0 && p_max <= 100.0);
  LOCKTUNE_CHECK(exponent > 0.0);
  LOCKTUNE_CHECK(refresh_period > 0);
}

double MaxlocksCurve::Evaluate(double used_percent_of_max) const {
  const double x = std::clamp(used_percent_of_max, 0.0, 100.0);
  const double value = p_max_ * (1.0 - std::pow(x / 100.0, exponent_));
  // The paper drops lockPercentPerApplication "down to 1 when lock memory is
  // 100% of its maximum size": 1 % is the floor.
  return std::clamp(value, 1.0, p_max_);
}

bool MaxlocksCurve::OnLockRequest() {
  if (++requests_since_refresh_ >= refresh_period_) dirty_ = true;
  return dirty_;
}

double MaxlocksCurve::Current(double used_percent_of_max) {
  // The counter reset here (not in OnLockRequest) is what keeps every
  // refresh interval exactly refresh_period_ requests long, including after
  // an Invalidate() or the initial computation.
  if (dirty_) {
    dirty_ = false;
    requests_since_refresh_ = 0;
    cached_percent_ = Evaluate(used_percent_of_max);
  }
  return cached_percent_;
}

}  // namespace locktune
