#include "common/stats.h"

#include <algorithm>

#include "common/check.h"

namespace locktune {

Histogram::Histogram(std::vector<double> upper_bounds)
    : bounds_(std::move(upper_bounds)), counts_(bounds_.size() + 1, 0) {
  LOCKTUNE_CHECK(std::is_sorted(bounds_.begin(), bounds_.end()));
}

void Histogram::Add(double x) {
  const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), x);
  counts_[static_cast<size_t>(it - bounds_.begin())] += 1;
  ++total_;
}

}  // namespace locktune
