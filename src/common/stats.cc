#include "common/stats.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"

namespace locktune {

void SummaryStats::Add(double x) {
  ++count_;
  sum_ += x;
  min_ = std::min(min_, x);
  max_ = std::max(max_, x);
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(count_);
  m2_ += delta * (x - mean_);
}

double SummaryStats::variance() const {
  if (count_ == 0) return 0.0;
  return m2_ / static_cast<double>(count_);
}

double SummaryStats::stddev() const { return std::sqrt(variance()); }

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
