// Lightweight descriptive statistics used by metrics and benches.
#ifndef LOCKTUNE_COMMON_STATS_H_
#define LOCKTUNE_COMMON_STATS_H_

#include <cstdint>
#include <limits>
#include <vector>

namespace locktune {

// Streaming min / max / mean / variance (Welford). Accepts doubles.
class SummaryStats {
 public:
  void Add(double x);

  int64_t count() const { return count_; }
  double min() const { return count_ ? min_ : 0.0; }
  double max() const { return count_ ? max_ : 0.0; }
  double mean() const { return count_ ? mean_ : 0.0; }
  double sum() const { return sum_; }
  // Population variance / standard deviation.
  double variance() const;
  double stddev() const;

 private:
  int64_t count_ = 0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
  double mean_ = 0.0;
  double m2_ = 0.0;
  double sum_ = 0.0;
};

// Fixed-boundary histogram for latency-like values. Buckets are
// caller-supplied upper bounds; values above the last bound land in an
// overflow bucket. Quantiles come from SnapshotQuantile(SnapshotOf(h), q)
// (telemetry/metrics.h).
class Histogram {
 public:
  explicit Histogram(std::vector<double> upper_bounds);

  void Add(double x);

  int64_t total_count() const { return total_; }
  // counts() has upper_bounds().size() + 1 entries (last is overflow).
  const std::vector<int64_t>& counts() const { return counts_; }
  const std::vector<double>& upper_bounds() const { return bounds_; }

 private:
  std::vector<double> bounds_;
  std::vector<int64_t> counts_;
  int64_t total_ = 0;
};

}  // namespace locktune

#endif  // LOCKTUNE_COMMON_STATS_H_
