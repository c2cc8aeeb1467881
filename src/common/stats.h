// Bucketed distributions behind the metrics registry's histograms.
#ifndef LOCKTUNE_COMMON_STATS_H_
#define LOCKTUNE_COMMON_STATS_H_

#include <cstdint>
#include <vector>

namespace locktune {

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
