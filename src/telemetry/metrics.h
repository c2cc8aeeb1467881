// The unified metrics registry — locktune's telemetry spine.
//
// Every subsystem (lock manager, database memory, STMM controller, workload
// drivers) registers named counters, gauges, and histograms here, and the
// exporters (Prometheus text, CSV, inspector table) walk the registry to
// externalize them. A metric is a callback over the producer's live state
// (e.g. LockManager::allocated_bytes), evaluated only at Collect() time, so
// the instrumented path pays nothing.
//
// Metric names follow the Prometheus convention (`locktune_<area>_<what>`
// with `_total` for counters and `_bytes`/`_ms` unit suffixes). A name may
// carry a `{label="value"}` suffix (e.g. per-heap sizes); the exporters
// treat the part before `{` as the metric family.
//
// Registering a name twice replaces the earlier entry (last wins).
#ifndef LOCKTUNE_TELEMETRY_METRICS_H_
#define LOCKTUNE_TELEMETRY_METRICS_H_

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "common/stats.h"

namespace locktune {

// Point-in-time copy of a histogram, as exporters consume it. `counts` has
// `upper_bounds.size() + 1` entries; the last is the overflow bucket.
struct HistogramSnapshot {
  std::vector<double> upper_bounds;
  std::vector<int64_t> counts;
  int64_t total = 0;
  double sum = 0.0;
};

// Linear-interpolated quantile over a snapshot: the bucket holding the
// q-th observation, interpolated between its bounds (the overflow bucket
// spans [last bound, 2 * last bound + 1)). The one quantile estimator for
// every histogram; a common/stats Histogram goes through SnapshotOf. q is
// clamped to [0, 1]; empty snapshots yield 0.
double SnapshotQuantile(const HistogramSnapshot& snapshot, double q);

// Builds a HistogramSnapshot from a bare Histogram (no sum tracked: the sum
// is estimated from bucket midpoints, which is what a scraper would infer).
HistogramSnapshot SnapshotOf(const Histogram& hist);

// Buckets `values` under `upper_bounds` and keeps their exact sum, added in
// order: the snapshot of a recorded history.
HistogramSnapshot SnapshotOfValues(std::vector<double> upper_bounds,
                                   const std::vector<double>& values);

enum class MetricKind { kCounter, kGauge, kHistogram };

// One evaluated metric, as returned by MetricsRegistry::Collect().
struct MetricSample {
  std::string name;
  std::string help;
  MetricKind kind = MetricKind::kGauge;
  double value = 0.0;           // counters and gauges
  HistogramSnapshot histogram;  // kHistogram only
};

class MetricsRegistry {
 public:
  MetricsRegistry() = default;

  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  // Each callback is evaluated at Collect() time.
  void AddCallbackCounter(const std::string& name, const std::string& help,
                          std::function<int64_t()> fn);
  void AddCallbackGauge(const std::string& name, const std::string& help,
                        std::function<double()> fn);
  void AddCallbackHistogram(const std::string& name, const std::string& help,
                            std::function<HistogramSnapshot()> fn);

  bool Has(const std::string& name) const;
  size_t size() const { return entries_.size(); }

  // Evaluates every metric, ordered by name. Label
  // variants of one family (`name{...}`) sort adjacently. Callbacks must
  // not re-enter the registry.
  std::vector<MetricSample> Collect() const;

 private:
  struct Entry {
    std::string help;
    MetricKind kind = MetricKind::kGauge;
    // Exactly one callback is set, the one `kind` names.
    std::function<int64_t()> counter_fn;
    std::function<double()> gauge_fn;
    std::function<HistogramSnapshot()> histogram_fn;
  };

  std::map<std::string, Entry> entries_;
};

// The metric family: the name up to a `{label}` suffix, if any.
std::string MetricFamily(const std::string& name);

}  // namespace locktune

#endif  // LOCKTUNE_TELEMETRY_METRICS_H_
