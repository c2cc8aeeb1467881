#include "telemetry/metrics.h"

#include <algorithm>

namespace locktune {

double SnapshotQuantile(const HistogramSnapshot& snapshot, double q) {
  if (snapshot.total == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  const double target = q * static_cast<double>(snapshot.total);
  int64_t cumulative = 0;
  for (size_t i = 0; i < snapshot.counts.size(); ++i) {
    const int64_t next = cumulative + snapshot.counts[i];
    if (static_cast<double>(next) >= target && snapshot.counts[i] > 0) {
      const double lo = i == 0 ? 0.0 : snapshot.upper_bounds[i - 1];
      const double hi = i < snapshot.upper_bounds.size()
                            ? snapshot.upper_bounds[i]
                            : lo * 2.0 + 1.0;
      const double frac = (target - static_cast<double>(cumulative)) /
                          static_cast<double>(snapshot.counts[i]);
      return lo + frac * (hi - lo);
    }
    cumulative = next;
  }
  return snapshot.upper_bounds.empty() ? 0.0 : snapshot.upper_bounds.back();
}

HistogramSnapshot HistogramMetric::Snapshot() const {
  HistogramSnapshot out;
  out.upper_bounds = hist_.upper_bounds();
  out.counts = hist_.counts();
  out.total = hist_.total_count();
  out.sum = sum_;
  return out;
}

HistogramSnapshot SnapshotOf(const Histogram& hist) {
  HistogramSnapshot out;
  out.upper_bounds = hist.upper_bounds();
  out.counts = hist.counts();
  out.total = hist.total_count();
  // Estimate the sum from bucket midpoints; the overflow bucket contributes
  // at its lower bound.
  for (size_t i = 0; i < out.counts.size(); ++i) {
    if (out.counts[i] == 0) continue;
    const double lo = i == 0 ? 0.0 : out.upper_bounds[i - 1];
    const double hi =
        i < out.upper_bounds.size() ? out.upper_bounds[i] : lo;
    out.sum += static_cast<double>(out.counts[i]) * (lo + hi) / 2.0;
  }
  return out;
}

Counter* MetricsRegistry::AddCounter(const std::string& name,
                                     const std::string& help) {
  Entry& e = entries_[name];
  e = Entry{};
  e.help = help;
  e.kind = MetricKind::kCounter;
  e.counter = std::make_unique<Counter>();
  return e.counter.get();
}

Gauge* MetricsRegistry::AddGauge(const std::string& name,
                                 const std::string& help) {
  Entry& e = entries_[name];
  e = Entry{};
  e.help = help;
  e.kind = MetricKind::kGauge;
  e.gauge = std::make_unique<Gauge>();
  return e.gauge.get();
}

HistogramMetric* MetricsRegistry::AddHistogram(
    const std::string& name, const std::string& help,
    std::vector<double> upper_bounds) {
  Entry& e = entries_[name];
  e = Entry{};
  e.help = help;
  e.kind = MetricKind::kHistogram;
  e.histogram = std::make_unique<HistogramMetric>(std::move(upper_bounds));
  return e.histogram.get();
}

void MetricsRegistry::AddCallbackCounter(const std::string& name,
                                         const std::string& help,
                                         std::function<int64_t()> fn) {
  Entry& e = entries_[name];
  e = Entry{};
  e.help = help;
  e.kind = MetricKind::kCounter;
  e.counter_fn = std::move(fn);
}

void MetricsRegistry::AddCallbackGauge(const std::string& name,
                                       const std::string& help,
                                       std::function<double()> fn) {
  Entry& e = entries_[name];
  e = Entry{};
  e.help = help;
  e.kind = MetricKind::kGauge;
  e.gauge_fn = std::move(fn);
}

void MetricsRegistry::AddCallbackHistogram(
    const std::string& name, const std::string& help,
    std::function<HistogramSnapshot()> fn) {
  Entry& e = entries_[name];
  e = Entry{};
  e.help = help;
  e.kind = MetricKind::kHistogram;
  e.histogram_fn = std::move(fn);
}

bool MetricsRegistry::Has(const std::string& name) const {
  return entries_.count(name) != 0;
}

std::vector<MetricSample> MetricsRegistry::Collect() const {
  std::vector<MetricSample> out;
  out.reserve(entries_.size());
  for (const auto& [name, e] : entries_) {
    MetricSample s;
    s.name = name;
    s.help = e.help;
    s.kind = e.kind;
    switch (e.kind) {
      case MetricKind::kCounter:
        s.value = static_cast<double>(e.counter ? e.counter->value()
                                                : e.counter_fn());
        break;
      case MetricKind::kGauge:
        s.value = e.gauge ? e.gauge->value() : e.gauge_fn();
        break;
      case MetricKind::kHistogram:
        s.histogram = e.histogram ? e.histogram->Snapshot() : e.histogram_fn();
        break;
    }
    out.push_back(std::move(s));
  }
  return out;
}

std::string MetricFamily(const std::string& name) {
  const size_t brace = name.find('{');
  return brace == std::string::npos ? name : name.substr(0, brace);
}

}  // namespace locktune
