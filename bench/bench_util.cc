#include "bench/bench_util.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <limits>
#include <sstream>

#include "telemetry/exporters.h"

namespace locktune {
namespace bench {

void PrintHeader(const std::string& id, const std::string& title,
                 const std::string& setup) {
  std::printf("================================================================\n");
  std::printf("%s — %s\n", id.c_str(), title.c_str());
  std::printf("%s\n", setup.c_str());
  std::printf("================================================================\n");
}

void PrintSeries(const TimeSeriesSet& series,
                 const std::vector<std::string>& names, size_t stride) {
  if (names.empty()) return;
  std::printf("time_s");
  for (const auto& n : names) std::printf(",%s", n.c_str());
  std::printf("\n");
  const TimeSeries& first = series.Get(names[0]);
  for (size_t i = 0; i < first.size(); i += std::max<size_t>(stride, 1)) {
    std::printf("%.0f", static_cast<double>(first.points()[i].time_ms) /
                            1000.0);
    for (const auto& n : names) {
      std::printf(",%.3f", series.Get(n).points()[i].value);
    }
    std::printf("\n");
  }
}

Bound AtLeast(double value, double lo) {
  return {value, lo, std::numeric_limits<double>::infinity()};
}

Bound AtMost(double value, double hi) {
  return {value, -std::numeric_limits<double>::infinity(), hi};
}

Bound Within(double value, double lo, double hi) { return {value, lo, hi}; }

namespace {
bool claim_failed = false;
}  // namespace

void Claim(const std::string& claim, const std::string& paper,
           const std::string& measured, const Bound& bound) {
  std::printf("  %-46s paper: %-22s measured: %s", claim.c_str(),
              paper.c_str(), measured.c_str());
  if (bound.value >= bound.lo && bound.value <= bound.hi) {
    std::printf("\n");
    return;
  }
  claim_failed = true;
  std::printf("  FAIL (checked %g, want [%g, %g])\n", bound.value, bound.lo,
              bound.hi);
}

int ExitStatus() { return claim_failed ? 1 : 0; }

ScenarioSpec LoadScenario(const std::string& file) {
  Result<ScenarioSpec> spec =
      LoadScenarioFile(std::string(LOCKTUNE_SOURCE_DIR) + "/scenarios/" + file);
  if (!spec.ok()) {
    std::fprintf(stderr, "%s\n", spec.status().ToString().c_str());
    std::exit(1);
  }
  return std::move(spec).value();
}

void PrintMetrics(const MetricsRegistry& registry) {
  std::printf("\nmetrics:\n");
  std::fflush(stdout);
  WriteMetricsCsv(registry, std::cout);
  std::cout.flush();
}

std::string Mb(double mb) {
  std::ostringstream os;
  os.precision(2);
  os << std::fixed << mb << " MB";
  return os.str();
}

std::string Ratio(double r) {
  std::ostringstream os;
  os.precision(1);
  os << std::fixed << r << "x";
  return os.str();
}

double MeanOver(const TimeSeries& s, size_t from, size_t to) {
  to = std::min(to, s.size());
  if (from >= to) return 0.0;
  double sum = 0.0;
  for (size_t i = from; i < to; ++i) sum += s.points()[i].value;
  return sum / static_cast<double>(to - from);
}

}  // namespace bench
}  // namespace locktune
