// Shared helpers for the experiment-reproduction benches.
//
// Each bench binary regenerates one table or figure of the paper: it prints
// a header describing the experiment, the sampled series as CSV (so the
// figure can be re-plotted), and a PAPER vs MEASURED summary of the claims
// the figure supports. Every claim carries a bound; a bench whose claim
// misses its bound exits 1, which is what its `paper`-labelled ctest entry
// checks.
#ifndef LOCKTUNE_BENCH_BENCH_UTIL_H_
#define LOCKTUNE_BENCH_BENCH_UTIL_H_

#include <string>
#include <vector>

#include "common/time_series.h"
#include "engine/database.h"
#include "telemetry/metrics.h"
#include "workload/scenario.h"
#include "workload/scenario_config.h"

namespace locktune {
namespace bench {

// Prints the experiment banner.
void PrintHeader(const std::string& id, const std::string& title,
                 const std::string& setup);

// Prints aligned CSV for the named series, keeping every `stride`-th sample.
void PrintSeries(const TimeSeriesSet& series,
                 const std::vector<std::string>& names, size_t stride = 1);

// The check a claim's value must pass: lo <= value <= hi. The limits come
// from the paper or from EXPERIMENTS.md, never from the measured value.
struct Bound {
  double value;
  double lo;
  double hi;
};
Bound AtLeast(double value, double lo);
Bound AtMost(double value, double hi);
Bound Within(double value, double lo, double hi);

// Prints one "claim" row of the PAPER vs MEASURED summary. A row whose
// bound fails ends in FAIL, and ExitStatus() becomes 1.
void Claim(const std::string& claim, const std::string& paper,
           const std::string& measured, const Bound& bound);

// 1 once any claim has failed, else 0; each bench's main returns it.
int ExitStatus();

// Parses scenarios/<file> from the source tree, so a figure bench runs the
// scenario `locktune_sim` runs. Exits 1 if the file does not parse.
ScenarioSpec LoadScenario(const std::string& file);

// Prints the telemetry registry as `metric,value` CSV under a banner —
// the same exporter `locktune_sim --metrics-out x.csv` uses, so bench
// output feeds the same plotting scripts.
void PrintMetrics(const MetricsRegistry& registry);

// One 128 KB lock-memory block in MB: resizes move whole blocks, so the
// benches' size bounds allow one block of rounding.
constexpr double kBlockMb = kLockBlockSize / (1024.0 * 1024.0);

// Formats helpers.
std::string Mb(double mb);
std::string Ratio(double r);

// Mean of a series over the sample index range [from, to).
double MeanOver(const TimeSeries& s, size_t from, size_t to);

}  // namespace bench
}  // namespace locktune

#endif  // LOCKTUNE_BENCH_BENCH_UTIL_H_
