// Ablation — the lockPercentPerApplication curve exponent (§3.5).
//
// The paper uses P(1-(x/100)^3): "very large value ... while memory is
// ample, and aggressive attenuation when lock memory is more than 75%
// used". This sweep measures, per exponent, how many lock structures one
// application can accumulate before its first escalation when it is (a) the
// only heavy consumer, and (b) competing with a second heavy consumer —
// the cubic lets a lone reader run nearly to the memory limit while still
// throttling concurrent heavyweights.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <iterator>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "engine/database.h"

using namespace locktune;

namespace {

constexpr Bytes kDbMem = 256 * kMiB;

std::unique_ptr<Database> OpenWithExponent(double exponent) {
  DatabaseOptions o;
  o.params.database_memory = kDbMem;
  o.params.maxlocks_exponent = exponent;
  return Database::Open(o).value();
}

// Acquires S row locks for `app` on its own table until the first
// escalation (or `cap` locks); returns the count reached.
int64_t RunUntilEscalation(Database& db, AppId app, int64_t cap) {
  for (int64_t r = 0; r < cap; ++r) {
    const LockResult res =
        db.locks().Lock(app, RowResource(app, r), LockMode::kS);
    if (res.escalated || res.outcome != LockOutcome::kGranted) return r;
  }
  return cap;
}

constexpr double kExponents[] = {1.0, 2.0, 3.0, 6.0};

// The share x in [0, 100] at which x = 98(1 - (x/100)^exponent): Table 1's
// curve with P = 98.
double CurveFixedPoint(double exponent) {
  double lo = 0.0;
  double hi = 100.0;
  for (int i = 0; i < 60; ++i) {
    const double x = (lo + hi) / 2;
    if (x < 98.0 * (1.0 - std::pow(x / 100.0, exponent))) {
      lo = x;
    } else {
      hi = x;
    }
  }
  return lo;
}

}  // namespace

int main() {
  bench::PrintHeader(
      "Ablation", "lockPercentPerApplication curve exponent sweep",
      "256 MB database (maxLockMemory 51.2 MB = 819k structures); one "
      "application scans alone, then two applications scan concurrently "
      "in 4k-lock rounds.");

  std::printf("%10s %24s %26s\n", "exponent", "solo_locks_before_esc",
              "dueling_locks_before_esc");
  TuningParams params;
  params.database_memory = kDbMem;
  const int64_t max_slots = params.MaxLockMemory() / kLockStructSize;
  std::vector<int64_t> solo_counts;
  double largest_duel_share = 0.0;
  for (double exponent : kExponents) {
    // (a) lone heavy consumer.
    std::unique_ptr<Database> solo = OpenWithExponent(exponent);
    const int64_t solo_locks = RunUntilEscalation(*solo, 1, 2'000'000);

    // (b) two heavy consumers growing in lockstep.
    std::unique_ptr<Database> duel = OpenWithExponent(exponent);
    int64_t duel_locks = 0;
    bool escalated = false;
    for (int round = 0; round < 500 && !escalated; ++round) {
      for (AppId app : {1, 2}) {
        for (int64_t i = 0; i < 4096; ++i) {
          const int64_t row = round * 4096 + i;
          const LockResult res = duel->locks().Lock(
              app, RowResource(app, row), LockMode::kS);
          if (res.escalated || res.outcome != LockOutcome::kGranted) {
            escalated = true;
            // Locks this application had accumulated when it escalated.
            duel_locks = static_cast<int64_t>(round) * 4096 + i;
            break;
          }
        }
        if (escalated) break;
      }
    }
    std::printf("%10.0f %24lld %26lld\n", exponent,
                static_cast<long long>(solo_locks),
                static_cast<long long>(duel_locks));
    solo_counts.push_back(solo_locks);
    largest_duel_share =
        std::max(largest_duel_share, static_cast<double>(duel_locks) /
                                         static_cast<double>(max_slots));
  }
  std::printf(
      "\nreading: larger exponents keep the curve near 98%% for longer, so "
      "a lone consumer (the Fig 11 reporting query) can push much closer "
      "to maxLockMemory before self-escalating; linear attenuation cuts it "
      "off at about half. With two dueling heavyweights every exponent "
      "eventually throttles, which is exactly the asymmetry 3.5 wants: "
      "generous to one large consumer, protective against several.\n");

  std::printf("\nsummary:\n");
  // A lone consumer's quota is P(1-(x/100)^e) percent of lock memory at x
  // percent of maxLockMemory used, so it escalates where its own share x
  // meets the curve. The quota refreshes every 0x80 requests, 0.015 points
  // of maxLockMemory here; 0.1 points covers that several times over.
  std::string shares;
  double worst_gap = 0.0;  // percentage points from the curve's fixed point
  for (size_t i = 0; i < std::size(kExponents); ++i) {
    const double share = 100.0 * static_cast<double>(solo_counts[i]) /
                         static_cast<double>(max_slots);
    char buf[16];
    std::snprintf(buf, sizeof(buf), "%s%.1f%%", i == 0 ? "" : " -> ", share);
    shares += buf;
    worst_gap = std::max(worst_gap,
                         std::abs(share - CurveFixedPoint(kExponents[i])));
  }
  bench::Claim("a lone consumer stops where the curve meets it",
               "P(1-(x/100)^3)", shares + " of maxLockMemory",
               bench::AtMost(worst_gap, 0.1));
  // Two heavyweights growing together each stop short of half of
  // maxLockMemory under every exponent.
  bench::Claim("dueling heavyweights are throttled", "protective vs several",
               std::to_string(100.0 * largest_duel_share) +
                   "% of maxLockMemory at most",
               bench::AtMost(largest_duel_share, 0.5));
  return bench::ExitStatus();
}
