// Table 1 — the key modelling parameters of the self-tuning algorithm,
// printed from the live configuration objects (so the table regenerates
// from code, not from hand-written constants), plus the
// lockPercentPerApplication curve at the sample points §3.5 discusses.
#include <cstdio>

#include "bench/bench_util.h"
#include "core/config.h"
#include "lock/maxlocks_curve.h"

using namespace locktune;

int main() {
  bench::PrintHeader(
      "Table 1", "Key parameters",
      "Values as implemented; databaseMemory scaled to 512 MB (all other "
      "parameters are ratios, exactly as the paper defines them).");

  TuningParams p;
  std::printf("%-28s %-52s %s\n", "Param.", "Meaning", "Value");
  std::printf("%-28s %-52s %lld bytes (%.0f MB)\n", "databaseMemory",
              "Total shared memory allocated to the database",
              static_cast<long long>(p.database_memory),
              static_cast<double>(p.database_memory) / (1024.0 * 1024.0));
  std::printf("%-28s %-52s MAX(2MB, 500*%lld*num_applications)\n",
              "minLockMemory", "Smallest value for lock memory",
              static_cast<long long>(kLockStructSize));
  std::printf("%-28s %-52s 0.20 * databaseMemory = %.1f MB\n",
              "maxLockMemory", "Largest value for lock memory",
              static_cast<double>(p.MaxLockMemory()) / (1024.0 * 1024.0));
  std::printf("%-28s %-52s 0.10 * databaseMemory = %.1f MB\n",
              "sqlCompilerLockMem", "SQL compiler's view of lock memory",
              static_cast<double>(p.CompilerLockMemory()) / (1024.0 * 1024.0));
  std::printf("%-28s %-52s %.0f%% of database overflow memory\n", "LMOmax",
              "Max overflow memory consumable for locks",
              p.overflow_cap_c1 * 100.0);
  std::printf("%-28s %-52s %.0f%%\n", "maxFreeLockMemory",
              "Max % unused before asynchronous shrinking",
              p.max_free_fraction * 100.0);
  std::printf("%-28s %-52s %.0f%%\n", "minFreeLockMemory",
              "Min % free before asynchronous growth",
              p.min_free_fraction * 100.0);
  std::printf("%-28s %-52s %.0f(1-(x/100)^%.0f)\n",
              "lockPercentPerApplication",
              "% of lock memory one application may consume", p.maxlocks_p,
              p.maxlocks_exponent);
  std::printf("%-28s %-52s 0x%X\n", "refreshPeriodForAppPercent",
              "Refresh period for lockPercentPerApplication",
              p.maxlocks_refresh_period);
  std::printf("%-28s %-52s %.0f%% per tuning interval\n", "delta_reduce",
              "Asynchronous shrink rate (delta-reduce, 3.4)",
              p.delta_reduce * 100.0);
  std::printf("%-28s %-52s %lld s (0.5-10 min allowed)\n", "tuningInterval",
              "Time between asynchronous adjustments",
              static_cast<long long>(p.tuning_interval / 1000));

  std::printf("\nlockPercentPerApplication(x) = %.0f(1-(x/100)^%.0f):\n",
              p.maxlocks_p, p.maxlocks_exponent);
  MaxlocksCurve curve(p.maxlocks_p, p.maxlocks_exponent,
                      p.maxlocks_refresh_period);
  std::printf("  x (%% of maxLockMemory used):");
  for (double x : {0.0, 25.0, 50.0, 75.0, 90.0, 95.0, 100.0}) {
    std::printf(" %5.0f", x);
  }
  std::printf("\n  lockPercentPerApplication:  ");
  for (double x : {0.0, 25.0, 50.0, 75.0, 90.0, 95.0, 100.0}) {
    std::printf(" %5.1f", curve.Evaluate(x));
  }
  std::printf("\n\n");
  const double at0 = curve.Evaluate(0.0);
  const double at75 = curve.Evaluate(75.0);
  const double at100 = curve.Evaluate(100.0);
  bench::Claim("nearly unconstrained while memory ample", "98 at x=0",
               std::to_string(at0), bench::Within(at0, 98.0, 98.0));
  // The paper gives the formula; ~57 is its 98(1-0.75^3) = 56.66 rounded.
  bench::Claim("aggressive attenuation past 75% used", "~57 at x=75",
               std::to_string(at75), bench::Within(at75, 56.5, 57.5));
  bench::Claim("drops to 1 at 100% of maximum", "1 at x=100",
               std::to_string(at100), bench::Within(at100, 1.0, 1.0));
  return bench::ExitStatus();
}
