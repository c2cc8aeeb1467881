#include "common/random.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "common/check.h"

namespace locktune {

namespace {

uint64_t SplitMix64(uint64_t& x) {
  x += 0x9E3779B97f4A7C15ULL;
  uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

uint64_t RotL(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

}  // namespace

Rng::Rng(uint64_t seed) {
  uint64_t sm = seed;
  for (auto& s : state_) s = SplitMix64(sm);
  // Guard against the (astronomically unlikely) all-zero state.
  if ((state_[0] | state_[1] | state_[2] | state_[3]) == 0) state_[0] = 1;
}

uint64_t Rng::Next() {
  const uint64_t result = RotL(state_[1] * 5, 7) * 9;
  const uint64_t t = state_[1] << 17;
  state_[2] ^= state_[0];
  state_[3] ^= state_[1];
  state_[1] ^= state_[2];
  state_[0] ^= state_[3];
  state_[2] ^= t;
  state_[3] = RotL(state_[3], 45);
  return result;
}

uint64_t Rng::NextBelow(uint64_t bound) {
  return UniformBelow(bound).Next(*this);
}

int64_t Rng::NextInRange(int64_t lo, int64_t hi) {
  LOCKTUNE_DCHECK(lo <= hi);
  const uint64_t span = static_cast<uint64_t>(hi - lo) + 1;
  return lo + static_cast<int64_t>(NextBelow(span));
}

double Rng::NextDouble() {
  // 53 high bits into [0, 1).
  return static_cast<double>(Next() >> 11) * 0x1.0p-53;
}

bool Rng::NextBool(double p) {
  if (p <= 0.0) return false;
  if (p >= 1.0) return true;
  return NextDouble() < p;
}

UniformBelow::UniformBelow(uint64_t bound)
    : bound_(bound), threshold_(-bound % bound) {
  LOCKTUNE_DCHECK(bound > 0);
}

uint64_t UniformBelow::Next(Rng& rng) const {
  // Debiased modulo via rejection on the top of the range.
  while (true) {
    const uint64_t r = rng.Next();
    if (r >= threshold_) return r % bound_;
  }
}

namespace {

// Exact summation up to this many terms; beyond it the tail is a midpoint
// integral. The threshold sits above every fixed catalog's largest table
// (order_line at scale 1.0 is 3 M rows), so draw sequences for the golden
// scenarios are bit-for-bit unchanged — only billion-row catalogs (the
// population-scaled scale_sweep points, docs/SCALE.md) take the
// approximate tail, which a sampler cannot tell apart (midpoint-rule
// error is O(theta / M) relative, ~1e-8 here).
constexpr uint64_t kZetaExactTerms = uint64_t{1} << 24;

// ζ(n, θ) = Σ_{i=1..n} i^-θ for every n in `ns`, from one pass in ascending
// i. Each exact sum is a prefix of the largest one: the same terms added in
// the same order, so the same bits as a pass of its own. The terms are never
// reordered or regrouped, since that would move the draws (docs/PERFORMANCE.md
// §5). Domains past kZetaExactTerms share the whole exact prefix and add
// their own tail.
std::vector<double> ZetaSums(const std::vector<uint64_t>& ns, double theta) {
  std::vector<size_t> order(ns.size());
  std::iota(order.begin(), order.end(), size_t{0});
  std::sort(order.begin(), order.end(),
            [&ns](size_t a, size_t b) { return ns[a] < ns[b]; });
  std::vector<double> zeta(ns.size());
  double sum = 0.0;
  uint64_t i = 1;
  for (const size_t k : order) {
    const uint64_t n = ns[k];
    const uint64_t exact = std::min(n, kZetaExactTerms);
    for (; i <= exact; ++i) sum += 1.0 / std::pow(double(i), theta);
    zeta[k] = sum;
    if (exact < n) {
      // Midpoint rule: sum_{i=M+1..n} i^-theta ≈ ∫ x^-theta dx over
      // [M+1/2, n+1/2]; exact for theta = 0.
      const double lo = static_cast<double>(exact) + 0.5;
      const double hi = static_cast<double>(n) + 0.5;
      zeta[k] += (std::pow(hi, 1.0 - theta) - std::pow(lo, 1.0 - theta)) /
                 (1.0 - theta);
    }
  }
  return zeta;
}

}  // namespace

ZipfGenerator::ZipfGenerator(uint64_t n, double theta)
    : ZipfGenerator(ForDomains({n}, theta).front()) {}

ZipfGenerator::ZipfGenerator(uint64_t n, double theta, double zetan,
                             double zeta2)
    : uniform_(n),
      theta_(theta),
      alpha_(1.0 / (1.0 - theta)),
      zetan_(zetan),
      eta_((1.0 - std::pow(2.0 / static_cast<double>(n), 1.0 - theta)) /
           (1.0 - zeta2 / zetan)),
      rank1_limit_(1.0 + std::pow(0.5, theta)) {}

std::vector<ZipfGenerator> ZipfGenerator::ForDomains(
    const std::vector<uint64_t>& domains, double theta) {
  LOCKTUNE_DCHECK(theta >= 0.0 && theta < 1.0);
  // ζ(2, θ) rides the same pass as the last entry.
  std::vector<uint64_t> ns = domains;
  ns.push_back(2);
  const std::vector<double> zeta = ZetaSums(ns, theta);
  std::vector<ZipfGenerator> out;
  out.reserve(domains.size());
  for (size_t k = 0; k < domains.size(); ++k) {
    LOCKTUNE_DCHECK(domains[k] > 0);
    out.push_back(ZipfGenerator(domains[k], theta, zeta[k], zeta.back()));
  }
  return out;
}

uint64_t ZipfGenerator::Next(Rng& rng) const {
  if (theta_ == 0.0) return uniform_.Next(rng);
  const double u = rng.NextDouble();
  const double uz = u * zetan_;
  if (uz < 1.0) return 0;
  if (uz < rank1_limit_) return 1;
  const uint64_t n = uniform_.bound();
  const uint64_t rank = static_cast<uint64_t>(
      static_cast<double>(n) * std::pow(eta_ * u - eta_ + 1.0, alpha_));
  return rank >= n ? n - 1 : rank;
}

}  // namespace locktune
