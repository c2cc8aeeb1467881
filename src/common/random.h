// Deterministic pseudo-random utilities for workload generation.
//
// All scenario randomness flows through Rng seeded explicitly, so every
// experiment is reproducible bit-for-bit.
#ifndef LOCKTUNE_COMMON_RANDOM_H_
#define LOCKTUNE_COMMON_RANDOM_H_

#include <cstdint>
#include <vector>

namespace locktune {

// xoshiro256** with a splitmix64-seeded state. Not cryptographic.
class Rng {
 public:
  explicit Rng(uint64_t seed);

  uint64_t Next();

  // Uniform integer in [0, bound). `bound` must be positive.
  uint64_t NextBelow(uint64_t bound);

  // Uniform integer in [lo, hi] inclusive. Requires lo <= hi.
  int64_t NextInRange(int64_t lo, int64_t hi);

  // Uniform double in [0, 1).
  double NextDouble();

  // True with probability `p` (clamped to [0, 1]).
  bool NextBool(double p);

 private:
  uint64_t state_[4];
};

// Uniform integers in [0, bound) for a bound fixed in advance: the same draws
// as Rng::NextBelow(bound), with the rejection threshold computed once
// instead of on every draw.
class UniformBelow {
 public:
  // `bound` must be positive.
  explicit UniformBelow(uint64_t bound);

  uint64_t bound() const { return bound_; }

  uint64_t Next(Rng& rng) const;

 private:
  uint64_t bound_;
  uint64_t threshold_;
};

// Zipf-distributed integers over [0, n). Skew `theta` in [0, 1); theta = 0 is
// uniform, larger values concentrate probability on small ranks. Uses the
// standard Gray/Jim CLH rejection-free inversion approximation, the same
// sampler TPC-C implementations use for NURand-like hot-spot access.
class ZipfGenerator {
 public:
  ZipfGenerator(uint64_t n, double theta);

  // One generator per entry of `domains` (any order, duplicates allowed),
  // each identical to ZipfGenerator(domains[k], theta), from a single
  // ascending ζ pass: every domain's exact ζ sum is a prefix of the largest
  // one's, so the pass costs the largest domain's terms (at most 2^24), not
  // the sum of every domain's.
  static std::vector<ZipfGenerator> ForDomains(
      const std::vector<uint64_t>& domains, double theta);

  uint64_t n() const { return uniform_.bound(); }
  double theta() const { return theta_; }

  // Draws one rank in [0, n).
  uint64_t Next(Rng& rng) const;

 private:
  ZipfGenerator(uint64_t n, double theta, double zetan, double zeta2);

  UniformBelow uniform_;  // the draw when theta = 0; its bound is n
  double theta_;
  double alpha_;
  double zetan_;
  double eta_;
  double rank1_limit_;  // 1 + 0.5^θ: u·ζ(n) in [1, this) draws rank 1
};

}  // namespace locktune

#endif  // LOCKTUNE_COMMON_RANDOM_H_
