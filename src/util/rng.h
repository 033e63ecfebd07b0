// Deterministic, seedable pseudo-random generator (xoshiro256**),
// seeded through splitmix64 per the reference recommendation.
//
// Every stochastic component of the library (workload generators, message
// delays, tie-breaking) takes an explicit Rng so whole experiments replay
// bit-for-bit from a single seed.
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "util/check.h"

namespace cmvrp {

class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL);

  // Uniform over all 64-bit values. Inline with next_below: every
  // message delay draws through them.
  std::uint64_t next_u64() {
    const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = rotl(s_[3], 45);
    return result;
  }

  // Uniform integer in [0, bound). bound must be > 0.
  std::uint64_t next_below(std::uint64_t bound) {
    CMVRP_CHECK(bound > 0);
    // A power-of-two bound divides 2^64, so the rejection threshold below
    // is 0, the first draw is accepted, and r % bound is the mask: same
    // value, same one draw, no division.
    if ((bound & (bound - 1)) == 0) return next_u64() & (bound - 1);
    // Rejection sampling to avoid modulo bias.
    const std::uint64_t threshold = (0ULL - bound) % bound;
    for (;;) {
      const std::uint64_t r = next_u64();
      if (r >= threshold) return r % bound;
    }
  }

  // Uniform integer in [lo, hi] inclusive. Requires lo <= hi.
  std::int64_t next_int(std::int64_t lo, std::int64_t hi);

  // Uniform double in [0, 1).
  double next_double();

  // Uniform double in [lo, hi).
  double next_double(double lo, double hi);

  // Bernoulli with success probability p (clamped to [0, 1]).
  bool next_bool(double p = 0.5);

  // Approximately standard normal (Box–Muller, one value per call).
  double next_gaussian();

  // Sample an index from non-negative weights (sum must be > 0).
  std::size_t next_weighted(const std::vector<double>& weights);

  // Fisher–Yates shuffle.
  template <typename T>
  void shuffle(std::vector<T>& v) {
    for (std::size_t i = v.size(); i > 1; --i) {
      std::size_t j = static_cast<std::size_t>(next_below(i));
      using std::swap;
      swap(v[i - 1], v[j]);
    }
  }

  // Derive an independent child generator (for per-component streams).
  Rng split();

 private:
  static std::uint64_t rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  std::uint64_t s_[4];
  bool have_gaussian_ = false;
  double spare_gaussian_ = 0.0;
};

}  // namespace cmvrp
