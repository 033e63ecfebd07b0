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

// The xoshiro256** state and its integer draws: Rng without the
// Box–Muller spare. 32 bytes and trivially copyable, so a cube's network
// keeps only this, and a hot loop can draw from a local copy (kept in
// registers) and store it back once.
struct Xoshiro256 {
  std::uint64_t s[4] = {};

  // Uniform over all 64-bit values. Inline with next_below: every
  // message delay draws through them.
  std::uint64_t next_u64() {
    const std::uint64_t result = rotl(s[1] * 5, 7) * 9;
    const std::uint64_t t = s[1] << 17;
    s[2] ^= s[0];
    s[3] ^= s[1];
    s[1] ^= s[2];
    s[0] ^= s[3];
    s[2] ^= t;
    s[3] = rotl(s[3], 45);
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

  static std::uint64_t rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }
};

class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL);

  // Uniform over all 64-bit values.
  std::uint64_t next_u64() { return core_.next_u64(); }

  // Uniform integer in [0, bound). bound must be > 0.
  std::uint64_t next_below(std::uint64_t bound) {
    return core_.next_below(bound);
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

  // The generator state: its next_u64/next_below draws continue this
  // Rng's sequence (a pending Gaussian spare is not part of it).
  const Xoshiro256& core() const { return core_; }

 private:
  Xoshiro256 core_;
  bool have_gaussian_ = false;
  double spare_gaussian_ = 0.0;
};

}  // namespace cmvrp
