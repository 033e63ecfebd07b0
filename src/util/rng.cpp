#include "util/rng.h"

#include <cmath>

#include "util/check.h"

namespace cmvrp {
namespace {

std::uint64_t splitmix64(std::uint64_t& x) {
  x += 0x9e3779b97f4a7c15ULL;
  std::uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

}  // namespace

Rng::Rng(std::uint64_t seed) {
  std::uint64_t sm = seed;
  auto& s = core_.s;
  for (auto& word : s) word = splitmix64(sm);
  // xoshiro must not start in the all-zero state.
  if ((s[0] | s[1] | s[2] | s[3]) == 0) s[0] = 1;
}

std::int64_t Rng::next_int(std::int64_t lo, std::int64_t hi) {
  CMVRP_CHECK(lo <= hi);
  const std::uint64_t span =
      static_cast<std::uint64_t>(hi) - static_cast<std::uint64_t>(lo) + 1;
  if (span == 0) {  // full 64-bit range
    return static_cast<std::int64_t>(next_u64());
  }
  return lo + static_cast<std::int64_t>(next_below(span));
}

double Rng::next_double() {
  // 53 high-quality bits -> [0, 1).
  return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
}

double Rng::next_double(double lo, double hi) {
  CMVRP_CHECK(lo <= hi);
  return lo + (hi - lo) * next_double();
}

bool Rng::next_bool(double p) {
  if (p <= 0.0) return false;
  if (p >= 1.0) return true;
  return next_double() < p;
}

double Rng::next_gaussian() {
  if (have_gaussian_) {
    have_gaussian_ = false;
    return spare_gaussian_;
  }
  double u1 = 0.0;
  do {
    u1 = next_double();
  } while (u1 <= 0.0);
  const double u2 = next_double();
  const double mag = std::sqrt(-2.0 * std::log(u1));
  const double two_pi = 6.283185307179586476925286766559;
  spare_gaussian_ = mag * std::sin(two_pi * u2);
  have_gaussian_ = true;
  return mag * std::cos(two_pi * u2);
}

std::size_t Rng::next_weighted(const std::vector<double>& weights) {
  double total = 0.0;
  for (double w : weights) {
    CMVRP_CHECK(w >= 0.0);
    total += w;
  }
  CMVRP_CHECK(total > 0.0);
  double x = next_double() * total;
  std::size_t last_positive = 0;
  for (std::size_t i = 0; i < weights.size(); ++i) {
    if (weights[i] > 0.0) {
      last_positive = i;
      x -= weights[i];
      if (x < 0.0) return i;
    }
  }
  // Numerical slack: x can stay non-negative after the full pass because the
  // running subtraction rounds differently from the summed total. Land on the
  // last bucket that actually has weight, never a zero-weight one.
  return last_positive;
}

Rng Rng::split() {
  return Rng(next_u64() ^ 0xdeadbeefcafef00dULL);
}

}  // namespace cmvrp
