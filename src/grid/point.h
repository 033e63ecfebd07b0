// Lattice points of Z^ℓ with the Manhattan (L1) metric.
//
// The paper works on Z^ℓ for a constant dimension ℓ; we carry the dimension
// at runtime (1..4) so one build serves all experiments. Points are small
// value types: fixed storage, no allocation.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <initializer_list>
#include <string>
#include <vector>

#include "util/check.h"

namespace cmvrp {

class Point {
 public:
  static constexpr int kMaxDim = 4;

  Point() = default;

  explicit Point(std::initializer_list<std::int64_t> coords) {
    CMVRP_CHECK(coords.size() >= 1 &&
                coords.size() <= static_cast<std::size_t>(kMaxDim));
    dim_ = static_cast<int>(coords.size());
    int i = 0;
    for (auto c : coords) coords_[static_cast<std::size_t>(i++)] = c;
  }

  // Origin of Z^dim.
  static Point origin(int dim) {
    CMVRP_CHECK(dim >= 1 && dim <= kMaxDim);
    Point p;
    p.dim_ = dim;
    return p;
  }

  int dim() const { return dim_; }

  std::int64_t operator[](int i) const {
    CMVRP_CHECK(i >= 0 && i < dim_);
    return coords_[static_cast<std::size_t>(i)];
  }

  std::int64_t& operator[](int i) {
    CMVRP_CHECK(i >= 0 && i < dim_);
    return coords_[static_cast<std::size_t>(i)];
  }

  friend bool operator==(const Point& a, const Point& b) {
    if (a.dim_ != b.dim_) return false;
    for (int i = 0; i < a.dim_; ++i)
      if (a.coords_[static_cast<std::size_t>(i)] !=
          b.coords_[static_cast<std::size_t>(i)])
        return false;
    return true;
  }

  friend bool operator!=(const Point& a, const Point& b) { return !(a == b); }

  // Lexicographic order (for deterministic iteration of point sets).
  friend bool operator<(const Point& a, const Point& b) {
    CMVRP_CHECK(a.dim_ == b.dim_);
    for (int i = 0; i < a.dim_; ++i) {
      const auto ai = a.coords_[static_cast<std::size_t>(i)];
      const auto bi = b.coords_[static_cast<std::size_t>(i)];
      if (ai != bi) return ai < bi;
    }
    return false;
  }

  Point translated(int axis, std::int64_t delta) const {
    Point p = *this;
    p[axis] += delta;
    return p;
  }

  friend Point operator+(const Point& a, const Point& b) {
    CMVRP_CHECK(a.dim_ == b.dim_);
    Point p = a;
    for (int i = 0; i < a.dim_; ++i) p[i] += b[i];
    return p;
  }

  friend Point operator-(const Point& a, const Point& b) {
    CMVRP_CHECK(a.dim_ == b.dim_);
    Point p = a;
    for (int i = 0; i < a.dim_; ++i) p[i] -= b[i];
    return p;
  }

  std::int64_t l1_norm() const {
    std::int64_t s = 0;
    for (int i = 0; i < dim_; ++i) {
      const auto c = coords_[static_cast<std::size_t>(i)];
      s += c < 0 ? -c : c;
    }
    return s;
  }

  // Parity of the coordinate sum; the paper's chessboard coloring makes a
  // vertex "black" when the sum is even (§3.2).
  bool coordinate_sum_even() const {
    std::int64_t s = 0;
    for (int i = 0; i < dim_; ++i) s += coords_[static_cast<std::size_t>(i)];
    return ((s % 2) + 2) % 2 == 0;
  }

  // The 2ℓ unit-step neighbours (grid adjacency).
  std::vector<Point> unit_neighbors() const {
    std::vector<Point> out;
    out.reserve(static_cast<std::size_t>(2 * dim_));
    for (int i = 0; i < dim_; ++i) {
      out.push_back(translated(i, +1));
      out.push_back(translated(i, -1));
    }
    return out;
  }

  std::string to_string() const;

  friend std::int64_t l1_distance(const Point& a, const Point& b);

 private:
  std::array<std::int64_t, kMaxDim> coords_{};
  int dim_ = 0;
};

// Manhattan distance ‖a − b‖₁ — the paper's travel metric (1 energy/step).
// One dimension check up front, then raw coordinates: the Phase I relay
// runs this against every cube member per query fan-out.
inline std::int64_t l1_distance(const Point& a, const Point& b) {
  CMVRP_CHECK(a.dim_ == b.dim_);
  std::int64_t s = 0;
  for (std::size_t i = 0; i < static_cast<std::size_t>(a.dim_); ++i) {
    const std::int64_t d = a.coords_[i] - b.coords_[i];
    s += d < 0 ? -d : d;
  }
  return s;
}

struct PointHash {
  std::size_t operator()(const Point& p) const {
    // FNV-1a over the coordinates.
    std::uint64_t h = 1469598103934665603ULL;
    const auto mix = [&h](std::uint64_t v) {
      h ^= v;
      h *= 1099511628211ULL;
    };
    mix(static_cast<std::uint64_t>(p.dim()));
    for (int i = 0; i < p.dim(); ++i) mix(static_cast<std::uint64_t>(p[i]));
    return static_cast<std::size_t>(h);
  }
};

}  // namespace cmvrp
