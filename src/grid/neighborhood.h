// Exact cardinalities and enumerations of L1 neighborhoods N_r(·) on Z^ℓ.
//
// Eq. (1.1) of the paper defines ω_T through |N_{ω_T}(T)|, so these counts
// must be exact on the *infinite* lattice. Three routes are provided:
//   * closed form for single points (L1 balls),
//   * an O(ℓ·r) dynamic program for boxes (Minkowski sum with the ball),
//   * multi-source BFS for arbitrary finite sets.
// Tests cross-validate all three on overlapping inputs.
#pragma once

#include <cstdint>
#include <unordered_set>
#include <vector>

#include "grid/box.h"
#include "grid/point.h"

namespace cmvrp {

using PointSet = std::unordered_set<Point, PointHash>;

// |{x in Z^dim : ‖x‖₁ <= r}| = Σ_k 2^k C(dim,k) C(r,k).
// Throws on int64 overflow (never reached at experiment scales).
std::int64_t l1_ball_volume(int dim, std::int64_t r);

// |N_r(B)| for a box B: counts the lattice points within L1 distance r of
// B via a per-axis DP over outside-distance vectors (see DESIGN.md §3.1).
std::int64_t box_neighborhood_volume(const std::vector<std::int64_t>& sides,
                                     std::int64_t r);

inline std::int64_t box_neighborhood_volume(const Box& b, std::int64_t r) {
  return box_neighborhood_volume(b.sides(), r);
}

// N_r(T) for an arbitrary finite set T, by multi-source BFS on the infinite
// lattice. Returns the full point set; use neighborhood_volume when only the
// cardinality is needed (same cost, less memory churn).
PointSet neighborhood(const PointSet& t, std::int64_t r);
PointSet neighborhood(const std::vector<Point>& t, std::int64_t r);

std::int64_t neighborhood_volume(const std::vector<Point>& t, std::int64_t r);

// Enumerates the L1 ball N_r(c) around a single point.
std::vector<Point> l1_ball_points(const Point& c, std::int64_t r);

}  // namespace cmvrp
