// Chapter 4: broken vehicles with longevity parameters.
//
// Vehicle i carries p_i ∈ [0,1] and breaks the moment it has spent a p_i
// fraction of its initial energy. Theorem 4.1.1 generalizes Eq. (1.1): the
// LP (4.1) lower bound on Woff-b is max_T ω_T with
//   ω_T · Σ_{i ∈ N_{p_i·ω_T}(T)} p_i  =  Σ_{i∈T} d(i),
// where i belongs to the weighted neighborhood when dist(i,T) ≤ p_i·ω.
// That is Eq. (1.1)'s crossing (core/omega.h) with the longevities as
// weights: i joins the mass at ω = dist(i,T) / p_i and adds p_i.
// §4.2 shows this bound can be loose by a factor ~r₁ (Figure 4.1).
#pragma once

#include <cstddef>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "grid/demand_map.h"
#include "grid/point.h"

namespace cmvrp {

// Sparse longevity assignment; unset vertices default to `default_p`.
class LongevityMap {
 public:
  explicit LongevityMap(int dim, double default_p = 1.0);

  int dim() const { return dim_; }
  double default_p() const { return default_p_; }

  void set(const Point& p, double longevity);
  double at(const Point& p) const;

  // The largest L1 distance from T of a vertex with positive longevity:
  // INT64_MAX when the default is positive, -1 when no vertex has one.
  std::int64_t positive_reach(const std::vector<Point>& t) const;

 private:
  int dim_;
  double default_p_;
  std::unordered_map<Point, double, PointHash> p_;
};

// ω_T of Theorem 4.1.1 for an explicit set T, exactly: omega_for_set with
// the longevities as weights, whose BFS stops at ring ⌊ω_T⌋ or at
// positive_reach(T). Throws check_error when T has demand and no vertex
// has positive longevity (then no ω satisfies the equation).
double broken_omega_for_set(const std::vector<Point>& t, const DemandMap& d,
                            const LongevityMap& longevity);

// max_T ω_T over all nonempty subsets of the demand support
// (Theorem 4.1.1's lower bound on Woff-b; exponential — tiny supports).
double broken_lower_bound_enumerate(const DemandMap& d,
                                    const LongevityMap& longevity,
                                    std::size_t max_support = 18);

// Value of LP (4.2) at a fixed radius r via the simplex (tiny instances;
// cross-validates the closed form of Theorem 4.1.1's proof). Its
// integer-radius fixed point equals max_T ω_T only when every reach
// threshold dist/p_i that matters is an integer: with d(0,0) = 4,
// p(0,0) = 1, p(1,0) = 0.3 and every other p 0 it reads 4, while ω_T is
// 10/3.
double broken_lp_value_at_radius(const DemandMap& d,
                                 const LongevityMap& longevity,
                                 std::int64_t r);

}  // namespace cmvrp
