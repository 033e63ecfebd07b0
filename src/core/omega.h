// ω_T and ω* — the paper's central quantities (Eq. 1.1, Lemma 2.2.3).
//
// For a nonempty finite T ⊆ Z^ℓ with total demand S = Σ_{x∈T} d(x),
//   g(ω) = ω · |N_⌊ω⌋(T)|
// is piecewise linear and increasing with upward jumps at integers, so we
// define  ω_T = inf{ω ≥ 0 : g(ω) ≥ S}  (the unique root of g(ω) = S when
// the crossing is not at a jump). ω* = max over nonempty T of ω_T; by
// Lemma 2.2.3 it equals the radius fixed point of LP (2.1).
//
// Three independent computations of ω* are provided and cross-checked in
// tests:
//   * subset enumeration (exponential; tiny supports only),
//   * LP (2.1) via the simplex at a fixed radius + radius_fixed_point,
//   * the max-flow oracle of flow/transportation.h (the workhorse).
//
// Complexity: omega_for_box is O(1) per candidate radius via the DP box
// counts; omega_for_set BFS-grows N_r(T), O(|N_r(T)|) per radius step;
// omega_star_flow builds one bipartite instance per radius (N_r(support)
// and its supplier→demand arcs) and bisects on it with O(log(ω/tol))
// Dinic feasibility probes, each O(E·sqrt(V)).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "grid/box.h"
#include "grid/demand_map.h"
#include "grid/point.h"

namespace cmvrp {

// ω_T for an explicit point set T (BFS-based |N_r(T)|).
double omega_for_set(const std::vector<Point>& t, const DemandMap& d);

// ω_T for a box T whose demand sum is `demand_sum` (exact DP counts; no
// dependence on the demand map beyond the sum).
double omega_for_box(const Box& t, double demand_sum);

// ω* by enumerating all nonempty subsets of the demand support.
// Requires support_size() <= max_support (work is 2^support).
double omega_star_enumerate(const DemandMap& d, std::size_t max_support = 20);

// Value of LP (2.1) at a fixed integer radius r, via the simplex on the
// explicit flow formulation. Exponential in nothing, but the LP has
// |N_r(support)| · |support| flow variables — keep instances small.
double lp_value_at_radius(const DemandMap& d, std::int64_t r);

// ω* by the max-flow oracle: radius_fixed_point over min_feasible_omega
// of each radius's lattice_instance.
double omega_star_flow(const DemandMap& d);

}  // namespace cmvrp
