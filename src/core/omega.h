// ω_T and ω* — the paper's central quantities (Eq. 1.1, Lemma 2.2.3).
//
// Every ω_T in the paper is one crossing. For a nonempty finite T with
// total demand S = Σ_{x∈T} d(x) and a non-decreasing step mass M,
//   ω_T = inf{ω ≥ 0 : ω · M(ω) ≥ S}.
// Eq. (1.1) takes M(ω) = |N_⌊ω⌋(T)| (on Z^ℓ here, on graph balls in
// graph/graph_omega.h); Theorem 4.1.1 takes Σ p_i over
// {i : dist(i, T) ≤ p_i·ω} (broken/longevity.h). g(ω) = ω · M(ω) is
// increasing with upward jumps at M's breakpoints, so omega_crossing walks
// M's steps and returns, with no tolerance, the breakpoint where a jump
// overshoots S or S / M inside a step. Every ω_T of the library is one
// call of it. ω* = max over nonempty T of ω_T; by Lemma 2.2.3 it equals
// the radius fixed point of LP (2.1).
//
// Three independent computations of ω* are provided and cross-checked in
// tests:
//   * subset enumeration (exponential; tiny supports only),
//   * LP (2.1) via the simplex at a fixed radius + radius_fixed_point,
//   * the max-flow oracle of flow/transportation.h (the workhorse).
//
// Complexity: omega_crossing makes one step call per breakpoint up to
// ω_T; omega_for_box is O(1) per integer radius via the DP box counts;
// omega_for_set BFS-grows N_r(T) one ring per integer radius and stops at
// ring ⌊ω_T⌋, O(|N_⌊ω_T⌋(T)|) in all (a vertex of weight below 1 also
// waits in a heap until it joins); omega_star_flow builds one bipartite
// instance per radius (N_r(support) and its supplier→demand arcs) and
// bisects on it with O(log(ω/tol)) Dinic feasibility probes, each
// O(E·sqrt(V)).
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <limits>
#include <vector>

#include "grid/box.h"
#include "grid/demand_map.h"
#include "grid/point.h"

namespace cmvrp {

// One step of a non-decreasing step mass M: M(ω) = mass on [at, next),
// and no breakpoint of M lies in (at, next) (next = +∞ after the last).
struct MassStep {
  double at;
  double mass;
  double next;
};

// inf{ω ≥ 0 : ω · M(ω) ≥ s}. `step` yields M's steps in order, the first
// at 0 and each starting where the one before ended. Returns the
// breakpoint `at` when s < at·mass (the jump overshoots), else s / mass on
// the first step with s < next·mass. Throws check_error when the last step
// has mass 0.
double omega_crossing(double s, const std::function<MassStep()>& step);

// ω_T for an explicit point set T, over the BFS rings of N_r(T). A vertex
// v at distance k from T joins the mass at ω = k / weight(v) and adds
// weight(v) ∈ [0, 1]. Unit weights (the default) give Eq. (1.1); the
// longevities give Theorem 4.1.1, where no vertex farther than `reach`
// from T may have positive weight, so the BFS stops there.
double omega_for_set(
    const std::vector<Point>& t, const DemandMap& d,
    const std::function<double(const Point&)>& weight = {},
    std::int64_t reach = std::numeric_limits<std::int64_t>::max());

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
