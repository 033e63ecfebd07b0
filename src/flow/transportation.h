// LP (2.1) at one radius as a bipartite max-flow question — the one
// oracle behind ω* on Z^ℓ and on graphs.
//
// At radius r every vertex within distance r of the demand support is a
// supplier with capacity ω, and a supplier can ship to a demand vertex
// within distance r of it. Whether ω covers the demand is one Dinic
// max-flow (amounts scaled to integers by 2^20: demands round up, ω
// rounds down, so truncation never grants feasibility); the minimal
// feasible ω is the LP value max_T Σ_T d / |N_r(T)| (Lemma 2.2.2), found
// by bisection; and ω* is the radius fixed point of that value
// (Lemma 2.2.3). A metric only builds the instance of each radius, once:
// lattice_instance on Z^ℓ, graph/graph_omega.cpp's graph_instance on
// graph balls.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

#include "grid/demand_map.h"
#include "grid/point.h"

namespace cmvrp {

// The bipartite instance of one radius. Demand j needs demand[j]; each
// supplier i may ship to the demand indices arcs[i].
struct TransportationInstance {
  std::vector<double> demand;
  std::vector<std::vector<std::size_t>> arcs;
  // A feasible ω, the bisection's upper bracket: the total demand (one
  // supplier may owe all of it), summed in the builder's order.
  double upper = 0.0;
};

// Minimal feasible ω of the instance, by monotone bisection of the
// feasibility oracle on [0, upper] to the absolute tolerance `tol`; 0
// for an instance without demand.
double min_feasible_omega(const TransportationInstance& g, double tol = 1e-6);

// ω* as the radius fixed point ω = v(⌊ω⌋) of Lemma 2.2.3, where v(r) is
// the (non-increasing) LP (2.1) value at radius r.
double radius_fixed_point(
    const std::function<double(std::int64_t)>& value_at_radius);

// The instance of d at radius r on Z^ℓ: the demands are support()'s
// points, the suppliers N_r(support) in sorted order, and the bracket is
// d.total().
TransportationInstance lattice_instance(const DemandMap& d, std::int64_t r);

struct TransportationPlanEntry {
  Point from;     // supplier vertex
  Point to;       // demand vertex
  double amount;  // energy shipped
};

struct TransportationResult {
  bool feasible = false;
  std::vector<TransportationPlanEntry> plan;  // only filled when feasible
};

// Can per-vertex supply ω cover d within radius r on Z^ℓ? When it can,
// the plan is the flow that does.
TransportationResult transportation_feasible(const DemandMap& d,
                                             std::int64_t r, double omega);

}  // namespace cmvrp
