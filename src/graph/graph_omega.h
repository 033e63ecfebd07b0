// The ω machinery generalized from Z^ℓ to arbitrary connected graphs.
//
// Everything in §2.2 except the *cube* shortcut survives verbatim once
// N_r(T) is read as the graph-metric ball:
//   ω_T is the lattice's crossing (omega_crossing, core/omega.h) of
//   ω · |N^G_⌊ω⌋(T)| with Σ_{x∈T} d(x),
//   the LP (2.1) value at radius r is max_T Σ_T d / |N^G_r(T)|, computed
//   by the same max-flow oracle as on the lattice (flow/transportation.h)
//   on an instance built from graph balls, and ω* is the same radius
//   fixed point. The cube characterization (Cor. 2.2.6/2.2.7) has no
//   graph analogue — that is exactly why the paper leaves general graphs
//   open — so on a graph ω* comes from the flow oracle alone.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "graph/graph.h"

namespace cmvrp {

// Single-source shortest-path distances (Dijkstra; unit lengths fall back
// to BFS cost profile automatically).
std::vector<std::int64_t> graph_distances(const Graph& g, std::size_t src);

// Multi-source variant: distance to the nearest seed.
std::vector<std::int64_t> graph_distances(const Graph& g,
                                          const std::vector<std::size_t>& seeds);

// ω_T on the graph: omega_crossing (core/omega.h) over the ball sizes,
// whose breakpoints are the distinct distances from T.
double graph_omega_for_set(const Graph& g,
                           const std::vector<std::size_t>& t,
                           const std::vector<double>& demand);

// max_T ω_T over all nonempty subsets of the demand support (exponential;
// supports <= max_support).
double graph_omega_star_enumerate(const Graph& g,
                                  const std::vector<double>& demand,
                                  std::size_t max_support = 18);

// ω* as the radius fixed point (Lemma 2.2.3 verbatim on the graph); 0
// when there is no demand.
double graph_omega_star_flow(const Graph& g,
                             const std::vector<double>& demand);

}  // namespace cmvrp
