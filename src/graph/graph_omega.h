// The ω machinery generalized from Z^ℓ to arbitrary connected graphs.
//
// Everything in §2.2 except the *cube* shortcut survives verbatim once
// N_r(T) is read as the graph-metric ball:
//   ω_T solves ω · |N^G_⌊ω⌋(T)| = Σ_{x∈T} d(x),
//   the LP (2.1) value at radius r is max_T Σ_T d / |N^G_r(T)|, computed
//   by the same max-flow oracle as on the lattice (flow/transportation.h)
//   on an instance built from graph balls, and ω* is the same radius
//   fixed point. The cube characterization (Cor. 2.2.6/2.2.7) has no
//   graph analogue — that is exactly why the paper leaves general graphs
//   open — so the general-purpose lower bound here is ball-based instead.
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

// |N^G_r(T)|.
std::int64_t graph_ball_size(const Graph& g,
                             const std::vector<std::size_t>& t,
                             std::int64_t r);

// ω_T on the graph (inf-crossing semantics as on the lattice).
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

// Ball-based lower bound usable at scale (the graph stand-in for the cube
// bound): max over vertices v and radii k of ω_{B(v,k)}.
double graph_ball_lower_bound(const Graph& g,
                              const std::vector<double>& demand,
                              std::int64_t max_radius);

}  // namespace cmvrp
