// Empirical Won: the smallest capacity W for which the Chapter 3 strategy
// serves an entire job stream, found by bisection over fresh stream
// engine runs (one worker thread each).
//
// Theorem 1.4.2 claims Won = Θ(Woff); benches compare this empirical value
// against ω_c (lower bound) and (4·3^ℓ+ℓ)·ω_c (Lemma 3.3.1 upper bound).
//
// Complexity: O(log((hi−lo)/tol)) full runs (plus the doublings needed to
// find a sufficient hi); each run is one pass over the job stream with
// the per-cube costs listed in online/fleet_core.h.
#pragma once

#include <cstdint>
#include <vector>

#include "online/fleet_core.h"
#include "workload/generators.h"

namespace cmvrp {

struct CapacitySearchResult {
  double won_empirical = 0.0;   // minimal sufficient W found
  double omega_c = 0.0;         // offline cube lower bound for comparison
  double won_theory = 0.0;      // (4·3^ℓ+ℓ)·ω_c
  OnlineMetrics at_minimum;     // metrics of the run at won_empirical
  std::uint64_t simulations = 0;  // engine runs (probes) performed
};

// Bisects capacity in [lo, hi] (hi defaults to the Lemma 3.3.1 bound,
// doubled until sufficient) over the deployment default_online_config
// derives from the stream's demand. Success is re-evaluated with a fresh
// engine per probe; `tol` is absolute on W.
CapacitySearchResult find_min_online_capacity(const std::vector<Job>& jobs,
                                              int dim,
                                              std::uint64_t seed = 1,
                                              double tol = 0.05);

}  // namespace cmvrp
