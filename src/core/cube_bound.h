// Cube-restricted characterizations of Woff (Corollaries 2.2.6 and 2.2.7).
//
// The paper's key algorithmic step: instead of maximizing ω_T over all
// subsets, it suffices (up to the constant) to look at ℓ-cubes, and in
// fact only at ⌈ω⌉-cubes. ω_c of Cor. 2.2.7 is
//   ω_c = min{ω : ω·(3⌈ω⌉)^ℓ = max over ⌈ω⌉-cubes of their demand},
// interpreted with the same inf-crossing semantics as ω_T (DESIGN.md §3).
//
// Complexity: cube_bound builds prefix sums once, O(n^ℓ), then scans
// cube sides k = 1, 2, … with an O(n^ℓ) sliding-window maximum per side.
// Each window costs 2^ℓ prefix reads and adds at precomputed flat
// offsets, and the scan allocates nothing (PrefixSums::max_cube_sum).
// Segment k's candidate is at least k-1, so the scan stops once k-1
// reaches the best candidate so far: O(ω_c) sides, O(ω_c · n^ℓ) total.
#pragma once

#include <cstdint>

#include "grid/demand_map.h"

namespace cmvrp {

struct CubeBound {
  double omega_c = 0.0;        // Cor. 2.2.7 value
  std::int64_t cube_side = 1;  // ⌈ω_c⌉ clamped to >= 1 (partition side)
  double max_cube_demand = 0.0;  // demand of the binding cube
};

// Computes ω_c by scanning cube sides k = 1, 2, … with sliding-window
// maxima M(k) over all offsets, solving ω·(3k)^ℓ = M(k) per segment.
CubeBound cube_bound(const DemandMap& d);

// max_{T ∈ Γ} ω_T over all cubes Γ of every side and offset touching the
// demand's bounding box (Cor. 2.2.6). O(n^{ℓ+1}) cube evaluations — meant
// for validation on modest grids, guarded by `max_cells`.
double max_omega_over_cubes(const DemandMap& d,
                            std::int64_t max_cells = 1 << 22);

}  // namespace cmvrp
