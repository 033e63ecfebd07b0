#include "core/cube_bound.h"

#include <algorithm>
#include <cmath>

#include "core/omega.h"
#include "grid/dense_grid.h"
#include "util/check.h"

namespace cmvrp {

CubeBound cube_bound(const DemandMap& d) {
  CubeBound out;
  if (d.empty()) return out;

  const int dim = d.dim();
  const DenseGrid grid = DenseGrid::from_demand(d);
  const PrefixSums ps(grid);
  const double total = d.total();
  std::int64_t max_side = 1;
  for (int i = 0; i < dim; ++i)
    max_side = std::max(max_side, grid.box().side(i));

  // Beyond the bounding box the window demand is the constant `total`,
  // and the per-segment candidate max(k-1, total/(3k)^ℓ) grows with k once
  // the second term is dominated — scan far enough to pass the crossover
  // (k-1)(3k)^ℓ ≈ total.
  std::int64_t k_hi = max_side + 2;
  {
    const double crossover =
        std::pow(total / std::pow(3.0, dim), 1.0 / (dim + 1)) + 2.0;
    k_hi = std::max<std::int64_t>(k_hi, static_cast<std::int64_t>(crossover) + 2);
  }

  double best = -1.0;
  std::int64_t best_side = 1;
  double best_m = 0.0;
  for (std::int64_t k = 1; k <= k_hi; ++k) {
    // Every candidate from side k on is >= k-1 and the update below is
    // strict, so once k-1 reaches the best nothing later can replace it.
    if (best >= 0.0 && static_cast<double>(k - 1) >= best) break;
    const double m = k >= max_side ? total : ps.max_cube_sum(k);
    if (m <= 0.0) continue;
    const double cells = std::pow(3.0 * static_cast<double>(k),
                                  static_cast<double>(dim));
    // inf{ω in (k-1, k] : ω·(3k)^ℓ >= m}; empty when m/(3k)^ℓ > k.
    const double root = m / cells;
    if (root > static_cast<double>(k)) continue;
    const double candidate = std::max(root, static_cast<double>(k - 1));
    if (best < 0.0 || candidate < best) {
      best = candidate;
      best_side = k;
      best_m = m;
    }
  }
  CMVRP_CHECK_MSG(best >= 0.0, "cube bound scan found no feasible segment");
  out.omega_c = best;
  out.cube_side = std::max<std::int64_t>(
      1, static_cast<std::int64_t>(std::ceil(best - 1e-12)));
  // ⌈ω_c⌉ should match the segment the minimum came from when ω_c is
  // interior; when ω_c sits exactly on the segment's lower jump the side
  // from the scan is the meaningful partition size.
  out.cube_side = std::max(out.cube_side, std::int64_t{1});
  if (static_cast<double>(best_side - 1) <= best &&
      best <= static_cast<double>(best_side))
    out.cube_side = best_side;
  out.max_cube_demand = best_m;
  return out;
}

double max_omega_over_cubes(const DemandMap& d, std::int64_t max_cells) {
  if (d.empty()) return 0.0;
  const int dim = d.dim();
  const DenseGrid grid = DenseGrid::from_demand(d);
  const PrefixSums ps(grid);
  const Box bb = grid.box();

  std::int64_t max_side = 1;
  for (int i = 0; i < dim; ++i) max_side = std::max(max_side, bb.side(i));

  // Work estimate: number of cube placements across all sides.
  double placements = 0.0;
  for (std::int64_t s = 1; s <= max_side; ++s) {
    double c = 1.0;
    for (int i = 0; i < dim; ++i)
      c *= static_cast<double>(std::max<std::int64_t>(1, bb.side(i) - s + 1));
    placements += c;
  }
  CMVRP_CHECK_MSG(placements <= static_cast<double>(max_cells),
                  "max_omega_over_cubes: " << placements
                                           << " cube placements exceed budget");

  double best = 0.0;
  for (std::int64_t s = 1; s <= max_side; ++s) {
    // Enumerate offsets; cubes extending past the bounding box are
    // equivalent to their clipped versions plus zero demand, and the
    // unclipped cube has the larger neighborhood, so clipped-to-box cubes
    // dominate — offsets stay inside the box.
    std::vector<std::int64_t> lo(static_cast<std::size_t>(dim)),
        hi(static_cast<std::size_t>(dim));
    for (int i = 0; i < dim; ++i) {
      lo[static_cast<std::size_t>(i)] = bb.lo()[i];
      hi[static_cast<std::size_t>(i)] =
          std::max(bb.lo()[i], bb.hi()[i] - s + 1);
    }
    std::vector<std::int64_t> cur = lo;
    for (;;) {
      Point corner = Point::origin(dim);
      for (int i = 0; i < dim; ++i)
        corner[i] = cur[static_cast<std::size_t>(i)];
      const Box cube = Box::cube(corner, s);
      const double m = ps.box_sum(cube);
      if (m > 0.0) best = std::max(best, omega_for_box(cube, m));
      int axis = dim - 1;
      while (axis >= 0) {
        auto& c = cur[static_cast<std::size_t>(axis)];
        if (c < hi[static_cast<std::size_t>(axis)]) {
          ++c;
          break;
        }
        c = lo[static_cast<std::size_t>(axis)];
        --axis;
      }
      if (axis < 0) break;
    }
  }
  return best;
}

}  // namespace cmvrp
