#include "core/omega.h"

#include <algorithm>
#include <cmath>
#include <functional>

#include "flow/transportation.h"
#include "grid/neighborhood.h"
#include "lp/simplex.h"
#include "util/check.h"

namespace cmvrp {
namespace {

// Solves inf{ω : ω · volume(⌊ω⌋) >= s} given a callback producing the
// exact neighborhood cardinality at integer radii. volume must be
// non-decreasing in k and >= 1.
double omega_from_volume(const std::function<std::int64_t(std::int64_t)>& volume,
                         double s) {
  CMVRP_CHECK(s >= 0.0);
  if (s == 0.0) return 0.0;
  // On segment [k, k+1): g(ω) = ω · volume(k), covering
  // [k·volume(k), (k+1)·volume(k)). March k upward; the answer is reached
  // once (k+1)·volume(k) > s.
  for (std::int64_t k = 0;; ++k) {
    const auto vol = static_cast<double>(volume(k));
    CMVRP_CHECK(vol >= 1.0);
    const double lo = static_cast<double>(k) * vol;
    const double hi = (static_cast<double>(k) + 1.0) * vol;
    if (s < lo) return static_cast<double>(k);  // jump overshoots: inf is k
    if (s < hi) return s / vol;                 // interior crossing
    // Guard against pathological non-growth (cannot happen on Z^ℓ).
    CMVRP_CHECK_MSG(k < (std::int64_t{1} << 40), "omega search diverged");
  }
}

}  // namespace

double omega_for_set(const std::vector<Point>& t, const DemandMap& d) {
  CMVRP_CHECK_MSG(!t.empty(), "omega of empty set");
  double s = 0.0;
  for (const auto& p : t) s += d.at(p);

  // Incremental multi-source BFS: expand the frontier ring by ring so that
  // volume(k) queries are amortized O(|N_k(T)|) overall.
  PointSet visited(t.begin(), t.end());
  std::vector<Point> frontier(visited.begin(), visited.end());
  std::int64_t current_radius = 0;
  auto volume = [&](std::int64_t k) -> std::int64_t {
    while (current_radius < k) {
      std::vector<Point> next;
      for (const auto& p : frontier)
        for (const auto& q : p.unit_neighbors())
          if (visited.insert(q).second) next.push_back(q);
      frontier = std::move(next);
      ++current_radius;
    }
    return static_cast<std::int64_t>(visited.size());
  };
  return omega_from_volume(volume, s);
}

double omega_for_box(const Box& t, double demand_sum) {
  const auto sides = t.sides();
  auto volume = [&sides](std::int64_t k) {
    return box_neighborhood_volume(sides, k);
  };
  return omega_from_volume(volume, demand_sum);
}

double omega_star_enumerate(const DemandMap& d, std::size_t max_support) {
  const auto support = d.support();
  CMVRP_CHECK_MSG(support.size() <= max_support,
                  "support too large for subset enumeration: "
                      << support.size());
  CMVRP_CHECK(!support.empty());
  // Only subsets of the support matter: adding a zero-demand point to T
  // adds nothing to Σd but can only grow N_r(T), so it never raises ω_T.
  double best = 0.0;
  const std::size_t n = support.size();
  std::vector<Point> subset;
  for (std::uint64_t mask = 1; mask < (std::uint64_t{1} << n); ++mask) {
    subset.clear();
    for (std::size_t i = 0; i < n; ++i)
      if (mask & (std::uint64_t{1} << i)) subset.push_back(support[i]);
    best = std::max(best, omega_for_set(subset, d));
  }
  return best;
}

double lp_value_at_radius(const DemandMap& d, std::int64_t r) {
  CMVRP_CHECK(r >= 0);
  const auto demands = d.support();
  CMVRP_CHECK(!demands.empty());
  auto supplier_set = neighborhood(demands, r);
  std::vector<Point> suppliers(supplier_set.begin(), supplier_set.end());
  std::sort(suppliers.begin(), suppliers.end());

  // LP (2.1): min ω  s.t.  Σ_j f_ij <= ω  ∀i,  Σ_i f_ij >= d(j)  ∀j.
  LpProblem lp(/*maximize=*/false);
  const std::size_t omega_var = lp.add_variable(1.0);
  // f variables, only for pairs within distance r.
  std::vector<std::vector<std::pair<std::size_t, std::size_t>>> by_supplier(
      suppliers.size());  // (demand index, var)
  std::vector<std::vector<std::size_t>> by_demand(demands.size());
  for (std::size_t i = 0; i < suppliers.size(); ++i) {
    for (std::size_t j = 0; j < demands.size(); ++j) {
      if (l1_distance(suppliers[i], demands[j]) <= r) {
        const std::size_t v = lp.add_variable(0.0);
        by_supplier[i].emplace_back(j, v);
        by_demand[j].push_back(v);
      }
    }
  }
  for (std::size_t i = 0; i < suppliers.size(); ++i) {
    std::vector<std::pair<std::size_t, double>> row;
    row.reserve(by_supplier[i].size() + 1);
    for (const auto& [j, v] : by_supplier[i]) {
      (void)j;
      row.emplace_back(v, 1.0);
    }
    row.emplace_back(omega_var, -1.0);
    lp.add_constraint(row, LpRelation::kLessEqual, 0.0);
  }
  for (std::size_t j = 0; j < demands.size(); ++j) {
    std::vector<std::pair<std::size_t, double>> row;
    row.reserve(by_demand[j].size());
    for (std::size_t v : by_demand[j]) row.emplace_back(v, 1.0);
    lp.add_constraint(row, LpRelation::kGreaterEqual, d.at(demands[j]));
  }
  const LpResult result = lp.solve();
  CMVRP_CHECK_MSG(result.status == LpStatus::kOptimal,
                  "LP (2.1) must be feasible and bounded, got "
                      << to_string(result.status));
  return result.objective;
}

double omega_star_flow(const DemandMap& d) {
  return radius_fixed_point([&d](std::int64_t r) {
    return min_feasible_omega(lattice_instance(d, r));
  });
}

}  // namespace cmvrp
