#include "core/omega.h"

#include <algorithm>
#include <limits>
#include <queue>
#include <utility>

#include "flow/transportation.h"
#include "grid/neighborhood.h"
#include "lp/simplex.h"
#include "util/check.h"

namespace cmvrp {

double omega_crossing(double s, const std::function<MassStep()>& step) {
  CMVRP_CHECK(s >= 0.0);
  if (s == 0.0) return 0.0;
  // On [at, next): g(ω) = ω · mass, covering [at·mass, next·mass).
  for (;;) {
    const MassStep m = step();
    if (s < m.at * m.mass) return m.at;         // jump overshoots: inf is at
    if (s < m.next * m.mass) return s / m.mass;  // interior crossing
    CMVRP_CHECK_MSG(m.next < std::numeric_limits<double>::infinity(),
                    "omega_T has no crossing: the mass stays 0");
  }
}

double omega_for_set(const std::vector<Point>& t, const DemandMap& d,
                     const std::function<double(const Point&)>& weight,
                     std::int64_t reach) {
  CMVRP_CHECK_MSG(!t.empty(), "omega of empty set");
  double s = 0.0;
  for (const auto& p : t) s += d.at(p);

  // Multi-source BFS, one ring per integer radius, expanded only once the
  // march reaches it. A vertex of ring k joins at k / w ≥ k: at once when
  // that is not past the current breakpoint (always for w = 1), else from
  // `pending`, in order of joining.
  using Join = std::pair<double, double>;  // (breakpoint, weight)
  std::priority_queue<Join, std::vector<Join>, std::greater<>> pending;
  double at = 0.0;
  double mass = 0.0;
  auto join_ring = [&](const std::vector<Point>& ring, std::int64_t k) {
    for (const auto& p : ring) {
      const double w = weight ? weight(p) : 1.0;
      CMVRP_CHECK(w >= 0.0 && w <= 1.0);
      if (w == 0.0) continue;
      const double when = static_cast<double>(k) / w;
      if (when <= at)
        mass += w;
      else
        pending.emplace(when, w);
    }
  };
  PointSet visited(t.begin(), t.end());
  std::vector<Point> ring(visited.begin(), visited.end());
  std::int64_t radius = 0;  // the last ring expanded
  join_ring(ring, 0);
  return omega_crossing(s, [&] {
    while (radius < reach && static_cast<double>(radius + 1) <= at) {
      std::vector<Point> next;
      for (const auto& p : ring)
        for (const auto& q : p.unit_neighbors())
          if (visited.insert(q).second) next.push_back(q);
      ring = std::move(next);
      join_ring(ring, ++radius);
    }
    for (; !pending.empty() && pending.top().first <= at; pending.pop())
      mass += pending.top().second;
    double next = radius < reach ? static_cast<double>(radius) + 1.0
                                 : std::numeric_limits<double>::infinity();
    if (!pending.empty()) next = std::min(next, pending.top().first);
    const MassStep step{at, mass, next};
    at = next;
    return step;
  });
}

double omega_for_box(const Box& t, double demand_sum) {
  const auto sides = t.sides();
  std::int64_t k = 0;
  return omega_crossing(demand_sum, [&sides, &k] {
    const auto at = static_cast<double>(k);
    const auto vol = static_cast<double>(box_neighborhood_volume(sides, k++));
    return MassStep{at, vol, at + 1.0};
  });
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
