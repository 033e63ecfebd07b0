#include "broken/longevity.h"

#include <algorithm>
#include <limits>

#include "core/omega.h"
#include "grid/neighborhood.h"
#include "lp/simplex.h"
#include "util/check.h"

namespace cmvrp {

LongevityMap::LongevityMap(int dim, double default_p)
    : dim_(dim), default_p_(default_p) {
  CMVRP_CHECK(dim >= 1 && dim <= Point::kMaxDim);
  CMVRP_CHECK(default_p >= 0.0 && default_p <= 1.0);
}

void LongevityMap::set(const Point& p, double longevity) {
  CMVRP_CHECK(p.dim() == dim_);
  CMVRP_CHECK_MSG(longevity >= 0.0 && longevity <= 1.0,
                  "longevity must be in [0,1]");
  p_[p] = longevity;
}

double LongevityMap::at(const Point& p) const {
  CMVRP_CHECK(p.dim() == dim_);
  auto it = p_.find(p);
  return it == p_.end() ? default_p_ : it->second;
}

std::int64_t LongevityMap::positive_reach(const std::vector<Point>& t) const {
  if (default_p_ > 0.0) return std::numeric_limits<std::int64_t>::max();
  std::int64_t reach = -1;
  for (const auto& [p, longevity] : p_) {
    if (longevity == 0.0) continue;
    std::int64_t to_t = std::numeric_limits<std::int64_t>::max();
    for (const auto& q : t) to_t = std::min(to_t, l1_distance(p, q));
    reach = std::max(reach, to_t);
  }
  return reach;
}

double broken_omega_for_set(const std::vector<Point>& t, const DemandMap& d,
                            const LongevityMap& longevity) {
  return omega_for_set(
      t, d, [&longevity](const Point& p) { return longevity.at(p); },
      longevity.positive_reach(t));
}

double broken_lower_bound_enumerate(const DemandMap& d,
                                    const LongevityMap& longevity,
                                    std::size_t max_support) {
  const auto support = d.support();
  CMVRP_CHECK(!support.empty());
  CMVRP_CHECK_MSG(support.size() <= max_support,
                  "support too large for enumeration");
  double best = 0.0;
  const std::size_t n = support.size();
  std::vector<Point> subset;
  for (std::uint64_t mask = 1; mask < (std::uint64_t{1} << n); ++mask) {
    subset.clear();
    for (std::size_t i = 0; i < n; ++i)
      if (mask & (std::uint64_t{1} << i)) subset.push_back(support[i]);
    best = std::max(best, broken_omega_for_set(subset, d, longevity));
  }
  return best;
}

double broken_lp_value_at_radius(const DemandMap& d,
                                 const LongevityMap& longevity,
                                 std::int64_t r) {
  CMVRP_CHECK(r >= 0);
  const auto demands = d.support();
  CMVRP_CHECK(!demands.empty());
  auto supplier_set = neighborhood(demands, r);
  std::vector<Point> suppliers(supplier_set.begin(), supplier_set.end());
  std::sort(suppliers.begin(), suppliers.end());

  // LP (4.2): min ω s.t. Σ_j f_ij <= p_i·ω, Σ_i f_ij >= d(j), arcs when
  // ‖i-j‖ <= p_i·r.
  LpProblem lp;
  const std::size_t omega_var = lp.add_variable(1.0);
  std::vector<std::vector<std::pair<std::size_t, std::size_t>>> by_supplier(
      suppliers.size());
  std::vector<std::vector<std::size_t>> by_demand(demands.size());
  for (std::size_t i = 0; i < suppliers.size(); ++i) {
    const double pi = longevity.at(suppliers[i]);
    for (std::size_t j = 0; j < demands.size(); ++j) {
      if (static_cast<double>(l1_distance(suppliers[i], demands[j])) <=
          pi * static_cast<double>(r)) {
        const std::size_t v = lp.add_variable(0.0);
        by_supplier[i].emplace_back(j, v);
        by_demand[j].push_back(v);
      }
    }
  }
  for (std::size_t i = 0; i < suppliers.size(); ++i) {
    if (by_supplier[i].empty()) continue;
    std::vector<std::pair<std::size_t, double>> row;
    for (const auto& [j, v] : by_supplier[i]) {
      (void)j;
      row.emplace_back(v, 1.0);
    }
    row.emplace_back(omega_var, -longevity.at(suppliers[i]));
    lp.add_constraint(row, LpRelation::kLessEqual, 0.0);
  }
  for (std::size_t j = 0; j < demands.size(); ++j) {
    CMVRP_CHECK_MSG(!by_demand[j].empty(),
                    "demand vertex unreachable at this radius");
    std::vector<std::pair<std::size_t, double>> row;
    for (std::size_t v : by_demand[j]) row.emplace_back(v, 1.0);
    lp.add_constraint(row, LpRelation::kGreaterEqual, d.at(demands[j]));
  }
  const LpResult result = lp.solve();
  CMVRP_CHECK_MSG(result.status == LpStatus::kOptimal,
                  "LP (4.2) not optimal: " << to_string(result.status));
  return result.objective;
}

}  // namespace cmvrp
