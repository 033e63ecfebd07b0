#include "flow/transportation.h"

#include <algorithm>
#include <cmath>
#include <unordered_map>

#include "flow/dinic.h"
#include "grid/neighborhood.h"
#include "util/check.h"

namespace cmvrp {
namespace {

constexpr double kScale = 1 << 20;

// The instance's network at supply ω, solved. Nodes: 0 = source,
// 1 = sink, the suppliers, then the demands. Edge ids run in the order
// added: one per demand into the sink, then per supplier its supply edge
// followed by its arcs.
struct Solved {
  Dinic flow;
  bool feasible = false;
};

Solved solve(const TransportationInstance& g, double omega) {
  CMVRP_CHECK(omega >= 0.0);
  const std::size_t src = 0, sink = 1;
  const std::size_t supplier_base = 2;
  const std::size_t demand_base = supplier_base + g.arcs.size();
  Solved s{Dinic(demand_base + g.demand.size())};

  // Demands round up and ω down: truncation never grants feasibility.
  const auto cap_omega = static_cast<std::int64_t>(std::floor(omega * kScale));
  std::int64_t total_demand = 0;
  for (std::size_t j = 0; j < g.demand.size(); ++j) {
    const auto dj =
        static_cast<std::int64_t>(std::ceil(g.demand[j] * kScale - 1e-9));
    s.flow.add_edge(demand_base + j, sink, dj);
    total_demand += dj;
  }
  for (std::size_t i = 0; i < g.arcs.size(); ++i) {
    s.flow.add_edge(src, supplier_base + i, cap_omega);
    for (std::size_t j : g.arcs[i])
      s.flow.add_edge(supplier_base + i, demand_base + j, cap_omega);
  }
  s.feasible = s.flow.max_flow(src, sink) >= total_demand;
  return s;
}

// lattice_instance with the points its indices stand for.
struct LatticeBipartite {
  std::vector<Point> suppliers;
  std::vector<Point> demands;
  TransportationInstance instance;
};

LatticeBipartite build_bipartite(const DemandMap& d, std::int64_t r) {
  CMVRP_CHECK(r >= 0);
  LatticeBipartite b;
  TransportationInstance& g = b.instance;
  b.demands = d.support();
  g.upper = d.total();
  if (b.demands.empty()) return b;
  g.demand.reserve(b.demands.size());
  for (const auto& p : b.demands) g.demand.push_back(d.at(p));
  const auto supplier_set = neighborhood(b.demands, r);
  b.suppliers.assign(supplier_set.begin(), supplier_set.end());
  std::sort(b.suppliers.begin(), b.suppliers.end());
  g.arcs.resize(b.suppliers.size());

  // Scanning each supplier's ball costs |ball| per supplier; cheaper than
  // all pairs when r is small relative to the support.
  if (l1_ball_volume(d.dim(), r) <
      static_cast<std::int64_t>(b.demands.size())) {
    std::unordered_map<Point, std::size_t, PointHash> demand_index;
    for (std::size_t j = 0; j < b.demands.size(); ++j)
      demand_index.emplace(b.demands[j], j);
    const auto ball = l1_ball_points(Point::origin(d.dim()), r);
    for (std::size_t i = 0; i < b.suppliers.size(); ++i)
      for (const auto& offset : ball) {
        auto it = demand_index.find(b.suppliers[i] + offset);
        if (it != demand_index.end()) g.arcs[i].push_back(it->second);
      }
  } else {
    for (std::size_t i = 0; i < b.suppliers.size(); ++i)
      for (std::size_t j = 0; j < b.demands.size(); ++j)
        if (l1_distance(b.suppliers[i], b.demands[j]) <= r)
          g.arcs[i].push_back(j);
  }
  return b;
}

}  // namespace

double min_feasible_omega(const TransportationInstance& g, double tol) {
  CMVRP_CHECK(tol > 0.0);
  if (g.demand.empty()) return 0.0;
  double lo = 0.0, hi = g.upper;
  // Feasibility is monotone in ω. The bracket covers the demand up to
  // rounding: one demand of the whole total, scaled to a fraction, rounds
  // up past the bracket's rounded-down supply, so check one unit above.
  CMVRP_CHECK_MSG(solve(g, hi + 1.0 / kScale).feasible,
                  "demand must be coverable at omega = total demand");
  while (hi - lo > tol) {
    const double mid = 0.5 * (lo + hi);
    if (solve(g, mid).feasible)
      hi = mid;
    else
      lo = mid;
  }
  return hi;
}

double radius_fixed_point(
    const std::function<double(std::int64_t)>& value_at_radius) {
  // v(k) is non-increasing; ω* is the crossing of v(⌊ω⌋) with the
  // identity (proof of Lemma 2.2.3): find the largest k with v(k) >= k.
  // If v(k) < k+1 the fixed point is interior (ω* = v(k)); otherwise it
  // sits at the jump (ω* = k+1).
  std::int64_t k = 0;
  double vk = value_at_radius(0);
  for (;;) {
    if (vk < static_cast<double>(k) + 1.0)
      return std::max(vk, static_cast<double>(k));
    const double vnext = value_at_radius(k + 1);
    CMVRP_CHECK_MSG(vnext <= vk + 1e-6, "LP value must be non-increasing in r");
    ++k;
    vk = vnext;
    CMVRP_CHECK_MSG(k < (std::int64_t{1} << 30), "fixed point search diverged");
  }
}

TransportationInstance lattice_instance(const DemandMap& d, std::int64_t r) {
  return build_bipartite(d, r).instance;
}

TransportationResult transportation_feasible(const DemandMap& d,
                                             std::int64_t r, double omega) {
  const LatticeBipartite b = build_bipartite(d, r);
  CMVRP_CHECK_MSG(!b.demands.empty(), "transportation with empty demand");
  const TransportationInstance& g = b.instance;
  const Solved s = solve(g, omega);
  TransportationResult result;
  result.feasible = s.feasible;
  if (!result.feasible) return result;
  std::size_t id = g.demand.size();  // past the demand edges
  for (std::size_t i = 0; i < g.arcs.size(); ++i) {
    ++id;  // the supply edge
    for (std::size_t j : g.arcs[i]) {
      const std::int64_t f = s.flow.flow_on(id++);
      if (f > 0)
        result.plan.push_back(TransportationPlanEntry{
            b.suppliers[i], b.demands[j], static_cast<double>(f) / kScale});
    }
  }
  return result;
}

}  // namespace cmvrp
