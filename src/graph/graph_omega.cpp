#include "graph/graph_omega.h"

#include <algorithm>
#include <limits>
#include <queue>

#include "core/omega.h"
#include "flow/transportation.h"
#include "util/check.h"

namespace cmvrp {
namespace {

constexpr std::int64_t kUnreachable = std::numeric_limits<std::int64_t>::max();

// LP (2.1) at radius r on graph balls: the suppliers are the vertices
// within r of the support, in vertex order, and the bracket is the
// vertex-order sum of the demand. No demand gives the empty instance.
TransportationInstance graph_instance(const Graph& g,
                                      const std::vector<double>& demand,
                                      std::int64_t r) {
  CMVRP_CHECK(r >= 0);
  CMVRP_CHECK(demand.size() == g.num_vertices());
  TransportationInstance inst;
  std::vector<std::size_t> demand_vertices;
  for (std::size_t v = 0; v < demand.size(); ++v)
    if (demand[v] > 0.0) {
      demand_vertices.push_back(v);
      inst.demand.push_back(demand[v]);
      inst.upper += demand[v];
    }
  if (demand_vertices.empty()) return inst;

  // Suppliers: vertices within distance r of the support. Arcs: supplier i
  // serves demand j when dist(i, j) <= r.
  const auto to_support = graph_distances(g, demand_vertices);
  for (std::size_t v = 0; v < g.num_vertices(); ++v) {
    if (to_support[v] == kUnreachable || to_support[v] > r) continue;
    const auto dist = graph_distances(g, v);
    auto& arcs = inst.arcs.emplace_back();
    for (std::size_t j = 0; j < demand_vertices.size(); ++j)
      if (dist[demand_vertices[j]] != kUnreachable &&
          dist[demand_vertices[j]] <= r)
        arcs.push_back(j);
  }
  return inst;
}

}  // namespace

std::vector<std::int64_t> graph_distances(
    const Graph& g, const std::vector<std::size_t>& seeds) {
  CMVRP_CHECK(!seeds.empty());
  std::vector<std::int64_t> dist(g.num_vertices(), kUnreachable);
  using Item = std::pair<std::int64_t, std::size_t>;
  std::priority_queue<Item, std::vector<Item>, std::greater<>> pq;
  for (std::size_t s : seeds) {
    CMVRP_CHECK(s < g.num_vertices());
    if (dist[s] != 0) {
      dist[s] = 0;
      pq.emplace(0, s);
    }
  }
  while (!pq.empty()) {
    const auto [d, v] = pq.top();
    pq.pop();
    if (d > dist[v]) continue;
    for (const auto& arc : g.neighbors(v)) {
      const std::int64_t nd = d + arc.length;
      if (nd < dist[arc.to]) {
        dist[arc.to] = nd;
        pq.emplace(nd, arc.to);
      }
    }
  }
  return dist;
}

std::vector<std::int64_t> graph_distances(const Graph& g, std::size_t src) {
  return graph_distances(g, std::vector<std::size_t>{src});
}

double graph_omega_for_set(const Graph& g,
                           const std::vector<std::size_t>& t,
                           const std::vector<double>& demand) {
  CMVRP_CHECK(!t.empty());
  CMVRP_CHECK(demand.size() == g.num_vertices());
  double s = 0.0;
  for (std::size_t v : t) s += demand[v];

  // |B_⌊ω⌋(T)| grows only at the distinct finite distances from T, so
  // those are M's breakpoints; unreachable vertices sort last.
  auto dist = graph_distances(g, t);
  std::sort(dist.begin(), dist.end());
  std::size_t in_ball = 0;
  return omega_crossing(s, [&dist, &in_ball] {
    const auto at = dist[in_ball];
    while (in_ball < dist.size() && dist[in_ball] == at) ++in_ball;
    const bool last = in_ball == dist.size() || dist[in_ball] == kUnreachable;
    return MassStep{static_cast<double>(at), static_cast<double>(in_ball),
                    last ? std::numeric_limits<double>::infinity()
                         : static_cast<double>(dist[in_ball])};
  });
}

double graph_omega_star_enumerate(const Graph& g,
                                  const std::vector<double>& demand,
                                  std::size_t max_support) {
  CMVRP_CHECK(demand.size() == g.num_vertices());
  std::vector<std::size_t> support;
  for (std::size_t v = 0; v < demand.size(); ++v)
    if (demand[v] > 0.0) support.push_back(v);
  CMVRP_CHECK(!support.empty());
  CMVRP_CHECK_MSG(support.size() <= max_support,
                  "support too large: " << support.size());
  double best = 0.0;
  std::vector<std::size_t> subset;
  for (std::uint64_t mask = 1; mask < (std::uint64_t{1} << support.size());
       ++mask) {
    subset.clear();
    for (std::size_t i = 0; i < support.size(); ++i)
      if (mask & (std::uint64_t{1} << i)) subset.push_back(support[i]);
    best = std::max(best, graph_omega_for_set(g, subset, demand));
  }
  return best;
}

double graph_omega_star_flow(const Graph& g,
                             const std::vector<double>& demand) {
  return radius_fixed_point([&g, &demand](std::int64_t r) {
    return min_feasible_omega(graph_instance(g, demand, r));
  });
}

}  // namespace cmvrp
