#include <gtest/gtest.h>

#include "core/omega.h"
#include "graph/graph.h"
#include "graph/graph_omega.h"
#include "util/rng.h"

namespace cmvrp {
namespace {

std::vector<double> demand_vector(const SpatialGraph& sg,
                                  const DemandMap& d) {
  std::vector<double> out(sg.points.size(), 0.0);
  for (const auto& [p, v] : d) {
    auto it = sg.index.find(p);
    if (it != sg.index.end()) out[it->second] = v;
  }
  return out;
}

TEST(Graph, BuildersProduceExpectedShape) {
  const Box box(Point{0, 0}, Point{3, 2});
  const SpatialGraph grid = make_grid_graph(box);
  EXPECT_EQ(grid.graph.num_vertices(), 12u);
  EXPECT_EQ(grid.graph.num_edges(), 3u * 3u + 4u * 2u);  // 17 grid edges
  EXPECT_TRUE(grid.graph.connected());

  const SpatialGraph torus = make_torus(4);
  EXPECT_EQ(torus.graph.num_vertices(), 16u);
  EXPECT_EQ(torus.graph.num_edges(), 32u);  // 2 per vertex on a torus
  EXPECT_TRUE(torus.graph.connected());
  // Every torus vertex has degree 4.
  for (std::size_t v = 0; v < 16; ++v)
    EXPECT_EQ(torus.graph.neighbors(v).size(), 4u);
}

TEST(Graph, HolesRemoveVerticesAndEdges) {
  const Box box(Point{0, 0}, Point{2, 2});
  const SpatialGraph holed =
      make_grid_with_holes(box, {Point{1, 1}});  // knock out the center
  EXPECT_EQ(holed.graph.num_vertices(), 8u);
  EXPECT_TRUE(holed.graph.connected());  // the ring survives
  EXPECT_EQ(holed.index.count(Point{1, 1}), 0u);
}

TEST(Graph, DistancesMatchManhattanOnPlainGrid) {
  const Box box(Point{0, 0}, Point{5, 5});
  const SpatialGraph sg = make_grid_graph(box);
  const auto dist = graph_distances(sg.graph, sg.index.at(Point{2, 3}));
  Rng rng(3);
  for (int t = 0; t < 20; ++t) {
    const Point q{rng.next_int(0, 5), rng.next_int(0, 5)};
    EXPECT_EQ(dist[sg.index.at(q)], l1_distance(Point{2, 3}, q));
  }
}

TEST(Graph, DistancesRespectHoles) {
  // A wall forces a detour.
  const Box box(Point{0, 0}, Point{4, 2});
  const SpatialGraph sg = make_grid_with_holes(
      box, {Point{2, 0}, Point{2, 1}});  // vertical wall with a gap at y=2
  const auto dist = graph_distances(sg.graph, sg.index.at(Point{0, 0}));
  // Straight-line distance to (4,0) is 4; the wall forces up-and-over: 8.
  EXPECT_EQ(dist[sg.index.at(Point{4, 0})], 8);
}

TEST(Graph, TorusWrapsDistances) {
  const SpatialGraph sg = make_torus(8);
  const auto dist = graph_distances(sg.graph, sg.index.at(Point{0, 0}));
  EXPECT_EQ(dist[sg.index.at(Point{7, 0})], 1);  // wrap beats the long way
  EXPECT_EQ(dist[sg.index.at(Point{4, 4})], 8);  // antipode
}

TEST(Graph, WeightedRoadwaysPreferHighways) {
  const Box box(Point{0, 0}, Point{7, 4});
  const SpatialGraph sg =
      make_weighted_roadways(box, /*highway_rows=*/{2}, /*side_cost=*/5);
  const auto dist = graph_distances(sg.graph, sg.index.at(Point{0, 2}));
  // Along the highway: cost 7. Off-highway horizontal steps would cost 35.
  EXPECT_EQ(dist[sg.index.at(Point{7, 2})], 7);
  // One step off the highway costs 5.
  EXPECT_EQ(dist[sg.index.at(Point{0, 3})], 5);
}

TEST(GraphOmega, MatchesLatticeOmegaOnPlainGrid) {
  // The general-graph ω must coincide with the Z^ℓ implementation when the
  // graph *is* the grid (demand far from the boundary).
  Rng rng(11);
  const Box box(Point{0, 0}, Point{15, 15});
  const SpatialGraph sg = make_grid_graph(box);
  DemandMap d(2);
  for (int k = 0; k < 4; ++k)
    d.add(Point{rng.next_int(6, 9), rng.next_int(6, 9)},
          static_cast<double>(rng.next_int(1, 8)));
  const auto dv = demand_vector(sg, d);

  // Compare ω_T on the full support set.
  std::vector<std::size_t> t;
  for (const auto& p : d.support()) t.push_back(sg.index.at(p));
  EXPECT_NEAR(graph_omega_for_set(sg.graph, t, dv),
              omega_for_set(d.support(), d), 1e-9);

  // And the full ω*, by enumeration and by the one flow oracle — to the
  // bit, since both paths build the same instance at each radius and
  // bisect it on the same bracket.
  EXPECT_NEAR(graph_omega_star_enumerate(sg.graph, dv),
              omega_star_enumerate(d), 1e-9);
  EXPECT_EQ(graph_omega_star_flow(sg.graph, dv), omega_star_flow(d));

  // Those demands put ω* on a jump (2), which no bisected digit reaches;
  // 30 at one point crosses inside a segment (30 / |N_2| = 30 / 13).
  DemandMap one(2);
  one.set(Point{7, 8}, 30.0);
  const double interior = omega_star_flow(one);
  EXPECT_NEAR(interior, 30.0 / 13.0, 1e-5);
  EXPECT_EQ(graph_omega_star_flow(sg.graph, demand_vector(sg, one)),
            interior);
}

TEST(GraphOmega, FlowFixedPointMatchesEnumeration) {
  // The torus wraps its balls, the holed grid detours around a wall, and
  // the roadways make side streets cost 2 per step. Demands up to 30 put
  // each ω* inside a segment (2.08, 2.21 and 3.7), not on a jump, so the
  // bisected digits are what is compared.
  Rng rng(13);
  const Box box(Point{0, 0}, Point{7, 7});
  const SpatialGraph graphs[] = {
      make_torus(8),
      make_grid_with_holes(box, {Point{3, 2}, Point{3, 3}, Point{3, 4}}),
      make_weighted_roadways(box, /*highway_rows=*/{2, 5}, /*side_cost=*/2)};
  for (const SpatialGraph& sg : graphs) {
    std::vector<double> demand(sg.points.size(), 0.0);
    for (int k = 0; k < 4; ++k)
      demand[rng.next_below(demand.size())] +=
          static_cast<double>(rng.next_int(1, 30));
    const double by_enum = graph_omega_star_enumerate(sg.graph, demand);
    const double by_flow = graph_omega_star_flow(sg.graph, demand);
    EXPECT_NEAR(by_flow, by_enum, 1e-4) << sg.points.size() << " vertices";
  }
  // One vertex of fractional demand: scaled, it rounds up past the
  // bisection bracket's rounded-down supply, which must still be accepted.
  std::vector<double> one(graphs[0].points.size(), 0.0);
  one[5] = 0.3;
  EXPECT_NEAR(graph_omega_star_flow(graphs[0].graph, one),
              graph_omega_star_enumerate(graphs[0].graph, one), 1e-4);
}

TEST(GraphOmega, ZeroDemandHasZeroOmega) {
  // No demand is the empty instance at every radius, on a graph as on
  // the lattice.
  const SpatialGraph sg = make_torus(4);
  const std::vector<double> none(sg.points.size(), 0.0);
  EXPECT_EQ(graph_omega_star_flow(sg.graph, none), 0.0);
  EXPECT_EQ(omega_star_flow(DemandMap(2)), 0.0);
}

TEST(GraphOmega, HolesRaiseOmega) {
  // Obstacles shrink the balls around the demand, so ω can only rise
  // relative to the free grid.
  const Box box(Point{0, 0}, Point{8, 8});
  DemandMap d(2);
  d.set(Point{4, 4}, 26.0);
  const SpatialGraph free_grid = make_grid_graph(box);
  std::vector<Point> holes;
  for (const auto& q : (Point{4, 4}).unit_neighbors())
    holes.push_back(q.translated(0, 0));
  // Remove 3 of the 4 neighbors (keep connectivity).
  holes.pop_back();
  const SpatialGraph holed = make_grid_with_holes(box, holes);

  const auto dv_free = demand_vector(free_grid, d);
  const auto dv_holed = demand_vector(holed, d);
  const double w_free = graph_omega_star_flow(free_grid.graph, dv_free);
  const double w_holed = graph_omega_star_flow(holed.graph, dv_holed);
  EXPECT_GT(w_holed, w_free);
}

TEST(GraphOmega, TorusBeatsGridNearBoundary) {
  // Demand at a grid corner has a truncated neighborhood; on the torus the
  // same demand sees the full ball, so ω is no larger.
  const std::int64_t n = 8;
  DemandMap d(2);
  d.set(Point{0, 0}, 40.0);
  const SpatialGraph grid = make_grid_graph(Box::cube(Point{0, 0}, n));
  const SpatialGraph torus = make_torus(n);
  const double w_grid =
      graph_omega_star_flow(grid.graph, demand_vector(grid, d));
  const double w_torus =
      graph_omega_star_flow(torus.graph, demand_vector(torus, d));
  EXPECT_LE(w_torus, w_grid + 1e-6);
  EXPECT_LT(w_torus, w_grid);  // strictly better at the corner
}

TEST(GraphOmega, RoadwayCrossingsAreBitExact) {
  // Side cost 3 on a 3×5 grid whose middle row is the highway: from (1, 2)
  // the distances are 0, 1, 3, 4, 6 and 7 (balls of 1, 3, 5, 9, 11, 15),
  // so M has no breakpoint at 2 or 5 and two crossings fall in those gaps.
  // The values were recorded, as hex floats, from the integer-radius march
  // that omega_crossing replaced.
  const SpatialGraph sg =
      make_weighted_roadways(Box(Point{0, 0}, Point{2, 4}), {2}, 3);
  const std::size_t v = sg.index.at(Point{1, 2});
  auto omega = [&sg, v](double s) {
    std::vector<double> demand(sg.points.size(), 0.0);
    demand[v] = s;
    return graph_omega_for_set(sg.graph, {v}, demand);
  };
  EXPECT_EQ(omega(7.0), 0x1.2aaaaaaaaaaabp+1);   // 7/3 on [1, 3)
  EXPECT_EQ(omega(12.0), 0x1.8p+1);              // jump at 3
  EXPECT_EQ(omega(50.0), 0x1.638e38e38e38ep+2);  // 50/9 on [4, 6)
  EXPECT_EQ(omega(60.0), 0x1.8p+2);              // jump at 6
  EXPECT_EQ(omega(100.0), 0x1.cp+2);             // jump onto the whole graph
}

TEST(GraphOmega, WeightedEdgesStretchOmega) {
  // Doubling all edge lengths doubles travel distances: balls shrink per
  // integer radius and ω grows (not necessarily by exactly 2 because of
  // the jump semantics, but strictly).
  const Box box(Point{0, 0}, Point{6, 6});
  DemandMap d(2);
  d.set(Point{3, 3}, 30.0);
  const SpatialGraph unit = make_grid_graph(box);
  // Rebuild with length-2 edges.
  SpatialGraph stretched;
  stretched.points = unit.points;
  stretched.index = unit.index;
  stretched.graph = Graph(unit.points.size());
  for (std::size_t v = 0; v < unit.points.size(); ++v)
    for (int axis = 0; axis < 2; ++axis) {
      auto it = unit.index.find(unit.points[v].translated(axis, 1));
      if (it != unit.index.end())
        stretched.graph.add_edge(v, it->second, 2);
    }
  const double w_unit =
      graph_omega_star_flow(unit.graph, demand_vector(unit, d));
  const double w_stretched =
      graph_omega_star_flow(stretched.graph, demand_vector(stretched, d));
  EXPECT_GT(w_stretched, w_unit);
}

}  // namespace
}  // namespace cmvrp
