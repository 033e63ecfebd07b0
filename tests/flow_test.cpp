#include <gtest/gtest.h>

#include "flow/dinic.h"
#include "flow/transportation.h"
#include "grid/demand_map.h"
#include "util/rng.h"

namespace cmvrp {
namespace {

TEST(Dinic, SimplePath) {
  Dinic g(3);
  g.add_edge(0, 1, 5);
  g.add_edge(1, 2, 3);
  EXPECT_EQ(g.max_flow(0, 2), 3);
}

TEST(Dinic, ClassicDiamond) {
  Dinic g(4);
  g.add_edge(0, 1, 10);
  g.add_edge(0, 2, 10);
  g.add_edge(1, 3, 10);
  g.add_edge(2, 3, 10);
  const auto e = g.add_edge(1, 2, 1);
  EXPECT_EQ(g.max_flow(0, 3), 20);
  EXPECT_EQ(g.flow_on(e), 0);  // cross edge unused at optimum
}

TEST(Dinic, RespectsBottleneck) {
  Dinic g(6);
  g.add_edge(0, 1, 16);
  g.add_edge(0, 2, 13);
  g.add_edge(1, 3, 12);
  g.add_edge(2, 1, 4);
  g.add_edge(3, 2, 9);
  g.add_edge(2, 4, 14);
  g.add_edge(4, 3, 7);
  g.add_edge(3, 5, 20);
  g.add_edge(4, 5, 4);
  EXPECT_EQ(g.max_flow(0, 5), 23);  // CLRS example
}

TEST(Dinic, MinCutSeparatesSourceSide) {
  Dinic g(4);
  g.add_edge(0, 1, 100);
  g.add_edge(1, 2, 1);  // the cut
  g.add_edge(2, 3, 100);
  EXPECT_EQ(g.max_flow(0, 3), 1);
  const auto side = g.min_cut_side();
  EXPECT_TRUE(side[0]);
  EXPECT_TRUE(side[1]);
  EXPECT_FALSE(side[2]);
  EXPECT_FALSE(side[3]);
}

TEST(Dinic, FlowConservationRandomGraphs) {
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    Rng rng(seed);
    const std::size_t n = 8;
    Dinic g(n);
    std::vector<std::size_t> ids;
    std::vector<std::pair<std::size_t, std::size_t>> ends;
    for (int e = 0; e < 20; ++e) {
      std::size_t u = rng.next_below(n), v = rng.next_below(n);
      if (u == v) continue;
      ids.push_back(g.add_edge(u, v, rng.next_int(0, 10)));
      ends.emplace_back(u, v);
    }
    g.max_flow(0, n - 1);
    // Net flow at internal nodes must vanish.
    std::vector<std::int64_t> net(n, 0);
    for (std::size_t i = 0; i < ids.size(); ++i) {
      const auto f = g.flow_on(ids[i]);
      EXPECT_GE(f, 0);
      EXPECT_LE(f, g.capacity_on(ids[i]));
      net[ends[i].first] -= f;
      net[ends[i].second] += f;
    }
    for (std::size_t v = 1; v + 1 < n; ++v) EXPECT_EQ(net[v], 0);
    EXPECT_EQ(net[0], -net[n - 1]);
  }
}

TEST(Transportation, SinglePointNeedsFullDemandAtRadiusZero) {
  DemandMap d(2);
  d.set(Point{0, 0}, 5.0);
  EXPECT_FALSE(transportation_feasible(d, 0, 4.9).feasible);
  EXPECT_TRUE(transportation_feasible(d, 0, 5.0).feasible);
}

TEST(Transportation, RadiusSpreadsLoad) {
  DemandMap d(2);
  d.set(Point{0, 0}, 5.0);
  // radius 1: 5 suppliers (the L1 ball) each need only 1 unit.
  EXPECT_TRUE(transportation_feasible(d, 1, 1.0).feasible);
  EXPECT_FALSE(transportation_feasible(d, 1, 0.9).feasible);
}

TEST(Transportation, PlanCoversDemands) {
  DemandMap d(2);
  d.set(Point{0, 0}, 3.0);
  d.set(Point{2, 0}, 2.0);
  const auto r = transportation_feasible(d, 1, 1.0);
  ASSERT_TRUE(r.feasible);
  DemandMap covered(2);
  for (const auto& e : r.plan) {
    EXPECT_LE(l1_distance(e.from, e.to), 1);
    covered.add(e.to, e.amount);
  }
  EXPECT_NEAR(covered.at(Point{0, 0}), 3.0, 1e-5);
  EXPECT_NEAR(covered.at(Point{2, 0}), 2.0, 1e-5);
}

TEST(Transportation, MinOmegaMatchesBallRatio) {
  // Single point of demand D at radius r: minimal omega is D / |N_r|.
  DemandMap d(2);
  d.set(Point{0, 0}, 130.0);
  const double expected = 130.0 / 13.0;  // |N_2| = 13 in 2-D
  EXPECT_NEAR(min_feasible_omega(d, 2), expected, 1e-4);
}

TEST(Transportation, MinOmegaMonotoneInRadius) {
  Rng rng(99);
  DemandMap d(2);
  for (int i = 0; i < 6; ++i)
    d.add(Point{rng.next_int(0, 4), rng.next_int(0, 4)},
          static_cast<double>(rng.next_int(1, 9)));
  double prev = 1e300;
  for (std::int64_t r = 0; r <= 4; ++r) {
    const double v = min_feasible_omega(d, r, 1e-5);
    EXPECT_LE(v, prev + 1e-4);
    prev = v;
  }
}

}  // namespace
}  // namespace cmvrp
