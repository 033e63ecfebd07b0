#include <gtest/gtest.h>

#include "grid/neighborhood.h"
#include "stream/won_search.h"
#include "util/rng.h"
#include "vrp/cvrp.h"
#include "vrp/greedy_baseline.h"
#include "workload/generators.h"

namespace cmvrp {
namespace {

std::vector<Point> random_points(std::uint64_t seed, std::size_t n,
                                 std::int64_t span) {
  Rng rng(seed);
  std::vector<Point> pts;
  PointSet seen;
  while (pts.size() < n) {
    const Point p{rng.next_int(0, span), rng.next_int(0, span)};
    if (seen.insert(p).second) pts.push_back(p);
  }
  return pts;
}

TEST(Cvrp, ClarkeWrightProducesValidRoutes) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    Rng rng(seed * 13);
    CvrpInstance inst;
    inst.depot = Point{0, 0};
    inst.vehicle_capacity = 10.0;
    const auto pts = random_points(seed, 14, 16);
    for (const auto& p : pts) {
      inst.customers.push_back(p);
      inst.demands.push_back(static_cast<double>(rng.next_int(1, 5)));
    }
    const auto sol = clarke_wright(inst);
    EXPECT_TRUE(cvrp_solution_valid(inst, sol)) << "seed " << seed;
  }
}

TEST(Cvrp, MergesReduceRouteCount) {
  // Customers clustered together with small demands should share routes.
  CvrpInstance inst;
  inst.depot = Point{0, 0};
  inst.vehicle_capacity = 100.0;
  for (int i = 0; i < 6; ++i) {
    inst.customers.push_back(Point{20 + i, 20});
    inst.demands.push_back(1.0);
  }
  const auto sol = clarke_wright(inst);
  ASSERT_TRUE(cvrp_solution_valid(inst, sol));
  EXPECT_EQ(sol.routes.size(), 1u);  // all merged into one run
}

TEST(Cvrp, CapacityForcesSplit) {
  CvrpInstance inst;
  inst.depot = Point{0, 0};
  inst.vehicle_capacity = 2.0;
  for (int i = 0; i < 4; ++i) {
    inst.customers.push_back(Point{5 + i, 5});
    inst.demands.push_back(1.0);
  }
  const auto sol = clarke_wright(inst);
  ASSERT_TRUE(cvrp_solution_valid(inst, sol));
  EXPECT_GE(sol.routes.size(), 2u);
}

TEST(Cvrp, RejectsOversizedCustomer) {
  CvrpInstance inst;
  inst.depot = Point{0, 0};
  inst.vehicle_capacity = 1.0;
  inst.customers.push_back(Point{1, 1});
  inst.demands.push_back(5.0);
  EXPECT_THROW(clarke_wright(inst), check_error);
}

TEST(Greedy, ServesLightLoadCheaply) {
  const Box region(Point{0, 0}, Point{7, 7});
  std::vector<Job> jobs{{Point{3, 3}, 0}, {Point{4, 4}, 1}};
  const auto r = run_greedy_baseline(region, 2.0, jobs);
  EXPECT_TRUE(r.all_served);
  EXPECT_DOUBLE_EQ(r.max_energy_spent, 1.0);  // nearest vehicles in place
}

TEST(Greedy, MinCapacityFindsThreshold) {
  const Box region(Point{0, 0}, Point{5, 5});
  std::vector<Job> jobs;
  for (int i = 0; i < 20; ++i) jobs.push_back({Point{2, 2}, i});
  const double w = greedy_min_capacity(region, jobs);
  // Sanity: capacity must lie between 1 (one job each, zero travel is
  // impossible for all) and a crude upper bound.
  EXPECT_GT(w, 1.0);
  EXPECT_LT(w, 21.0);
  EXPECT_TRUE(run_greedy_baseline(region, w, jobs).all_served);
  EXPECT_FALSE(run_greedy_baseline(region, w - 0.2, jobs).all_served);
}

TEST(Greedy, ComparableOrderToDistributedStrategy) {
  // Both serve the same stream; the centralized greedy with global
  // knowledge should not need wildly more capacity than the paper's
  // strategy bound — they agree up to constants (context check, not a
  // theorem from the paper).
  Rng rng(17);
  const Box region(Point{0, 0}, Point{7, 7});
  const DemandMap d = uniform_demand(region, 48, rng);
  Rng order(18);
  const auto jobs = stream_from_demand(d, ArrivalOrder::kShuffled, order);
  const double greedy_w = greedy_min_capacity(region, jobs, 0.1);
  const auto strategy = find_min_online_capacity(jobs, 2, 1, 0.1);
  EXPECT_GT(greedy_w, 0.0);
  EXPECT_GT(strategy.won_empirical, 0.0);
  EXPECT_LT(greedy_w / strategy.won_empirical, 50.0);
  EXPECT_LT(strategy.won_empirical / std::max(greedy_w, 1e-9), 50.0);
}

}  // namespace
}  // namespace cmvrp
