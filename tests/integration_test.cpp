// Cross-module integration: each test drives two or more subsystems and
// checks an identity the paper's theory links them by.
#include <gtest/gtest.h>

#include <cmath>

#include "core/algorithm1.h"
#include "core/cube_bound.h"
#include "core/offline_planner.h"
#include "core/omega.h"
#include "flow/transportation.h"
#include "stream/engine.h"
#include "stream/won_search.h"
#include "util/rng.h"
#include "workload/generators.h"

namespace cmvrp {
namespace {

// --- offline plan vs flow-based transportation --------------------------------

TEST(Integration, TransportationPlanAlsoCoversPlannedDemand) {
  // The max-flow oracle at ω = plan's in-place budget and radius = cube
  // diameter must be feasible whenever the planner succeeded: the plan is
  // one particular feasible transport, the LP finds the best one.
  Rng rng(7);
  const DemandMap d = uniform_demand(Box(Point{0, 0}, Point{7, 7}), 40, rng);
  const OfflinePlan plan = plan_offline(d);
  ASSERT_TRUE(verify_plan(plan, d).ok);
  const std::int64_t radius = 2 * plan.bound.cube_side;  // covers any cube
  const auto t =
      transportation_feasible(d, radius, plan.in_place_budget + 1.0);
  EXPECT_TRUE(t.feasible);
}

TEST(Integration, PlanEnergyNeverBeatsLpLowerBound) {
  // ω* (flow fixed point) is a lower bound on any plan's max energy: the
  // plan moves real energy over real distances.
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    Rng rng(seed);
    const DemandMap d =
        uniform_demand(Box(Point{0, 0}, Point{5, 5}), 25, rng);
    const double omega_star = omega_star_flow(d);
    const OfflinePlan plan = plan_offline(d);
    const PlanCheck check = verify_plan(plan, d);
    ASSERT_TRUE(check.ok);
    EXPECT_GE(check.max_energy + 1e-6, omega_star) << "seed " << seed;
  }
}

// --- Algorithm 1 vs exact machinery -----------------------------------------

TEST(Integration, Algorithm1UpperBoundsEveryExactQuantity) {
  for (std::uint64_t seed = 11; seed <= 16; ++seed) {
    Rng rng(seed);
    const std::int64_t n = 16;
    DemandMap d(2);
    for (int k = 0; k < 12; ++k)
      d.add(Point{rng.next_int(0, n - 1), rng.next_int(0, n - 1)},
            static_cast<double>(rng.next_int(1, 40)));
    const auto alg = algorithm1(d, n);
    const double omega_star = omega_star_flow(d);
    // The estimate is claimed to be >= Woff >= omega*.
    EXPECT_GE(alg.estimate + 1e-9, omega_star) << "seed " << seed;
  }
}

// --- offline vs online (Theorem 1.4.2 both directions) ----------------------

TEST(Integration, OnlineNeverCheaperThanOfflineLowerBound) {
  Rng rng(23), order(24);
  const DemandMap d = uniform_demand(Box(Point{0, 0}, Point{6, 6}), 35, rng);
  const auto jobs = stream_from_demand(d, ArrivalOrder::kShuffled, order);
  const auto r = find_min_online_capacity(jobs, 2, 1, 0.1);
  const double omega_star = omega_star_flow(d);
  // Won >= Woff >= omega* (up to unit-job granularity: a vehicle spends
  // at least 1 serving its first job).
  EXPECT_GE(r.won_empirical + 1e-6, std::max(omega_star, 1.0) - 0.2);
}

TEST(Integration, ArrivalOrderDoesNotChangeOfflineBoundsButMayChangeWon) {
  // d(·) fixes the offline quantities; the online requirement may vary
  // with order but stays under the same Lemma 3.3.1 cap.
  const DemandMap d = line_demand(8, 6.0, Point{0, 0});
  Rng r1(31), r2(32);
  const auto sorted_jobs = stream_from_demand(d, ArrivalOrder::kSorted, r1);
  const auto rr_jobs = stream_from_demand(d, ArrivalOrder::kRoundRobin, r2);
  const auto a = find_min_online_capacity(sorted_jobs, 2, 1, 0.1);
  const auto b = find_min_online_capacity(rr_jobs, 2, 1, 0.1);
  EXPECT_DOUBLE_EQ(a.omega_c, b.omega_c);
  EXPECT_LE(a.won_empirical, a.won_theory + 0.2);
  EXPECT_LE(b.won_empirical, b.won_theory + 0.2);
}

// --- transportation oracle vs min_feasible_omega -----------------------------

TEST(Integration, TransportationFeasibleExactlyFromMinOmega) {
  // The bisected minimal ω is where the transportation oracle flips:
  // feasible just above it, infeasible once the supply is starved below.
  DemandMap demand(2);
  demand.set(Point{0, 0}, 10.0);
  const std::int64_t r = 2;
  const double omega = min_feasible_omega(demand, r, 1e-4);
  EXPECT_TRUE(transportation_feasible(demand, r, omega + 1e-3).feasible);
  EXPECT_FALSE(transportation_feasible(demand, r, omega - 0.01).feasible);
}

// --- workload -> every consumer ------------------------------------------------

TEST(Integration, StreamAndMapViewsAgreeEverywhere) {
  Rng rng(53), order(54);
  const DemandMap d =
      clustered_demand(Box(Point{0, 0}, Point{9, 9}), 2, 60, 1.5, rng);
  const auto jobs = stream_from_demand(d, ArrivalOrder::kShuffled, order);
  const DemandMap back = demand_of_stream(jobs, 2);
  EXPECT_EQ(back.support_size(), d.support_size());
  EXPECT_DOUBLE_EQ(back.total(), d.total());
  // Same cube bound either way (the online default config depends on it).
  EXPECT_DOUBLE_EQ(cube_bound(back).omega_c, cube_bound(d).omega_c);
}

// --- dimensional sweep: the pipeline in 1-D and 3-D ---------------------------

TEST(Integration, OfflinePipelineWorksInOneAndThreeDimensions) {
  {
    DemandMap d(1);
    d.set(Point{4}, 30.0);
    d.set(Point{9}, 12.0);
    const OfflinePlan plan = plan_offline(d);
    const PlanCheck check = verify_plan(plan, d);
    EXPECT_TRUE(check.ok) << check.issue;
    EXPECT_LE(check.max_energy,
              (2.0 * 3.0 + 1.0) * plan.bound.omega_c + 1e-6);
  }
  {
    DemandMap d(3);
    d.set(Point{1, 1, 1}, 100.0);
    d.set(Point{3, 0, 2}, 40.0);
    const OfflinePlan plan = plan_offline(d);
    const PlanCheck check = verify_plan(plan, d);
    EXPECT_TRUE(check.ok) << check.issue;
    EXPECT_LE(check.max_energy,
              (2.0 * 27.0 + 3.0) * plan.bound.omega_c + 1e-6);
  }
}

TEST(Integration, OnlineStrategyServesInOneAndThreeDimensions) {
  {
    std::vector<Job> jobs;
    for (int i = 0; i < 20; ++i) jobs.push_back({Point{3}, i});
    StreamConfig cfg;
    cfg.online.capacity = 10.0;  // 1-D cubes hold only `side` vehicles
    cfg.online.cube_side = 4;
    cfg.online.anchor = Point{0};
    const OnlineMetrics m = serve_stream(1, cfg, jobs).metrics;
    EXPECT_EQ(m.jobs_failed, 0u);
    EXPECT_GE(m.replacements, 1u);
  }
  {
    std::vector<Job> jobs;
    for (int i = 0; i < 30; ++i) jobs.push_back({Point{1, 1, 1}, i});
    StreamConfig cfg;
    cfg.online.capacity = 8.0;
    cfg.online.cube_side = 3;
    cfg.online.anchor = Point{0, 0, 0};
    const OnlineMetrics m = serve_stream(3, cfg, jobs).metrics;
    EXPECT_EQ(m.jobs_failed, 0u);
    EXPECT_GE(m.replacements, 1u);
  }
}

}  // namespace
}  // namespace cmvrp
