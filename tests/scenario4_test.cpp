// §3.2.5 scenario 4: a *large* (more than constant) number of active
// vehicles break down. Chapter 4's message is that beyond constant
// breakage the clean Won = Θ(Woff) story fails — the system degrades and
// the energy requirement depends on arrival order. These tests pin the
// *transition*: constant breakage is absorbed; mass breakage costs jobs
// unless capacity grows.
#include <gtest/gtest.h>

#include "broken/longevity.h"
#include "grid/neighborhood.h"
#include "online/capacity_search.h"
#include "stream/engine.h"
#include "util/rng.h"
#include "workload/generators.h"

namespace cmvrp {
namespace {

struct SweepOutcome {
  double broken_fraction;
  std::uint64_t failed;
  std::uint64_t rescues;
};

SweepOutcome run_with_breakage(double fraction, double capacity,
                               std::uint64_t seed) {
  const Box field(Point{0, 0}, Point{11, 11});
  Rng rng(seed);
  const auto jobs = smart_dust_stream(field, 150, 0.05, rng);
  const DemandMap demand = demand_of_stream(jobs, 2);
  StreamConfig cfg;
  cfg.online = default_online_config(demand, seed);
  cfg.online.capacity = capacity;
  StreamEngine engine(2, cfg);
  // Break a `fraction` of all vertices (longevity 0: dead from the start).
  Rng pick(seed + 1);
  std::int64_t to_break =
      static_cast<std::int64_t>(fraction * 12.0 * 12.0);
  for (std::int64_t k = 0; k < to_break; ++k)
    engine.inject_break_after(
        Point{pick.next_int(0, 11), pick.next_int(0, 11)}, 0.0);
  engine.ingest(jobs);
  const OnlineMetrics m = engine.finish().metrics;
  return {fraction, m.jobs_failed, m.monitor_initiations};
}

TEST(Scenario4, ConstantBreakageAbsorbed) {
  const auto r = run_with_breakage(0.03, 14.0, 5);  // ~4 vehicles
  EXPECT_EQ(r.failed, 0u);
  EXPECT_GE(r.rescues, 1u);
}

TEST(Scenario4, DegradationGrowsWithBreakageFraction) {
  // More breakage strictly shrinks the replacement pool; at fixed W the
  // failure count must be non-trivial once half the fleet is dead.
  const auto light = run_with_breakage(0.05, 14.0, 7);
  const auto heavy = run_with_breakage(0.60, 14.0, 7);
  EXPECT_LE(light.failed, heavy.failed);
  EXPECT_GT(heavy.failed, 0u);
}

TEST(Scenario4, ExtraCapacityBuysBackSomeLosses) {
  const auto tight = run_with_breakage(0.40, 10.0, 11);
  const auto roomy = run_with_breakage(0.40, 40.0, 11);
  EXPECT_LE(roomy.failed, tight.failed);
}

TEST(Scenario4, TotalBreakageServesNothing) {
  const Box field(Point{0, 0}, Point{5, 5});
  std::vector<Job> jobs;
  for (int i = 0; i < 10; ++i) jobs.push_back({Point{2, 2}, i});
  const DemandMap demand = demand_of_stream(jobs, 2);
  StreamConfig cfg;
  cfg.online = default_online_config(demand, 3);
  StreamEngine engine(2, cfg);
  Box::cube(Point{0, 0}, 6).for_each_point(
      [&](const Point& p) { engine.inject_break_after(p, 0.0); });
  engine.ingest(jobs);
  const OnlineMetrics m = engine.finish().metrics;
  EXPECT_EQ(m.jobs_served, 0u);
  EXPECT_EQ(m.jobs_failed, jobs.size());
}

TEST(Scenario4, BrokenLowerBoundRisesWithDeadFraction) {
  // Theorem 4.1.1's weighted bound reacts to mass breakage: killing the
  // vertices around the demand raises the required ω.
  DemandMap d(2);
  d.set(Point{0, 0}, 40.0);
  LongevityMap none(2, 1.0);
  LongevityMap ring1(2, 1.0);
  for (const auto& q : l1_ball_points(Point{0, 0}, 2))
    if (q != (Point{0, 0})) ring1.set(q, 0.0);
  const double w_all = broken_omega_for_set({Point{0, 0}}, d, none);
  const double w_dead = broken_omega_for_set({Point{0, 0}}, d, ring1);
  EXPECT_GT(w_dead, w_all);
}

}  // namespace
}  // namespace cmvrp
