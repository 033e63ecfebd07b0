#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "broken/longevity.h"
#include "broken/scenario.h"
#include "core/omega.h"
#include "util/rng.h"

namespace cmvrp {
namespace {

// d(0,0) = 4; p(0,0) = 1 and p(1,0) = 0.3, every other p 0. The neighbour
// joins Theorem 4.1.1's mass at the fractional threshold 1 / 0.3 = 10/3.
struct FractionalReach {
  DemandMap d{2};
  LongevityMap lg{2, 0.0};
  FractionalReach() {
    d.set(Point{0, 0}, 4.0);
    lg.set(Point{0, 0}, 1.0);
    lg.set(Point{1, 0}, 0.3);
  }
};

// LP (4.2)'s radius fixed point, walked by hand over integer radii.
double broken_lp_fixed_point(const DemandMap& d, const LongevityMap& lg) {
  double vk = broken_lp_value_at_radius(d, lg, 0);
  for (std::int64_t k = 0; k < 64; ++k) {
    if (vk < static_cast<double>(k) + 1.0)
      return std::max(vk, static_cast<double>(k));
    vk = broken_lp_value_at_radius(d, lg, k + 1);
  }
  return -1.0;
}

TEST(Longevity, DefaultsAndOverrides) {
  LongevityMap lg(2, 1.0);
  EXPECT_DOUBLE_EQ(lg.at(Point{5, 5}), 1.0);
  lg.set(Point{0, 0}, 0.25);
  EXPECT_DOUBLE_EQ(lg.at(Point{0, 0}), 0.25);
  EXPECT_THROW(lg.set(Point{1, 1}, 1.5), check_error);
}

TEST(BrokenOmega, AllHealthyReducesToEquationOneOne) {
  // With every p_i = 1, Theorem 4.1.1's ω_T is exactly Eq. (1.1)'s ω_T.
  const LongevityMap healthy(2, 1.0);
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    Rng rng(seed);
    DemandMap d(2);
    for (int k = 0; k < 4; ++k)
      d.add(Point{rng.next_int(0, 3), rng.next_int(0, 3)},
            static_cast<double>(rng.next_int(1, 9)));
    const auto support = d.support();
    // Unit weights make it the same crossing, to the bit.
    EXPECT_EQ(broken_omega_for_set(support, d, healthy),
              omega_for_set(support, d))
        << "seed " << seed;
  }
}

TEST(BrokenOmega, DeadNeighborhoodRaisesOmega) {
  // Demand 26 at origin. Healthy: ω·|N_⌊ω⌋| = 26 crosses at ω = 2 exactly
  // (13·2 = 26). Killing the distance-1 ring removes 4 suppliers, so the
  // mass on [2,3) drops to 9 and ω rises to 26/9 ≈ 2.89.
  DemandMap d(2);
  d.set(Point{0, 0}, 26.0);
  const LongevityMap healthy(2, 1.0);
  LongevityMap holed(2, 1.0);
  for (const auto& q : (Point{0, 0}).unit_neighbors()) holed.set(q, 0.0);
  const double w_healthy =
      broken_omega_for_set({Point{0, 0}}, d, healthy);
  const double w_holed = broken_omega_for_set({Point{0, 0}}, d, holed);
  EXPECT_NEAR(w_healthy, 2.0, 1e-6);
  EXPECT_NEAR(w_holed, 26.0 / 9.0, 1e-6);
  EXPECT_GT(w_holed, w_healthy);
}

TEST(BrokenOmega, FractionalLongevityScalesReach) {
  // A vertex with p = 0.5 only counts once ω ≥ 2·dist, and contributes
  // only 0.5 supply.
  DemandMap d(2);
  d.set(Point{0, 0}, 4.0);
  LongevityMap half(2, 0.0);
  half.set(Point{0, 0}, 1.0);
  half.set(Point{3, 0}, 0.5);
  // Only k={0,0} and the p=.5 vertex at distance 3 exist. g(ω) =
  // ω·(1 + 0.5·[3 <= 0.5ω]) = ω for ω < 6, then 1.5ω.
  // g(4) = 4 = S → ω = 4 (before the helper wakes up).
  EXPECT_NEAR(broken_omega_for_set({Point{0, 0}}, d, half), 4.0, 1e-6);
  d.set(Point{0, 0}, 10.0);
  // Now ω = 10 would need g = 10; at ω ∈ [6,10/1.5): g = 1.5ω ≥ 10 at
  // ω = 6.67.
  EXPECT_NEAR(broken_omega_for_set({Point{0, 0}}, d, half), 10.0 / 1.5,
              1e-6);
}

TEST(BrokenOmega, FractionalReachThresholdIsExact) {
  // g(ω) = ω until 10/3, where it jumps to 1.3·10/3 > 4: ω_T is the
  // breakpoint itself, with no bisection slack.
  const FractionalReach f;
  EXPECT_DOUBLE_EQ(broken_omega_for_set({Point{0, 0}}, f.d, f.lg),
                   10.0 / 3.0);
}

TEST(BrokenOmega, NoPositiveLongevityThrows) {
  // No vertex ever supplies, so ω·0 never reaches the demand.
  DemandMap d(2);
  d.set(Point{0, 0}, 3.0);
  EXPECT_THROW(broken_omega_for_set({Point{0, 0}}, d, LongevityMap(2, 0.0)),
               check_error);
}

TEST(BrokenLp, MatchesEnumerationOnTinyInstances) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    Rng rng(seed * 31);
    DemandMap d(2);
    LongevityMap lg(2, 1.0);
    for (int k = 0; k < 3; ++k) {
      const Point p{rng.next_int(0, 2), rng.next_int(0, 2)};
      d.add(p, static_cast<double>(rng.next_int(1, 6)));
    }
    // A few broken/feeble vertices.
    lg.set(Point{1, 1}, 0.0);
    lg.set(Point{0, 1}, 0.5);
    // The LP's integer-radius fixed point equals max_T weighted ω_T here
    // only because p ∈ {0, ½, 1} at integer distances puts every reach
    // threshold dist/p on an integer (see IntegerRadiiMissAFractionalReach).
    const double enumerated = broken_lower_bound_enumerate(d, lg);
    const double fixed_point = broken_lp_fixed_point(d, lg);
    ASSERT_GE(fixed_point, 0.0);
    EXPECT_NEAR(fixed_point, enumerated, 1e-4) << "seed " << seed;
  }
}

TEST(BrokenLp, IntegerRadiiMissAFractionalReach) {
  // LP (4.2) gives (1,0) its arc only from radius 4 (1 <= 0.3·r), so the
  // radius walk reads 4 where Theorem 4.1.1's bound is 10/3.
  const FractionalReach f;
  EXPECT_DOUBLE_EQ(broken_lp_fixed_point(f.d, f.lg), 4.0);
  EXPECT_DOUBLE_EQ(broken_lower_bound_enumerate(f.d, f.lg), 10.0 / 3.0);
}

// --- Figure 4.1 -----------------------------------------------------------------

TEST(Fig41, ConstructionMatchesPaper) {
  const auto s = make_fig41(/*r1=*/3, /*r2=*/20);
  EXPECT_EQ(l1_distance(s.i, s.j), 6);
  EXPECT_EQ(l1_distance(s.i, s.k), 3);
  EXPECT_DOUBLE_EQ(s.demand.at(s.i), 3.0);
  EXPECT_DOUBLE_EQ(s.demand.at(s.j), 3.0);
  EXPECT_EQ(s.jobs.size(), 6u);
  EXPECT_DOUBLE_EQ(s.longevity.at(s.k), 1.0);
  EXPECT_DOUBLE_EQ(s.longevity.at(Point{1, 1}), 0.0);   // inside, not k
  EXPECT_DOUBLE_EQ(s.longevity.at(Point{30, 30}), 1.0); // outside
}

TEST(Fig41, LpBoundIsTwoR1) {
  for (std::int64_t r1 : {2, 4, 8}) {
    const auto s = make_fig41(r1, 4 * r1 + 2);
    const auto m = measure_fig41(s);
    EXPECT_EQ(m.lp_bound, 2.0 * static_cast<double>(r1)) << "r1=" << r1;
  }
}

TEST(Fig41, CrossingStopsAtRingTwoR1) {
  // ω_{i,j} = 2·r1 is a crossing inside the step that starts at ring 2·r1
  // (k alone supplies), so the BFS asks for no vertex beyond that ring.
  const auto s = make_fig41(/*r1=*/3, /*r2=*/14);
  const std::vector<Point> t{s.i, s.j};
  std::int64_t farthest = 0;
  const double omega = omega_for_set(
      t, s.demand,
      [&](const Point& p) {
        farthest = std::max(
            farthest, std::min(l1_distance(p, s.i), l1_distance(p, s.j)));
        return s.longevity.at(p);
      },
      s.longevity.positive_reach(t));
  EXPECT_EQ(omega, 6.0);
  EXPECT_EQ(farthest, 6);
}

TEST(Fig41, TrueRequirementOutgrowsLpBound) {
  double prev_ratio = 0.0;
  for (std::int64_t r1 : {2, 4, 8, 16}) {
    const auto s = make_fig41(r1, 4 * r1 + 2);
    const auto m = measure_fig41(s);
    // Paper: travel = r1 + (2r1-1)·2r1 — checked inside measure_fig41 —
    // so requirement/bound grows linearly in r1 (the bound is weak).
    EXPECT_GT(m.ratio, prev_ratio) << "r1=" << r1;
    EXPECT_GE(m.true_requirement,
              static_cast<double>(r1 + (2 * r1 - 1) * 2 * r1));
    prev_ratio = m.ratio;
  }
  EXPECT_GT(prev_ratio, 8.0);  // ratio ≈ r1 at r1 = 16
}

}  // namespace
}  // namespace cmvrp
