#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "core/closed_forms.h"
#include "core/cube_bound.h"
#include "core/omega.h"
#include "flow/transportation.h"
#include "grid/dense_grid.h"
#include "grid/neighborhood.h"
#include "online/capacity_search.h"
#include "util/rng.h"
#include "workload/generators.h"
#include "workload/stream_gen.h"

namespace cmvrp {
namespace {

DemandMap tiny_random_demand(std::uint64_t seed, int dim, int points,
                             std::int64_t span, double max_d) {
  Rng rng(seed);
  DemandMap d(dim);
  for (int i = 0; i < points; ++i) {
    Point p = Point::origin(dim);
    for (int a = 0; a < dim; ++a) p[a] = rng.next_int(0, span);
    d.add(p, static_cast<double>(rng.next_int(1, static_cast<std::int64_t>(max_d))));
  }
  return d;
}

TEST(OmegaForSet, SinglePointMatchesBallEquation) {
  // omega * |N_floor(omega)({p})| = d; for d small the crossing is interior.
  DemandMap d(2);
  d.set(Point{0, 0}, 0.5);
  // On [0,1): g = w * 1, so omega = 0.5.
  EXPECT_NEAR(omega_for_set({Point{0, 0}}, d), 0.5, 1e-12);
}

TEST(OmegaForSet, CrossingInSecondSegment) {
  DemandMap d(2);
  d.set(Point{0, 0}, 6.0);
  // Segment [1,2): g = w*|N_1| = 5w, covers [5,10): omega = 6/5.
  EXPECT_NEAR(omega_for_set({Point{0, 0}}, d), 1.2, 1e-12);
}

TEST(OmegaForSet, JumpCaseReturnsBoundary) {
  DemandMap d(2);
  d.set(Point{0, 0}, 4.5);
  // Segment [0,1) covers [0,1); segment [1,2) starts at 5 > 4.5: inf is 1.
  EXPECT_NEAR(omega_for_set({Point{0, 0}}, d), 1.0, 1e-12);
}

TEST(OmegaForSet, ZeroDemandGivesZero) {
  DemandMap d(2);
  EXPECT_DOUBLE_EQ(omega_for_set({Point{3, 3}}, d), 0.0);
}

// The values below were recorded, as hex floats, from the integer-radius
// march that omega_crossing replaced; unit-weight crossings must keep them
// to the bit.
TEST(OmegaForSet, PinnedCrossingsAreBitExact) {
  DemandMap interior(3);
  interior.set(Point{0, 0, 0}, 7.25);
  interior.set(Point{2, 1, 0}, 19.5);
  interior.set(Point{0, 3, 1}, 0.125);
  EXPECT_EQ(omega_for_set(interior.support(), interior),
            0x1.479e79e79e79ep+0);
  // |N_1| = 8 for the pair, so g stays below 16 on [1, 2) and jumps past
  // 23 at 2.
  DemandMap jump(2);
  jump.set(Point{0, 0}, 20.0);
  jump.set(Point{1, 0}, 3.0);
  EXPECT_EQ(omega_for_set(jump.support(), jump), 0x1p+1);
}

TEST(OmegaForBox, PinnedCrossingsAreBitExact) {
  // A 4×2×5 box: |N_0| = 40, |N_1| = 116.
  const Box box(Point{0, 0, 0}, Point{3, 1, 4});
  EXPECT_EQ(omega_for_box(box, 97.0), 0x1p+0);                 // jump
  EXPECT_EQ(omega_for_box(box, 130.0), 0x1.1ee58469ee584p+0);  // 130/116
  EXPECT_EQ(omega_for_box(box, 1000.0), 0x1.8p+1);             // jump
  EXPECT_EQ(omega_for_box(box, 1234.5), 0x1.834b4b4b4b4b5p+1);
}

TEST(OmegaForSet, BfsStopsAtRingFloorOmega) {
  // 7 at one point crosses at 7/|N_1| = 1.4, so no vertex of ring 2 is
  // ever visited.
  DemandMap d(2);
  d.set(Point{0, 0}, 7.0);
  std::int64_t farthest = 0;
  const double omega = omega_for_set({Point{0, 0}}, d, [&](const Point& p) {
    farthest = std::max(farthest, p.l1_norm());
    return 1.0;
  });
  EXPECT_EQ(omega, 1.4);
  EXPECT_EQ(farthest, 1);
}

TEST(OmegaForBox, AgreesWithSetComputation) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    Rng rng(seed);
    const std::int64_t side = rng.next_int(1, 4);
    const Box box = Box::cube(Point{rng.next_int(-3, 3), rng.next_int(-3, 3)},
                              side);
    DemandMap d(2);
    box.for_each_point([&](const Point& p) {
      d.set(p, static_cast<double>(rng.next_int(0, 7)));
    });
    const double s = d.total();
    if (s == 0.0) continue;
    EXPECT_NEAR(omega_for_box(box, s), omega_for_set(box.points(), d), 1e-9)
        << "seed " << seed;
  }
}

// --- the three computations of ω* agree -----------------------------------

class OmegaStarAgreement : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(OmegaStarAgreement, EnumerationLpAndFlowAgree) {
  const DemandMap d =
      tiny_random_demand(GetParam(), 2, /*points=*/4, /*span=*/3, /*max_d=*/9);
  const double by_enum = omega_star_enumerate(d);
  const double by_lp = radius_fixed_point(
      [&d](std::int64_t r) { return lp_value_at_radius(d, r); });
  const double by_flow = omega_star_flow(d);
  EXPECT_NEAR(by_lp, by_enum, 1e-5);
  EXPECT_NEAR(by_flow, by_enum, 1e-4);
}

INSTANTIATE_TEST_SUITE_P(Seeds, OmegaStarAgreement,
                         ::testing::Range<std::uint64_t>(1, 13));

TEST(OmegaStar, LpValueEqualsMaxSubsetRatioTinyInstance) {
  // Lemma 2.2.2: LP value at radius r equals max_T Σd / |N_r(T)|.
  DemandMap d(2);
  d.set(Point{0, 0}, 4.0);
  d.set(Point{1, 0}, 6.0);
  d.set(Point{0, 2}, 3.0);
  for (std::int64_t r = 0; r <= 2; ++r) {
    const double lp = lp_value_at_radius(d, r);
    // Enumerate all 7 nonempty subsets explicitly.
    const auto support = d.support();
    double best = 0.0;
    for (unsigned mask = 1; mask < 8; ++mask) {
      std::vector<Point> t;
      double s = 0.0;
      for (unsigned i = 0; i < 3; ++i)
        if (mask & (1u << i)) {
          t.push_back(support[i]);
          s += d.at(support[i]);
        }
      best = std::max(best, s / static_cast<double>(neighborhood_volume(t, r)));
    }
    EXPECT_NEAR(lp, best, 1e-6) << "r=" << r;
  }
}

TEST(OmegaStar, SinglePointClosedForm) {
  // d at one point: ω* solves ω·|N_⌊ω⌋| = d with the 2-D ball.
  DemandMap d(2);
  d.set(Point{5, 5}, 60.0);
  // |N_3| = 25, g covers [75,100) on [3,4); |N_2|=13 covers [26,39) on
  // [2,3); 60 lies in neither: jump at 3 (39 <= 60 < 75) -> inf = 3.
  const double expected = 3.0;
  EXPECT_NEAR(omega_star_enumerate(d), expected, 1e-9);
  EXPECT_NEAR(omega_star_flow(d), expected, 1e-4);

  // A fractional amount below 1 is ω* itself (ω·|N_0| = d). Scaled, it
  // rounds up past the rounded-down supply at ω = d, the bisection's
  // bracket, which must still be accepted.
  DemandMap small(2);
  small.set(Point{5, 5}, 0.3);
  EXPECT_NEAR(omega_star_enumerate(small), 0.3, 1e-9);
  EXPECT_NEAR(omega_star_flow(small), 0.3, 1e-4);
}

// --- cube bound (Cor. 2.2.7) ------------------------------------------------

// Smoke-sized inputs in the shapes of the three perfbench workloads:
// uniform arrivals over a 32^2 and an 8^3 box (2.5 and 6 per point,
// shuffled), and a 20,000-arrival drifting gradient over 6^4.
DemandMap uniform_stream_demand(int dim, std::int64_t side, double per_point) {
  Point hi = Point::origin(dim);
  for (int a = 0; a < dim; ++a) hi[a] = side - 1;
  const Box box(Point::origin(dim), hi);
  Rng rng(1);
  const DemandMap d = uniform_demand(
      box, std::llround(per_point * static_cast<double>(box.volume())), rng);
  Rng order(2);
  return demand_of_stream(stream_from_demand(d, ArrivalOrder::kShuffled, order),
                          dim);
}

TEST(CubeBound, SizingOfPerfbenchShapedInputsIsPinned) {
  // The sizing rule's output, recorded as hex floats before the demand
  // table and the window scan were rewritten: any change in what sizing
  // computes, down to the last bit of W, fails here.
  struct Pin {
    const char* name;
    DemandMap demand;
    std::int64_t cube_side;
    double capacity;
    double omega_c;
  };
  std::vector<Job> gradient;
  Rng rng(1);
  drifting_gradient_stream(
      Box(Point{0, 0, 0, 0}, Point{5, 5, 5, 5}), 20000, 2.0, rng,
      [&gradient](const Job& j) { gradient.push_back(j); });
  const Pin pins[] = {
      {"uniform-2d", uniform_stream_demand(2, 32, 2.5), 2,
       0x1.0e38e38e38e39p+5, 0x1.c71c71c71c71cp-1},
      {"uniform-3d", uniform_stream_demand(3, 8, 6.0), 2,
       0x1.cc71c71c71c71p+5, 0x1.097b425ed097bp-1},
      {"gradient-4d", demand_of_stream(gradient, 4), 2, 0x1.48p+8, 0x1p+0},
  };
  for (const Pin& pin : pins) {
    const OnlineConfig c = default_online_config(pin.demand, 7);
    EXPECT_EQ(c.cube_side, pin.cube_side) << pin.name;
    EXPECT_EQ(c.capacity, pin.capacity) << pin.name;
    EXPECT_EQ(cube_bound(pin.demand).omega_c, pin.omega_c) << pin.name;
  }
}

TEST(CubeBound, EmptyDemandIsZero) {
  DemandMap d(2);
  EXPECT_DOUBLE_EQ(cube_bound(d).omega_c, 0.0);
}

TEST(CubeBound, LowerBoundsOmegaStar) {
  // ω_c <= ω* (Cor. 2.2.7's proof shows ω_c <= ω_{T_c} <= ω*).
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    const DemandMap d = tiny_random_demand(seed, 2, 4, 3, 9);
    const double wc = cube_bound(d).omega_c;
    const double ws = omega_star_enumerate(d);
    EXPECT_LE(wc, ws + 1e-6) << "seed " << seed;
  }
}

TEST(CubeBound, SinglePointSolvesCubeEquation) {
  DemandMap d(2);
  d.set(Point{0, 0}, 45.0);
  // k=1: M=45, root = 45/9 = 5 > 1 -> no. k=2: 45/36 = 1.25 in (1,2] -> yes.
  const auto cb = cube_bound(d);
  EXPECT_NEAR(cb.omega_c, 1.25, 1e-9);
  EXPECT_EQ(cb.cube_side, 2);
}

TEST(CubeBound, CubeOmegaWithinConstantOfOmegaStar) {
  // Woff = Θ(ω*) and ω_c ≤ Woff ≤ (2·3^ℓ+ℓ)·ω_c: on random instances the
  // ratio ω*/ω_c must stay within the paper's constant.
  const double factor = 2.0 * 9.0 + 2.0;  // ℓ = 2
  for (std::uint64_t seed = 20; seed <= 32; ++seed) {
    const DemandMap d = tiny_random_demand(seed, 2, 5, 4, 12);
    const double wc = cube_bound(d).omega_c;
    const double ws = omega_star_enumerate(d);
    ASSERT_GT(wc, 0.0);
    EXPECT_LE(ws / wc, factor) << "seed " << seed;
  }
}

// cube_bound as it was before the early exit — every side k up to k_hi,
// no break — kept as the oracle the exiting scan must match bit for bit.
CubeBound exhaustive_cube_bound(const DemandMap& d) {
  CubeBound out;
  if (d.empty()) return out;
  const int dim = d.dim();
  const DenseGrid grid = DenseGrid::from_demand(d);
  const PrefixSums ps(grid);
  const double total = d.total();
  std::int64_t max_side = 1;
  for (int i = 0; i < dim; ++i)
    max_side = std::max(max_side, grid.box().side(i));
  std::int64_t k_hi = max_side + 2;
  const double crossover =
      std::pow(total / std::pow(3.0, dim), 1.0 / (dim + 1)) + 2.0;
  k_hi = std::max<std::int64_t>(k_hi, static_cast<std::int64_t>(crossover) + 2);
  double best = -1.0;
  std::int64_t best_side = 1;
  double best_m = 0.0;
  for (std::int64_t k = 1; k <= k_hi; ++k) {
    const double m = k >= max_side ? total : ps.max_cube_sum(k);
    if (m <= 0.0) continue;
    const double cells = std::pow(3.0 * static_cast<double>(k),
                                  static_cast<double>(dim));
    const double root = m / cells;
    if (root > static_cast<double>(k)) continue;
    const double candidate = std::max(root, static_cast<double>(k - 1));
    if (best < 0.0 || candidate < best) {
      best = candidate;
      best_side = k;
      best_m = m;
    }
  }
  out.omega_c = best;
  out.cube_side = std::max<std::int64_t>(
      1, static_cast<std::int64_t>(std::ceil(best - 1e-12)));
  if (static_cast<double>(best_side - 1) <= best &&
      best <= static_cast<double>(best_side))
    out.cube_side = best_side;
  out.max_cube_demand = best_m;
  return out;
}

TEST(CubeBound, EarlyExitMatchesExhaustiveScan) {
  // 400 seeded maps over ℓ = 1..4, half of them with a heavy hotspot
  // (which pushes ω_c, and so the exit side, well past 1).
  for (std::uint64_t seed = 1; seed <= 400; ++seed) {
    const int dim = 1 + static_cast<int>(seed % 4);
    const std::int64_t span = dim <= 2 ? 24 : dim == 3 ? 10 : 6;
    DemandMap d = tiny_random_demand(seed, dim, 6 + static_cast<int>(seed % 40),
                                     span, 9);
    if (seed % 2 == 0) {
      Rng rng(seed * 7);
      Point hot = Point::origin(dim);
      for (int a = 0; a < dim; ++a) hot[a] = rng.next_int(0, span);
      d.add(hot, static_cast<double>(rng.next_int(50, 5000)));
    }
    const CubeBound fast = cube_bound(d);
    const CubeBound oracle = exhaustive_cube_bound(d);
    // Bit-identical, not merely close.
    EXPECT_EQ(fast.omega_c, oracle.omega_c) << "seed " << seed;
    EXPECT_EQ(fast.cube_side, oracle.cube_side) << "seed " << seed;
    EXPECT_EQ(fast.max_cube_demand, oracle.max_cube_demand) << "seed " << seed;
  }
}

TEST(MaxOmegaOverCubes, SandwichedBetweenCubeBoundAndOmegaStar) {
  for (std::uint64_t seed = 40; seed <= 48; ++seed) {
    const DemandMap d = tiny_random_demand(seed, 2, 4, 3, 9);
    const double cubes = max_omega_over_cubes(d);
    const double ws = omega_star_enumerate(d);
    EXPECT_LE(cubes, ws + 1e-6) << "seed " << seed;   // Γ ⊆ all subsets
    EXPECT_GT(cubes, 0.0);
  }
}

// --- closed forms (§2.1) ------------------------------------------------------

TEST(ClosedForms, LineW2Exact) {
  for (double d : {1.0, 10.0, 1000.0}) {
    const double w = example_line_w2(d);
    EXPECT_NEAR(w * (2.0 * w + 1.0), d, 1e-9 * d + 1e-9);
  }
}

TEST(ClosedForms, PointW3SolvesCubic) {
  for (double d : {1.0, 64.0, 1e6}) {
    const double w = example_point_w3(d);
    EXPECT_NEAR(w * (2.0 * w + 1.0) * (2.0 * w + 1.0), d, 1e-6 * d + 1e-6);
  }
}

TEST(ClosedForms, SquareW1SolvesCubicAndTendsToD) {
  const double d = 100.0;
  for (double a : {1.0, 10.0, 100.0, 10000.0}) {
    const double w = example_square_w1(a, d);
    EXPECT_NEAR(w * (2 * w + a) * (2 * w + a), d * a * a, 1e-6 * d * a * a);
  }
  // §2.1.1: as a -> ∞, W1 -> d.
  EXPECT_NEAR(example_square_w1(1e9, d), d, d * 1e-3);
}

TEST(ClosedForms, W3BelowOmegaStarForPointDemand) {
  // The paper's (2W+1)^2 counts the L∞ square, which over-counts the L1
  // ball reachable within W — so W3 is a (weaker) lower bound than ω*.
  for (double dd : {50.0, 500.0, 5000.0}) {
    DemandMap d(2);
    d.set(Point{0, 0}, dd);
    const double w3 = example_point_w3(dd);
    const double ws = omega_star_enumerate(d);
    EXPECT_LE(w3, ws + 1e-9) << "d=" << dd;
    // Same growth order: ratio bounded (both Θ(d^{1/3})).
    EXPECT_LT(ws / w3, 2.0) << "d=" << dd;
  }
}

TEST(ClosedForms, W2ApproachesLineOmegaAsLineGrows) {
  const double dd = 20.0;
  const double w2 = example_line_w2(dd);
  double prev_gap = 1e9;
  for (std::int64_t len : {8, 64, 512}) {
    const Box line(Point{0, 0}, Point{len - 1, 0});
    const double wt = omega_for_box(line, dd * static_cast<double>(len));
    const double gap = std::abs(wt - w2) / w2;
    EXPECT_LE(gap, prev_gap + 1e-9) << "len=" << len;
    prev_gap = gap;
  }
  EXPECT_LT(prev_gap, 0.2);
}

}  // namespace
}  // namespace cmvrp
