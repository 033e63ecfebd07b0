#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "grid/box.h"
#include "grid/demand_map.h"
#include "grid/dense_grid.h"
#include "grid/neighborhood.h"
#include "grid/point.h"
#include "util/rng.h"

namespace cmvrp {
namespace {

TEST(Point, BasicsAndMetric) {
  Point p{1, 2};
  Point q{4, -2};
  EXPECT_EQ(p.dim(), 2);
  EXPECT_EQ(l1_distance(p, q), 3 + 4);
  EXPECT_EQ(p.l1_norm(), 3);
  EXPECT_EQ((p + q), (Point{5, 0}));
  EXPECT_EQ((q - p), (Point{3, -4}));
  EXPECT_LT(p, q);
  EXPECT_EQ(p.to_string(), "(1, 2)");
}

TEST(Point, ColoringParity) {
  EXPECT_TRUE((Point{0, 0}).coordinate_sum_even());
  EXPECT_FALSE((Point{0, 1}).coordinate_sum_even());
  EXPECT_TRUE((Point{-1, 1}).coordinate_sum_even());
  EXPECT_FALSE((Point{-1, 0}).coordinate_sum_even());
}

TEST(Point, UnitNeighbors) {
  const auto nb = (Point{3, 7}).unit_neighbors();
  EXPECT_EQ(nb.size(), 4u);
  for (const auto& q : nb) EXPECT_EQ(l1_distance(q, (Point{3, 7})), 1);
}

TEST(Point, HashDistinguishes) {
  PointHash h;
  EXPECT_NE(h((Point{0, 1})), h((Point{1, 0})));
  EXPECT_EQ(h((Point{2, 3})), h((Point{2, 3})));
}

TEST(Box, VolumeContainsDistance) {
  const Box b(Point{0, 0}, Point{2, 3});
  EXPECT_EQ(b.volume(), 12);
  EXPECT_TRUE(b.contains(Point{2, 3}));
  EXPECT_FALSE(b.contains(Point{3, 3}));
  EXPECT_EQ(b.l1_distance_to(Point{5, 5}), 3 + 2);
  EXPECT_EQ(b.l1_distance_to(Point{1, 1}), 0);
  EXPECT_EQ(b.points().size(), 12u);
}

TEST(Box, CubeFactory) {
  const Box c = Box::cube(Point{-1, -1}, 3);
  EXPECT_EQ(c.lo(), (Point{-1, -1}));
  EXPECT_EQ(c.hi(), (Point{1, 1}));
  EXPECT_EQ(c.volume(), 9);
}

TEST(Box, ForEachPointVisitsAllOnce) {
  const Box b(Point{0, 0, 0}, Point{1, 2, 1});
  PointSet seen;
  b.for_each_point([&](const Point& p) { EXPECT_TRUE(seen.insert(p).second); });
  EXPECT_EQ(static_cast<std::int64_t>(seen.size()), b.volume());
}

TEST(Neighborhood, BallVolumeClosedForms) {
  // 1-D: 2r+1.
  for (std::int64_t r : {0, 1, 5, 100})
    EXPECT_EQ(l1_ball_volume(1, r), 2 * r + 1);
  // 2-D: 2r^2+2r+1.
  for (std::int64_t r : {0, 1, 2, 7, 50})
    EXPECT_EQ(l1_ball_volume(2, r), 2 * r * r + 2 * r + 1);
  // 3-D octahedral numbers: (2r^3 + 3r^2 + 3r + ... ) checked vs BFS below.
  EXPECT_EQ(l1_ball_volume(3, 0), 1);
  EXPECT_EQ(l1_ball_volume(3, 1), 7);
  EXPECT_EQ(l1_ball_volume(3, 2), 25);
}

TEST(Neighborhood, BallVolumeMatchesBfs) {
  for (int dim = 1; dim <= 3; ++dim) {
    for (std::int64_t r = 0; r <= 6; ++r) {
      const auto bfs = neighborhood_volume({Point::origin(dim)}, r);
      EXPECT_EQ(l1_ball_volume(dim, r), bfs)
          << "dim=" << dim << " r=" << r;
    }
  }
}

struct BoxCase {
  std::vector<std::int64_t> sides;
  std::int64_t r;
};

class BoxNeighborhood : public ::testing::TestWithParam<BoxCase> {};

TEST_P(BoxNeighborhood, DpMatchesBfs) {
  const auto& c = GetParam();
  const int dim = static_cast<int>(c.sides.size());
  Point lo = Point::origin(dim);
  Point hi = lo;
  for (int i = 0; i < dim; ++i)
    hi[i] = c.sides[static_cast<std::size_t>(i)] - 1;
  const Box box(lo, hi);
  const auto bfs = neighborhood_volume(box.points(), c.r);
  EXPECT_EQ(box_neighborhood_volume(c.sides, c.r), bfs)
      << "sides[0]=" << c.sides[0] << " r=" << c.r;
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, BoxNeighborhood,
    ::testing::Values(
        BoxCase{{1}, 0}, BoxCase{{1}, 4}, BoxCase{{5}, 3},
        BoxCase{{1, 1}, 0}, BoxCase{{1, 1}, 3}, BoxCase{{3, 3}, 2},
        BoxCase{{4, 2}, 5}, BoxCase{{7, 1}, 4}, BoxCase{{2, 6}, 1},
        BoxCase{{1, 1, 1}, 2}, BoxCase{{2, 2, 2}, 3}, BoxCase{{3, 1, 2}, 2},
        BoxCase{{2, 3, 2, 2}, 2}));

TEST(Neighborhood, LineNeighborhoodGrowsAsStrip) {
  // For a len x 1 line in 2-D, |N_r| = len(2r+1) + 2r²  (strip + two caps:
  // 2r off-axis ends plus 4·r(r-1)/2 diagonal quarter-diamonds).
  for (std::int64_t len : {1, 2, 10, 50}) {
    for (std::int64_t r : {0, 1, 3, 8}) {
      const auto expected = len * (2 * r + 1) + 2 * r * r;
      EXPECT_EQ(box_neighborhood_volume({len, 1}, r), expected);
    }
  }
}

TEST(Neighborhood, SetBfsOfTwoDistantPointsIsTwoBalls) {
  const Point a{0, 0};
  const Point b{100, 0};
  const auto n = neighborhood(std::vector<Point>{a, b}, 3);
  EXPECT_EQ(static_cast<std::int64_t>(n.size()), 2 * l1_ball_volume(2, 3));
}

TEST(Neighborhood, SetBfsMergesOverlappingBalls) {
  const Point a{0, 0};
  const Point b{1, 0};
  const auto n = neighborhood(std::vector<Point>{a, b}, 2);
  // Equivalent to the 2x1 box neighborhood.
  EXPECT_EQ(static_cast<std::int64_t>(n.size()),
            box_neighborhood_volume({2, 1}, 2));
}

TEST(DemandMap, SetAddEraseTotals) {
  DemandMap d(2);
  d.set(Point{0, 0}, 2.5);
  d.add(Point{0, 0}, 0.5);
  d.set(Point{3, 4}, 1.0);
  EXPECT_DOUBLE_EQ(d.total(), 4.0);
  EXPECT_DOUBLE_EQ(d.max_demand(), 3.0);
  EXPECT_EQ(d.support_size(), 2u);
  d.set(Point{0, 0}, 0.0);
  EXPECT_EQ(d.support_size(), 1u);
  EXPECT_DOUBLE_EQ(d.at(Point{0, 0}), 0.0);
  EXPECT_THROW(d.set(Point{1, 1}, -1.0), check_error);
}

TEST(DemandMap, IteratesInInsertionOrderAndZeroingKeepsTheRest) {
  DemandMap d(2);
  const std::vector<Point> order = {Point{5, 1}, Point{-2, 3}, Point{0, 0},
                                    Point{7, 7}, Point{3, -4}};
  for (const Point& p : order) d.add(p, 1.0);
  d.add(Point{-2, 3}, 2.0);  // more demand keeps a point's place
  d.set(Point{0, 0}, 4.0);
  const auto points = [&d] {
    std::vector<Point> out;
    for (const auto& [p, v] : d) out.push_back(p);
    return out;
  };
  EXPECT_EQ(points(), order);
  EXPECT_DOUBLE_EQ(d.at(Point{-2, 3}), 3.0);

  // Zeroing a point drops it and keeps the others in order; zeroing a
  // point with no demand changes nothing; new demand goes to the end.
  d.set(Point{-2, 3}, 0.0);
  d.add(Point{7, 7}, -1.0);
  d.set(Point{9, 9}, 0.0);
  EXPECT_EQ(points(), (std::vector<Point>{Point{5, 1}, Point{0, 0},
                                          Point{3, -4}}));
  d.add(Point{-2, 3}, 1.0);
  EXPECT_EQ(points(), (std::vector<Point>{Point{5, 1}, Point{0, 0},
                                          Point{3, -4}, Point{-2, 3}}));
  EXPECT_EQ(d.support_size(), 4u);
  EXPECT_DOUBLE_EQ(d.at(Point{7, 7}), 0.0);
  EXPECT_DOUBLE_EQ(d.at(Point{0, 0}), 4.0);
  EXPECT_THROW(d.add(Point{5, 1}, -2.0), check_error);
  EXPECT_DOUBLE_EQ(d.at(Point{5, 1}), 1.0);

  // reserve() changes nothing a caller sees.
  DemandMap r(2);
  r.reserve(100);
  for (const Point& p : order) r.add(p, 1.0);
  std::vector<Point> seen;
  for (const auto& [p, v] : r) seen.push_back(p);
  EXPECT_EQ(seen, order);
}

TEST(DemandMap, SupportSortedAndBoundingBox) {
  DemandMap d(2);
  d.set(Point{5, 1}, 1.0);
  d.set(Point{-2, 3}, 1.0);
  d.set(Point{0, 0}, 1.0);
  const auto s = d.support();
  EXPECT_TRUE(std::is_sorted(s.begin(), s.end()));
  const Box bb = d.bounding_box();
  EXPECT_EQ(bb.lo(), (Point{-2, 0}));
  EXPECT_EQ(bb.hi(), (Point{5, 3}));
  EXPECT_DOUBLE_EQ(d.sum_in(Box(Point{-2, 0}, Point{0, 3})), 2.0);
}

TEST(DenseGrid, RoundTripsDemand) {
  DemandMap d(2);
  d.set(Point{1, 1}, 2.0);
  d.set(Point{4, 2}, 3.0);
  const DenseGrid g = DenseGrid::from_demand(d);
  EXPECT_DOUBLE_EQ(g.at(Point{1, 1}), 2.0);
  EXPECT_DOUBLE_EQ(g.at(Point{4, 2}), 3.0);
  EXPECT_DOUBLE_EQ(g.at(Point{2, 2}), 0.0);
  EXPECT_DOUBLE_EQ(g.total(), 5.0);
  EXPECT_DOUBLE_EQ(g.max_value(), 3.0);
}

class PrefixSumRandom : public ::testing::TestWithParam<int> {};

TEST_P(PrefixSumRandom, MatchesBruteForce) {
  const int dim = GetParam();
  Rng rng(static_cast<std::uint64_t>(1000 + dim));
  Point lo = Point::origin(dim), hi = Point::origin(dim);
  for (int i = 0; i < dim; ++i) {
    lo[i] = rng.next_int(-3, 0);
    hi[i] = lo[i] + rng.next_int(2, dim <= 2 ? 8 : 4);
  }
  const Box box(lo, hi);
  DenseGrid g(box);
  box.for_each_point(
      [&](const Point& p) { g.set(p, rng.next_double(0, 10)); });
  const PrefixSums ps(g);

  for (int trial = 0; trial < 50; ++trial) {
    Point qlo = Point::origin(dim), qhi = Point::origin(dim);
    for (int i = 0; i < dim; ++i) {
      qlo[i] = rng.next_int(lo[i] - 1, hi[i]);
      qhi[i] = rng.next_int(qlo[i], hi[i] + 1);
    }
    const Box query(qlo, qhi);
    double expected = 0.0;
    query.for_each_point([&](const Point& p) {
      if (box.contains(p)) expected += g.at(p);
    });
    EXPECT_NEAR(ps.box_sum(query), expected, 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(Dims, PrefixSumRandom, ::testing::Values(1, 2, 3));

TEST(PrefixSums, MaxCubeSumFindsHotWindow) {
  DemandMap d(2);
  // Hot 2x2 block worth 10 plus scattered singles.
  d.set(Point{4, 4}, 3.0);
  d.set(Point{4, 5}, 3.0);
  d.set(Point{5, 4}, 2.0);
  d.set(Point{5, 5}, 2.0);
  d.set(Point{0, 0}, 1.0);
  d.set(Point{9, 9}, 1.0);
  const DenseGrid g = DenseGrid::from_demand(d);
  const PrefixSums ps(g);
  EXPECT_DOUBLE_EQ(ps.max_cube_sum(1), 3.0);
  EXPECT_DOUBLE_EQ(ps.max_cube_sum(2), 10.0);
  EXPECT_DOUBLE_EQ(ps.max_cube_sum(100), 12.0);
}

// PrefixSums as it was before its blocked build and its flat-offset
// window scan: the table built by the per-element walk, and the
// per-window scan that builds a Point and a Box for every window and
// reads the table through prefix_at. Kept verbatim as the oracle the
// blocked build and the allocation-free scan must match bit for bit.
class WindowScanOracle {
 public:
  explicit WindowScanOracle(const DenseGrid& grid)
      : box_(grid.box()), sides_(grid.box().sides()) {
    const int dim = box_.dim();
    std::size_t total = 1;
    for (auto s : sides_) total *= static_cast<std::size_t>(s + 1);
    ps_.assign(total, 0.0);
    std::vector<std::size_t> stride(static_cast<std::size_t>(dim), 1);
    for (int i = dim - 2; i >= 0; --i)
      stride[static_cast<std::size_t>(i)] =
          stride[static_cast<std::size_t>(i + 1)] *
          static_cast<std::size_t>(sides_[static_cast<std::size_t>(i + 1)] + 1);
    box_.for_each_point([&](const Point& p) {
      std::size_t idx = 0;
      for (int i = 0; i < dim; ++i)
        idx += static_cast<std::size_t>(p[i] - box_.lo()[i] + 1) *
               stride[static_cast<std::size_t>(i)];
      ps_[idx] = grid.at(p);
    });
    for (int axis = 0; axis < dim; ++axis) {
      const std::size_t st = stride[static_cast<std::size_t>(axis)];
      const auto len = static_cast<std::size_t>(
          sides_[static_cast<std::size_t>(axis)] + 1);
      for (std::size_t idx = 0; idx < ps_.size(); ++idx) {
        const std::size_t coord = (idx / st) % len;
        if (coord >= 1) ps_[idx] += ps_[idx - st];
      }
    }
  }

  double prefix_at(const std::vector<std::int64_t>& idx) const {
    const int dim = box_.dim();
    std::size_t flat = 0;
    for (int i = 0; i < dim; ++i) {
      flat = flat * static_cast<std::size_t>(sides_[static_cast<std::size_t>(i)] + 1) +
             static_cast<std::size_t>(idx[static_cast<std::size_t>(i)]);
    }
    return ps_[flat];
  }

  double box_sum(const Box& query) const {
    const int dim = box_.dim();
    std::vector<std::int64_t> lo(static_cast<std::size_t>(dim)),
        hi(static_cast<std::size_t>(dim));
    for (int i = 0; i < dim; ++i) {
      lo[static_cast<std::size_t>(i)] =
          std::max(query.lo()[i], box_.lo()[i]) - box_.lo()[i];
      hi[static_cast<std::size_t>(i)] =
          std::min(query.hi()[i], box_.hi()[i]) - box_.lo()[i];
      if (lo[static_cast<std::size_t>(i)] > hi[static_cast<std::size_t>(i)])
        return 0.0;
    }
    double sum = 0.0;
    std::vector<std::int64_t> corner(static_cast<std::size_t>(dim));
    for (unsigned mask = 0; mask < (1u << dim); ++mask) {
      int sign = 1;
      for (int i = 0; i < dim; ++i) {
        if (mask & (1u << i)) {
          corner[static_cast<std::size_t>(i)] = lo[static_cast<std::size_t>(i)];
          sign = -sign;
        } else {
          corner[static_cast<std::size_t>(i)] =
              hi[static_cast<std::size_t>(i)] + 1;
        }
      }
      sum += sign * prefix_at(corner);
    }
    return sum;
  }

  double max_cube_sum(std::int64_t side) const {
    const int dim = box_.dim();
    std::vector<std::int64_t> lo(static_cast<std::size_t>(dim)),
        hi(static_cast<std::size_t>(dim));
    for (int i = 0; i < dim; ++i) {
      lo[static_cast<std::size_t>(i)] = box_.lo()[i];
      hi[static_cast<std::size_t>(i)] = box_.hi()[i] - side + 1;
      if (hi[static_cast<std::size_t>(i)] < lo[static_cast<std::size_t>(i)])
        hi[static_cast<std::size_t>(i)] = lo[static_cast<std::size_t>(i)];
    }
    double best = 0.0;
    std::vector<std::int64_t> cur = lo;
    for (;;) {
      Point corner = Point::origin(dim);
      for (int i = 0; i < dim; ++i) corner[i] = cur[static_cast<std::size_t>(i)];
      best = std::max(best, box_sum(Box::cube(corner, side)));
      int axis = dim - 1;
      while (axis >= 0) {
        auto& c = cur[static_cast<std::size_t>(axis)];
        if (c < hi[static_cast<std::size_t>(axis)]) {
          ++c;
          break;
        }
        c = lo[static_cast<std::size_t>(axis)];
        --axis;
      }
      if (axis < 0) break;
    }
    return best;
  }

 private:
  Box box_;
  std::vector<std::int64_t> sides_;
  std::vector<double> ps_;
};

TEST(PrefixSums, BlockedBuildMatchesReferenceBitForBit) {
  // The blocked build performs each lattice chain's additions in the
  // order of the oracle's per-element walk, so the tables must agree
  // exactly (==, not near) — on random demand with non-integral values,
  // across dimensions and query shapes.
  Rng rng(77);
  for (const int dim : {2, 3}) {
    const std::int64_t span = dim == 2 ? 40 : 12;
    DemandMap d(dim);
    for (int i = 0; i < 300; ++i) {
      Point p = Point::origin(dim);
      for (int a = 0; a < dim; ++a) p[a] = rng.next_int(0, span - 1);
      d.add(p, rng.next_double(0.0, 1.0) + 0.1);
    }
    const DenseGrid g = DenseGrid::from_demand(d);
    const PrefixSums blocked(g);
    const WindowScanOracle reference(g);
    for (const std::int64_t side : {std::int64_t{1}, std::int64_t{2},
                                    std::int64_t{4}, std::int64_t{7}}) {
      EXPECT_EQ(blocked.max_cube_sum(side), reference.max_cube_sum(side))
          << "dim=" << dim << " side=" << side;
    }
    for (int q = 0; q < 50; ++q) {
      Point lo = Point::origin(dim);
      Point hi = Point::origin(dim);
      for (int a = 0; a < dim; ++a) {
        const std::int64_t x = rng.next_int(0, span - 1);
        const std::int64_t y = rng.next_int(0, span - 1);
        lo[a] = std::min(x, y);
        hi[a] = std::max(x, y);
      }
      const Box query(lo, hi);
      EXPECT_EQ(blocked.box_sum(query), reference.box_sum(query))
          << "dim=" << dim << " query=" << query.to_string();
    }
  }
}

// A random box of dimension `dim`, sides 1 to `max_side` per axis, at a
// random offset.
Box random_box(Rng& rng, int dim, std::int64_t max_side) {
  Point lo = Point::origin(dim), hi = Point::origin(dim);
  for (int i = 0; i < dim; ++i) {
    lo[i] = rng.next_int(-5, 5);
    hi[i] = lo[i] + rng.next_int(0, max_side - 1);
  }
  return Box(lo, hi);
}

TEST(PrefixSums, WindowScanMatchesThePerWindowOracleBitForBit) {
  // Real values spread over six decades, so every window sum rounds and
  // a different addition order would show. Sides from 1 to past the
  // grid along every axis.
  Rng rng(2026);
  int cases = 0;
  for (int dim = 1; dim <= 4; ++dim) {
    const std::int64_t max_side =
        dim == 1 ? 40 : dim == 2 ? 16 : dim == 3 ? 7 : 5;
    for (int grid = 0; grid < 60; ++grid) {
      const Box box = random_box(rng, dim, max_side);
      DenseGrid g(box);
      box.for_each_point([&](const Point& p) {
        g.set(p, rng.next_double(0.0, 1.0) *
                     std::pow(10.0, static_cast<double>(rng.next_int(-3, 3))));
      });
      const PrefixSums ps(g);
      const WindowScanOracle oracle(g);
      std::int64_t widest = 1;
      for (int i = 0; i < dim; ++i) widest = std::max(widest, box.side(i));
      for (std::int64_t side = 1; side <= widest + 2; ++side, ++cases)
        ASSERT_EQ(ps.max_cube_sum(side), oracle.max_cube_sum(side))
            << "dim=" << dim << " box=" << box.to_string() << " side=" << side;
      for (int q = 0; q < 20; ++q, ++cases) {
        const Box query = random_box(rng, dim, max_side + 2);
        ASSERT_EQ(ps.box_sum(query), oracle.box_sum(query))
            << "dim=" << dim << " box=" << box.to_string()
            << " query=" << query.to_string();
      }
    }
  }
  EXPECT_GT(cases, 5000);
}

TEST(PrefixSums, WindowScanMatchesBruteForceOnIntegerGrids) {
  // Integer demand sums exactly in any order, so the maximum over
  // windows can be checked against summing each window's cells.
  Rng rng(99);
  for (int dim = 1; dim <= 4; ++dim) {
    const std::int64_t max_side =
        dim == 1 ? 30 : dim == 2 ? 10 : dim == 3 ? 5 : 4;
    for (int grid = 0; grid < 6; ++grid) {
      const Box box = random_box(rng, dim, max_side);
      DenseGrid g(box);
      box.for_each_point([&](const Point& p) {
        g.set(p, static_cast<double>(rng.next_int(0, 5)));
      });
      const PrefixSums ps(g);
      std::int64_t widest = 1;
      for (int i = 0; i < dim; ++i) widest = std::max(widest, box.side(i));
      for (std::int64_t side = 1; side <= widest + 1; ++side) {
        // The windows max_cube_sum scans: starts inside the box, clipped
        // to it where the cube is wider than an axis.
        Point hi = box.lo();
        for (int i = 0; i < dim; ++i)
          hi[i] = std::max(box.lo()[i], box.hi()[i] - side + 1);
        double best = 0.0;
        Box(box.lo(), hi).for_each_point([&](const Point& start) {
          double sum = 0.0;
          Box::cube(start, side).for_each_point([&](const Point& p) {
            if (box.contains(p)) sum += g.at(p);
          });
          best = std::max(best, sum);
        });
        ASSERT_EQ(ps.max_cube_sum(side), best)
            << "dim=" << dim << " box=" << box.to_string() << " side=" << side;
      }
    }
  }
}

}  // namespace
}  // namespace cmvrp
