#include <gtest/gtest.h>

#include <cstdint>
#include <utility>
#include <vector>

#include "workload/generators.h"
#include "workload/stream_gen.h"

namespace cmvrp {
namespace {

TEST(Workload, SquareDemandShape) {
  const DemandMap d = square_demand(3, 2.0, Point{1, 1});
  EXPECT_EQ(d.support_size(), 9u);
  EXPECT_DOUBLE_EQ(d.total(), 18.0);
  EXPECT_DOUBLE_EQ(d.at(Point{1, 1}), 2.0);
  EXPECT_DOUBLE_EQ(d.at(Point{3, 3}), 2.0);
  EXPECT_DOUBLE_EQ(d.at(Point{0, 0}), 0.0);
}

TEST(Workload, LineDemandShape) {
  const DemandMap d = line_demand(5, 3.0, Point{2, 7});
  EXPECT_EQ(d.support_size(), 5u);
  EXPECT_DOUBLE_EQ(d.at(Point{6, 7}), 3.0);
  EXPECT_DOUBLE_EQ(d.at(Point{7, 7}), 0.0);
  const Box bb = d.bounding_box();
  EXPECT_EQ(bb.side(0), 5);
  EXPECT_EQ(bb.side(1), 1);
}

TEST(Workload, UniformDemandCount) {
  Rng rng(3);
  const Box box(Point{0, 0}, Point{9, 9});
  const DemandMap d = uniform_demand(box, 100, rng);
  EXPECT_DOUBLE_EQ(d.total(), 100.0);
  for (const auto& p : d.support()) EXPECT_TRUE(box.contains(p));
}

TEST(Workload, ClusteredDemandStaysInBox) {
  Rng rng(5);
  const Box box(Point{0, 0}, Point{20, 20});
  const DemandMap d = clustered_demand(box, 3, 200, 2.0, rng);
  EXPECT_DOUBLE_EQ(d.total(), 200.0);
  for (const auto& p : d.support()) EXPECT_TRUE(box.contains(p));
}

TEST(Workload, RidgeDemandDecays) {
  Rng rng(7);
  const Box box(Point{0, 0}, Point{15, 15});
  const DemandMap d = ridge_demand(box, 9.0, rng);
  EXPECT_GT(d.total(), 0.0);
  EXPECT_LE(d.max_demand(), 9.0);
}

TEST(Workload, StreamFromDemandPreservesCounts) {
  DemandMap d(2);
  d.set(Point{0, 0}, 3.0);
  d.set(Point{1, 2}, 2.0);
  Rng rng(11);
  for (auto order : {ArrivalOrder::kSorted, ArrivalOrder::kShuffled,
                     ArrivalOrder::kRoundRobin}) {
    const auto jobs = stream_from_demand(d, order, rng);
    EXPECT_EQ(jobs.size(), 5u);
    const DemandMap back = demand_of_stream(jobs, 2);
    EXPECT_DOUBLE_EQ(back.at(Point{0, 0}), 3.0);
    EXPECT_DOUBLE_EQ(back.at(Point{1, 2}), 2.0);
    for (std::size_t i = 0; i < jobs.size(); ++i)
      EXPECT_EQ(jobs[i].index, static_cast<std::int64_t>(i));
  }
}

// (point, demand) items of `d` in its iteration order.
std::vector<std::pair<Point, double>> items_of(const DemandMap& d) {
  std::vector<std::pair<Point, double>> out;
  for (const auto& [p, v] : d) out.emplace_back(p, v);
  return out;
}

// The demand of `jobs` by one add() per job into an unreserved map.
DemandMap demand_by_adds(const std::vector<Job>& jobs, int dim) {
  DemandMap d(dim);
  for (const Job& job : jobs) d.add(job.position, 1.0);
  return d;
}

TEST(Workload, DemandOfStreamMatchesOneAddPerJob) {
  Rng rng(23);
  // Dense: many jobs per point of a small box.
  std::vector<Job> dense;
  for (std::int64_t k = 0; k < 2000; ++k)
    dense.push_back(Job{Point{rng.next_int(0, 9), rng.next_int(-3, 3)}, k});
  // Sparse: a box far larger than the job count, with points at both
  // ends of the coordinate range (whose side does not fit 64 bits).
  std::vector<Job> sparse;
  for (std::int64_t k = 0; k < 300; ++k)
    sparse.push_back(Job{Point{rng.next_int(-1000000000, 1000000000),
                               rng.next_int(-1000000000, 1000000000),
                               rng.next_int(0, 2)},
                         k});
  sparse.push_back(Job{Point{INT64_MIN, 0, 0}, 300});
  sparse.push_back(Job{Point{INT64_MAX, 0, 1}, 301});
  const Job repeat = sparse[7];
  sparse.push_back(repeat);
  // 4-D, every job on one point.
  const std::vector<Job> single(50, Job{Point{1, 2, 3, 4}, 0});
  for (const auto& [jobs, dim] :
       {std::pair{dense, 2}, std::pair{sparse, 3}, std::pair{single, 4},
        std::pair{std::vector<Job>{}, 2}}) {
    const DemandMap d = demand_of_stream(jobs, dim);
    EXPECT_EQ(items_of(d), items_of(demand_by_adds(jobs, dim)))
        << "dim " << dim << ", " << jobs.size() << " jobs";
  }
  EXPECT_EQ(demand_of_stream(sparse, 3).at(sparse[7].position), 2.0);
  EXPECT_THROW(demand_of_stream(dense, 3), check_error);
}

TEST(Workload, RoundRobinInterleaves) {
  DemandMap d(2);
  d.set(Point{0, 0}, 2.0);
  d.set(Point{5, 5}, 2.0);
  Rng rng(13);
  const auto jobs = stream_from_demand(d, ArrivalOrder::kRoundRobin, rng);
  ASSERT_EQ(jobs.size(), 4u);
  EXPECT_EQ(jobs[0].position, (Point{0, 0}));
  EXPECT_EQ(jobs[1].position, (Point{5, 5}));
  EXPECT_EQ(jobs[2].position, (Point{0, 0}));
  EXPECT_EQ(jobs[3].position, (Point{5, 5}));
}

TEST(Workload, StreamRejectsFractionalDemand) {
  DemandMap d(2);
  d.set(Point{0, 0}, 1.5);
  Rng rng(17);
  EXPECT_THROW(stream_from_demand(d, ArrivalOrder::kSorted, rng),
               check_error);
}

TEST(Workload, SmartDustStreamStaysInBoxAndIsDeterministic) {
  const Box box(Point{0, 0}, Point{31, 31});
  Rng rng1(23), rng2(23);
  const auto a = smart_dust_stream(box, 500, 0.05, rng1);
  const auto b = smart_dust_stream(box, 500, 0.05, rng2);
  ASSERT_EQ(a.size(), 500u);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_TRUE(box.contains(a[i].position));
    EXPECT_EQ(a[i].position, b[i].position);
  }
}

TEST(Workload, AlternatingStream) {
  const auto jobs = alternating_stream(Point{0, 0}, Point{4, 0}, 5);
  ASSERT_EQ(jobs.size(), 5u);
  EXPECT_EQ(jobs[0].position, (Point{0, 0}));
  EXPECT_EQ(jobs[1].position, (Point{4, 0}));
  EXPECT_EQ(jobs[4].position, (Point{0, 0}));
}

// --- streaming adversarial generators (stream_gen.h) ------------------------

// The cube grid cell of p for origin-anchored cubes of side s.
std::int64_t cube_cell(const Point& p, int axis, std::int64_t side) {
  return p[axis] / side;  // all generator coordinates are nonnegative
}

bool same_cube(const Point& a, const Point& b, std::int64_t side) {
  for (int i = 0; i < a.dim(); ++i)
    if (cube_cell(a, i, side) != cube_cell(b, i, side)) return false;
  return true;
}

TEST(StreamGen, BoundaryRoundRobinAlternatesCubes) {
  for (const int dim : {2, 3, 4}) {
    const auto jobs = collect_jobs([dim](const JobSink& sink) {
      boundary_round_robin_stream(dim, 4, 3, 60, sink);
    });
    ASSERT_EQ(jobs.size(), 60u);
    const Box box = Box::cube(Point::origin(dim), 3 * 4);
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      EXPECT_EQ(jobs[i].position.dim(), dim);
      EXPECT_EQ(jobs[i].index, static_cast<std::int64_t>(i));
      EXPECT_TRUE(box.contains(jobs[i].position));
      // Consecutive arrivals never share a cube — the adversarial point.
      if (i > 0) {
        EXPECT_FALSE(same_cube(jobs[i - 1].position, jobs[i].position, 4))
            << "at arrival " << i;
      }
    }
  }
}

TEST(StreamGen, BurstyHotspotMigratesCubesBetweenBursts) {
  Rng rng(41);
  const auto jobs = collect_jobs([&rng](const JobSink& sink) {
    bursty_hotspot_stream(3, 4, 4, 200, 25, rng, sink);
  });
  ASSERT_EQ(jobs.size(), 200u);
  for (std::size_t burst = 0; burst * 25 < jobs.size(); ++burst) {
    const Point& hotspot = jobs[burst * 25].position;
    // Within a burst every arrival hits the hotspot...
    for (std::size_t k = 1; k < 25 && burst * 25 + k < jobs.size(); ++k)
      EXPECT_EQ(jobs[burst * 25 + k].position, hotspot);
    // ...and the next burst's hotspot sits in a different cube.
    if ((burst + 1) * 25 < jobs.size()) {
      EXPECT_FALSE(same_cube(hotspot, jobs[(burst + 1) * 25].position, 4));
    }
  }
}

TEST(StreamGen, DriftingGradientDriftsAcrossTheBox) {
  const Box box(Point{0, 0, 0, 0}, Point{11, 11, 11, 11});
  Rng rng(43);
  const auto jobs = collect_jobs([&box, &rng](const JobSink& sink) {
    drifting_gradient_stream(box, 400, 1.0, rng, sink);
  });
  ASSERT_EQ(jobs.size(), 400u);
  std::int64_t head = 0, tail = 0;
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    EXPECT_TRUE(box.contains(jobs[i].position));
    EXPECT_EQ(jobs[i].index, static_cast<std::int64_t>(i));
    if (i < 50) head += jobs[i].position.l1_norm();
    if (i >= jobs.size() - 50) tail += jobs[i].position.l1_norm();
  }
  // The center drifts lo -> hi, so late arrivals sit far from the origin.
  EXPECT_GT(tail, head);
}

TEST(StreamGen, SinkOrderMatchesCollectedVectorAndIsDeterministic) {
  Rng rng1(47), rng2(47);
  std::vector<Job> direct;
  bursty_hotspot_stream(2, 4, 8, 150, 16, rng1,
                        [&direct](const Job& j) { direct.push_back(j); });
  const auto collected = collect_jobs([&rng2](const JobSink& sink) {
    bursty_hotspot_stream(2, 4, 8, 150, 16, rng2, sink);
  });
  ASSERT_EQ(direct.size(), collected.size());
  for (std::size_t i = 0; i < direct.size(); ++i) {
    EXPECT_EQ(direct[i].position, collected[i].position);
    EXPECT_EQ(direct[i].index, collected[i].index);
  }
}

TEST(StreamGen, RejectsBadParameters) {
  const auto sink = [](const Job&) {};
  EXPECT_THROW(boundary_round_robin_stream(5, 4, 3, 10, sink), check_error);
  EXPECT_THROW(boundary_round_robin_stream(2, 4, 1, 10, sink), check_error);
  Rng rng(1);
  EXPECT_THROW(bursty_hotspot_stream(2, 4, 3, 10, 0, rng, sink), check_error);
  EXPECT_THROW(drifting_gradient_stream(Box(Point{0, 0}, Point{3, 3}), 10,
                                        -1.0, rng, sink),
               check_error);
}

}  // namespace
}  // namespace cmvrp
