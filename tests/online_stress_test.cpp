// Randomized stress harness for the online strategy: arbitrary workloads,
// capacities, cube sides, and failure injections — with physical
// invariants that must hold no matter what:
//   * energy conservation: Σ spent = jobs_served + total_travel,
//   * no vehicle ever exceeds its capacity,
//   * served + failed = arrivals,
//   * accounting identities of the diffusing computations,
// and with the stream engine's contract on top: the same run at one and
// at two worker threads is bit-identical, injections included.
#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <utility>
#include <vector>

#include "online/pairing.h"
#include "stream/engine.h"
#include "stream/shard.h"
#include "util/rng.h"
#include "workload/generators.h"

#include "stream_checks.h"

namespace cmvrp {
namespace {

class OnlineStress : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(OnlineStress, PhysicalInvariantsHoldUnderChaos) {
  Rng rng(GetParam() * 7919);
  const std::int64_t span = rng.next_int(4, 12);
  const Box field(Point{0, 0}, Point{span, span});
  const auto jobs = smart_dust_stream(
      field, rng.next_int(30, 120), rng.next_double(0.0, 0.3), rng);

  OnlineConfig cfg;
  cfg.capacity = rng.next_double(3.0, 20.0);
  cfg.cube_side = rng.next_int(2, 6);
  cfg.anchor = Point{0, 0};
  cfg.max_message_delay = rng.next_int(0, 9);
  cfg.seed = GetParam();
  cfg.enable_monitoring = rng.next_bool(0.8);

  // Random failures: a few silent-dones and early breakers.
  std::vector<Point> silent;
  const int silent_count = static_cast<int>(rng.next_below(4));
  for (int k = 0; k < silent_count; ++k)
    silent.push_back(Point{rng.next_int(0, span), rng.next_int(0, span)});
  std::vector<std::pair<Point, double>> breakers;
  const int breaker_count = static_cast<int>(rng.next_below(4));
  for (int k = 0; k < breaker_count; ++k)
    breakers.emplace_back(Point{rng.next_int(0, span), rng.next_int(0, span)},
                          rng.next_double(0.0, 1.0));

  const auto run = [&](int threads, std::int64_t batch) {
    StreamConfig sc;
    sc.online = cfg;
    sc.threads = threads;
    sc.batch_size = batch;
    StreamEngine engine(2, sc);
    for (const Point& home : silent) engine.inject_silent_done(home);
    for (const auto& [home, longevity] : breakers)
      engine.inject_break_after(home, longevity);
    engine.ingest(jobs);
    return engine.finish();
  };
  const StreamResult r = run(1, 256);
  // Thread count and batching cannot move any of it.
  expect_identical(r, run(2, 16));
  const auto& m = r.metrics;

  // Arrival accounting.
  EXPECT_EQ(m.jobs_served + m.jobs_failed, jobs.size());
  EXPECT_EQ(r.served_jobs.size() + r.failed_jobs.size(), jobs.size());
  // Energy conservation: all spending is either a unit of service or a
  // unit of travel.
  EXPECT_NEAR(m.total_energy_spent,
              static_cast<double>(m.jobs_served) +
                  static_cast<double>(m.total_travel),
              1e-6);
  // Capacity is a hard ceiling for every vehicle.
  EXPECT_LE(m.max_energy_spent, cfg.capacity + 1e-9);
  // Computation accounting.
  EXPECT_LE(m.replacements, m.computations_started);
  EXPECT_EQ(m.network.replies, m.network.queries);
}

INSTANTIATE_TEST_SUITE_P(Seeds, OnlineStress,
                         ::testing::Range<std::uint64_t>(1, 26));

// --- the monitoring cache ---------------------------------------------------
//
// FleetCore keeps the §3.2.5 ring's heartbeat slots and skips the timeout
// scan between writes that could change them. check_monitor_cache()
// rebuilds both from the fleet and throws when the cache disagrees, so a
// writer that forgot to mark the cache stale surfaces here in every
// build type, not only where Debug runs the check inside each round.

class MonitorCache : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(MonitorCache, MatchesRescanUnderChaos) {
  Rng rng(GetParam() * 104729);
  std::uint64_t ring_initiations = 0;
  for (const std::int64_t stride : {1, 3}) {
    // Undersized W: vehicles exhaust after a few jobs, the idle pool runs
    // dry, and pairs go unrecoverable while the ring keeps changing.
    OnlineConfig cfg;
    cfg.capacity = rng.next_double(4.0, 9.0);
    cfg.cube_side = rng.next_int(3, 6);
    cfg.anchor = Point{0, 0};
    cfg.seed = GetParam();
    cfg.monitor_stride = stride;
    const std::int64_t side = cfg.cube_side;
    // Three cubes take turns on one lent transport.
    const CubeParams params(2, cfg);
    Transport transport(cfg.max_message_delay,
                        static_cast<std::size_t>(params.pairing.cube_volume()));
    OutcomeLog log;
    std::vector<CubeServer::Ptr> cubes;
    for (std::int64_t c = 0; c < 3; ++c)
      cubes.push_back(
          CubeServer::create(params, Point{c * side, 0}, transport));
    for (std::int64_t index = 0; index < 300; ++index) {
      CubeServer& cube = *cubes[rng.next_below(cubes.size())];
      const Point corner = cube.corner();
      const auto vertex = [&] {
        return Point{corner[0] + rng.next_int(0, side - 1),
                     corner[1] + rng.next_int(0, side - 1)};
      };
      // Failure injections between arrivals.
      const std::uint64_t roll = rng.next_below(24);
      if (roll == 0) cube.inject_silent_done(vertex());
      if (roll == 1)
        cube.inject_break_after(vertex(), rng.next_bool(0.3)
                                              ? 0.0
                                              : rng.next_double(0.1, 0.9));
      cube.serve({vertex(), index}, log, nullptr);
      ASSERT_NO_THROW(cube.core().check_monitor_cache())
          << "stride " << stride << ", arrival " << index;
    }
    for (const auto& cube : cubes) {
      cube->finish(log, nullptr);
      ASSERT_NO_THROW(cube->core().check_monitor_cache())
          << "stride " << stride << ", after finish";
      ring_initiations += cube->metrics().monitor_initiations;
    }
  }
  // The ring did act: it is what the cache feeds.
  EXPECT_GT(ring_initiations, 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, MonitorCache,
                         ::testing::Range<std::uint64_t>(1, 26));

// --- Algorithm 2 under the microscope ---------------------------------------
//
// Diffusing computations on a tiny, fully-inspectable cube, driven
// through its CubeServer: exhaust active vehicles and track exactly which
// messages flow, how the tree resolves, and where the pair state ends up.

// The pair invariants at quiescence: no vehicle is the active vehicle of
// two pairs, and every active vehicle stands on a vertex of its own pair.
void expect_pair_invariants(const FleetCore& core) {
  const CubePairing& pairing = core.pairing();
  std::set<std::size_t> seen;
  for (const Point& primary : pairing.primaries_in_cube(core.corner())) {
    const auto vid = core.active_of_pair(primary);
    if (!vid.has_value()) continue;
    EXPECT_TRUE(seen.insert(*vid).second)
        << "vehicle " << *vid << " is active for two pairs";
    const Point pos = core.position_of(*vid);
    EXPECT_EQ(core.vehicles()[*vid].s1, WorkState::kActive)
        << primary.to_string();
    EXPECT_EQ(pairing.primary(pos), primary)
        << "active vehicle " << *vid << " at " << pos.to_string()
        << " outside pair " << primary.to_string();
  }
}

TEST(Algorithm2Microscope, SingleComputationTreeAndRelay) {
  OnlineConfig cfg;
  cfg.capacity = 4.0;  // serves 3 jobs (walks included), then done
  cfg.cube_side = 2;
  cfg.anchor = Point{0, 0};
  cfg.seed = 3;
  TestCube owned(2, cfg, Point{0, 0});
  const CubeServer& cube = owned.server;
  serve_all(owned, repeated(Point{0, 0}, 3));
  const auto& m = cube.metrics();
  EXPECT_EQ(m.jobs_served, 3u);

  // After 3 services the vehicle hits remaining < 2 and initiates.
  EXPECT_EQ(m.computations_started, 1u);
  EXPECT_EQ(m.replacements, 1u);
  EXPECT_EQ(m.computations_failed, 0u);
  // 2x2 cube: every vehicle is within distance 2 of every other, so the
  // initiator queries 3 neighbors; non-idle ones re-flood to their 3.
  // Exact counts depend on delivery interleaving, but bounds are tight:
  EXPECT_GE(m.network.queries, 3u);
  EXPECT_LE(m.network.queries, 12u);
  EXPECT_EQ(m.network.replies, m.network.queries);
  // Phase II: the move relays along the tree path; path length <= 2 hops
  // in a 2x2 cube.
  EXPECT_GE(m.network.moves, 1u);
  EXPECT_LE(m.network.moves, 2u);

  // The replacement took over the pair: its vehicle sits at (0,0)'s pair
  // position and is active.
  const FleetCore& core = cube.core();
  const auto active = core.active_of_pair(Point{0, 0});
  ASSERT_TRUE(active.has_value());
  EXPECT_EQ(core.position_of(*active), (Point{0, 0}));
  // The original vehicle is done. Job vertex (0,0) is the primary (snake
  // index 0 is even), so the original active vehicle lived at home (0,0)
  // and exhausted there.
  const Vehicle* original = core.vehicle_at_home(Point{0, 0});
  ASSERT_NE(original, nullptr);
  EXPECT_NE(original->id, *active);
  EXPECT_EQ(original->s1, WorkState::kDone);
  EXPECT_EQ(original->s2, TransferState::kWaiting);  // computation ended
  expect_pair_invariants(core);
}

TEST(Algorithm2Microscope, FailedSearchLeavesCleanState) {
  // 2x2 cube with capacity so small the pool drains: the final
  // computation must fail, vehicles must all return to `waiting`, and the
  // failure must be counted — no dangling searching states.
  OnlineConfig cfg;
  cfg.capacity = 3.0;
  cfg.cube_side = 2;
  cfg.anchor = Point{0, 0};
  cfg.seed = 5;
  cfg.enable_monitoring = false;
  TestCube owned(2, cfg, Point{0, 0});
  const CubeServer& cube = owned.server;
  serve_all(owned, repeated(Point{0, 0}, 12));
  const auto& m = cube.metrics();
  EXPECT_GT(m.jobs_failed, 0u);
  EXPECT_GT(m.computations_failed, 0u);
  // All four vehicles of the cube are back in waiting (no stuck states).
  Box::cube(Point{0, 0}, 2).for_each_point([&](const Point& p) {
    const Vehicle* v = cube.core().vehicle_at_home(p);
    ASSERT_NE(v, nullptr);
    EXPECT_EQ(v->s2, TransferState::kWaiting) << p.to_string();
    EXPECT_EQ(v->num, 0) << p.to_string();
  });
  expect_pair_invariants(cube.core());
}

TEST(Algorithm2Microscope, RingRescueReturnsToLastServedVertex) {
  // One pair is served from both of its vertices by two successive
  // vehicles, both silent-done; the §3.2.5 ring then has to re-staff the
  // abandoned pair, and the replacement must stand where the pair was
  // last served — not at the vertex an earlier vehicle gave up on. A
  // ring that looked the vertex up in a hash table keyed by position got
  // this wrong once twelve other pairs' rescues had grown the table
  // (libstdc++ re-buckets at the 14th key, reversing its order).
  OnlineConfig cfg;
  cfg.capacity = 14.0;  // every replacement arrives with >= 4 to spare
  cfg.cube_side = 6;
  cfg.anchor = Point{0, 0};
  cfg.seed = 3;
  const Point corner{0, 0};
  TestCube cube(2, cfg, corner);
  const FleetCore& core = cube.server.core();
  const CubePairing& pairing = core.pairing();
  // The ring's last slot (snake pair 34/35), so the sweep meets the
  // other slots' rescues first.
  const Point a = pairing.snake_vertex(corner, 34);
  const Point b = pairing.snake_vertex(corner, 35);
  Box::cube(corner, 6).for_each_point(
      [&](const Point& home) { cube.server.inject_silent_done(home); });

  // The pair's own vehicle exhausts at a; the ring sends a replacement
  // to a.
  std::int64_t index = 0;
  for (int k = 0; k < 13; ++k) cube.serve({a, index++});
  ASSERT_EQ(core.metrics().replacements, 1u);
  // The replacement walks to b and serves there until one more job
  // exhausts it.
  const auto replacement = core.active_of_pair(a);
  ASSERT_TRUE(replacement.has_value());
  const Vehicle& r = core.vehicles()[*replacement];
  while (r.remaining(cfg.capacity) -
             (core.position_of(*replacement) == b ? 1.0 : 2.0) >=
         2.0)
    cube.serve({b, index++});
  // Twelve other pairs lose their vehicles at once, so the sweep after
  // the next job rescues them before it reaches the last slot.
  for (std::int64_t k = 0; k < 24; k += 2)
    cube.server.inject_break_after(pairing.snake_vertex(corner, k), 0.0);
  cube.serve({b, index++});
  cube.finish();

  EXPECT_EQ(r.s1, WorkState::kDone);
  EXPECT_EQ(core.position_of(*replacement), b);
  EXPECT_EQ(core.metrics().jobs_failed, 0u);
  EXPECT_EQ(core.metrics().replacements, 14u);
  const auto active = core.active_of_pair(a);
  ASSERT_TRUE(active.has_value());
  EXPECT_NE(*active, *replacement);
  EXPECT_EQ(core.position_of(*active), b);
  expect_pair_invariants(core);
}

}  // namespace
}  // namespace cmvrp
