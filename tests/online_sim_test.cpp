#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "online/capacity_search.h"
#include "online/simulation.h"
#include "sim/event_queue.h"
#include "sim/network.h"
#include "workload/generators.h"

namespace cmvrp {
namespace {

OnlineConfig small_config(double capacity, std::int64_t side = 4,
                          std::uint64_t seed = 1) {
  OnlineConfig c;
  c.capacity = capacity;
  c.cube_side = side;
  c.anchor = Point{0, 0};
  c.seed = seed;
  return c;
}

// --- event queue / network substrate ----------------------------------------

// Test receiver: logs every delivery with the clock it fired at. Binds as
// an EventQueue sink or a Network receiver.
struct Inbox {
  struct Entry {
    SimTime at;
    Delivery d;
  };
  explicit Inbox(const EventQueue& queue) : q(&queue) {}
  static void receive(void* self, const Delivery& d) {
    auto& in = *static_cast<Inbox*>(self);
    in.log.push_back({in.q->now(), d});
  }
  std::vector<std::uint32_t> ids() const {
    std::vector<std::uint32_t> out;
    for (const auto& e : log) out.push_back(e.d.to);
    return out;
  }

  const EventQueue* q;
  std::vector<Entry> log;
};

// A delivery the queue tests identify by its `to` field.
Delivery tagged(std::uint32_t id) { return Delivery{id, 0, ExistingMsg{}}; }

TEST(EventQueue, FiresInTimeThenInsertionOrder) {
  EventQueue q;
  Inbox in(q);
  q.bind(&Inbox::receive, &in);
  q.schedule(5, tagged(2));
  q.schedule(1, tagged(0));
  q.schedule(5, tagged(3));
  q.schedule(2, tagged(1));
  q.run_to_quiescence();
  EXPECT_EQ(in.ids(), (std::vector<std::uint32_t>{0, 1, 2, 3}));
  EXPECT_EQ(q.now(), 5);
}

TEST(EventQueue, RejectsPastScheduling) {
  EventQueue q;
  Inbox in(q);
  q.bind(&Inbox::receive, &in);
  q.schedule(10, tagged(0));
  q.step();
  EXPECT_THROW(q.schedule(5, tagged(1)), check_error);
}

TEST(EventQueue, RejectsSchedulingWithoutSink) {
  EventQueue q;
  EXPECT_THROW(q.schedule(1, tagged(0)), check_error);
}

TEST(EventQueue, DetectsLivelock) {
  EventQueue q;
  // Every delivery reschedules itself one tick later.
  q.bind(
      [](void* queue, const Delivery& d) {
        static_cast<EventQueue*>(queue)->schedule_after(1, d);
      },
      &q);
  q.schedule(0, tagged(0));
  EXPECT_THROW(q.run_to_quiescence(1000), check_error);
}

TEST(EventQueue, GrowsWhenFifoClampSchedulesPastSpan) {
  EventQueue q;
  Network net(q, Rng(5), /*max_delay=*/3);
  Inbox in(q);
  net.set_receiver(&Inbox::receive, &in);
  // Move the clock off zero first, so growth has to re-bucket lists
  // whose ticks wrap around the old ring.
  net.send(0, 1, QueryMsg{});
  q.run_to_quiescence();
  const SimTime start = q.now();
  ASSERT_GT(start, 0);
  // 300 same-tick sends per channel: the FIFO clamp spaces each
  // channel's deliveries one tick apart, far past the initial span.
  for (std::uint64_t i = 0; i < 300; ++i) {
    net.send(0, 1, ReplyMsg{true, InitTag{0, i}});
    net.send(2, 3, ReplyMsg{true, InitTag{2, i}});
  }
  q.run_to_quiescence();
  ASSERT_EQ(in.log.size(), 601u);
  std::uint64_t next[4] = {0, 0, 0, 0};
  SimTime last[4] = {start, start, start, start};
  for (std::size_t k = 1; k < in.log.size(); ++k) {
    const auto& e = in.log[k];
    EXPECT_GE(e.at, in.log[k - 1].at);
    EXPECT_EQ(std::get<ReplyMsg>(e.d.msg).init.seq, next[e.d.to]++);
    EXPECT_GT(e.at, last[e.d.to]);
    last[e.d.to] = e.at;
  }
  EXPECT_EQ(next[1], 300u);
  EXPECT_EQ(next[3], 300u);
  EXPECT_GE(q.now(), start + 300);
}

TEST(EventQueue, ClockAdvancesAcrossManyRingLengths) {
  // A relay: each delivery schedules its successor one tick short of the
  // initial span later, so the clock laps the ring hundreds of times.
  struct Relay {
    EventQueue* q;
    std::uint32_t left;
    std::vector<SimTime> at;
  };
  EventQueue q;
  Relay relay{&q, 1000, {}};
  q.bind(
      [](void* self, const Delivery& d) {
        auto& r = *static_cast<Relay*>(self);
        r.at.push_back(r.q->now());
        if (--r.left > 0) r.q->schedule_after(15, d);
      },
      &relay);
  q.schedule(3, tagged(0));
  q.run_to_quiescence();
  ASSERT_EQ(relay.at.size(), 1000u);
  for (std::size_t k = 0; k < relay.at.size(); ++k)
    EXPECT_EQ(relay.at[k], 3 + 15 * static_cast<SimTime>(k));
  EXPECT_EQ(q.now(), 3 + 15 * 999);
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, RandomSchedulesMatchStableSortByTime) {
  // 10k deliveries at random ticks, in rounds separated by partial
  // drains, with horizons inside and far past the span. Whatever fired
  // before a schedule is due no later than it, so the firing order is
  // the stable sort by time of everything scheduled.
  Rng rng(99);
  EventQueue q;
  Inbox in(q);
  q.bind(&Inbox::receive, &in);
  std::vector<std::pair<SimTime, std::uint32_t>> scheduled;  // (at, id)
  for (int round = 0; round < 10; ++round) {
    const std::int64_t horizon = round % 3 == 0 ? 4 : round % 3 == 1 ? 40 : 4000;
    for (int k = 0; k < 1000; ++k) {
      const SimTime at = q.now() + rng.next_int(0, horizon);
      const auto id = static_cast<std::uint32_t>(scheduled.size());
      q.schedule(at, tagged(id));
      scheduled.emplace_back(at, id);
    }
    const std::uint64_t drain = rng.next_below(q.pending() + 1);
    for (std::uint64_t k = 0; k < drain; ++k) ASSERT_TRUE(q.step());
  }
  q.run_to_quiescence();
  std::stable_sort(scheduled.begin(), scheduled.end(),
                   [](const auto& a, const auto& b) { return a.first < b.first; });
  ASSERT_EQ(in.log.size(), 10000u);
  for (std::size_t k = 0; k < scheduled.size(); ++k) {
    ASSERT_EQ(in.log[k].d.to, scheduled[k].second) << "position " << k;
    ASSERT_EQ(in.log[k].at, scheduled[k].first) << "position " << k;
  }
}

TEST(Network, ChannelsAreFifo) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    EventQueue q;
    Network net(q, Rng(seed), /*max_delay=*/7);
    Inbox in(q);
    net.set_receiver(&Inbox::receive, &in);
    for (std::uint64_t i = 0; i < 30; ++i)
      net.send(0, 1, ReplyMsg{true, InitTag{0, i}});
    q.run_to_quiescence();
    ASSERT_EQ(in.log.size(), 30u);
    for (std::uint64_t i = 0; i < 30; ++i)
      EXPECT_EQ(std::get<ReplyMsg>(in.log[i].d.msg).init.seq, i)
          << "seed " << seed;
  }
}

TEST(Network, CountsByKind) {
  EventQueue q;
  Network net(q, Rng(3), 2);
  Inbox in(q);
  net.set_receiver(&Inbox::receive, &in);
  net.send(0, 1, QueryMsg{});
  net.send(1, 0, ReplyMsg{});
  net.send(0, 2, MoveMsg{Point{0, 0}, kNoInit});
  net.send(2, 0, ExistingMsg{});
  q.run_to_quiescence();
  EXPECT_EQ(net.stats().queries, 1u);
  EXPECT_EQ(net.stats().replies, 1u);
  EXPECT_EQ(net.stats().moves, 1u);
  EXPECT_EQ(net.stats().heartbeats, 1u);
  EXPECT_EQ(net.stats().total(), 4u);
  // The heartbeat is counted but elided: three deliveries fire.
  EXPECT_EQ(in.log.size(), 3u);
}

// --- basic serving ------------------------------------------------------------

TEST(OnlineSim, ServesSingleJobInPlace) {
  OnlineSimulation sim(2, small_config(10.0));
  // Job lands on a primary vertex: its own active vehicle serves at cost 1.
  std::vector<Job> jobs{{Point{0, 0}, 0}};
  EXPECT_TRUE(sim.run(jobs));
  EXPECT_EQ(sim.metrics().jobs_served, 1u);
  EXPECT_EQ(sim.metrics().jobs_failed, 0u);
  EXPECT_DOUBLE_EQ(sim.metrics().max_energy_spent, 1.0);
}

TEST(OnlineSim, PartnerVertexServedByPairActive) {
  OnlineSimulation sim(2, small_config(10.0));
  const auto& pairing = sim.pairing();
  // Find a non-primary vertex in the first cube.
  Point secondary = Point{0, 0};
  Box::cube(Point{0, 0}, 4).for_each_point([&](const Point& p) {
    if (!pairing.is_primary(p)) secondary = p;
  });
  ASSERT_FALSE(pairing.is_primary(secondary));
  std::vector<Job> jobs{{secondary, 0}};
  EXPECT_TRUE(sim.run(jobs));
  // One walk (1) + one service (1).
  EXPECT_DOUBLE_EQ(sim.metrics().max_energy_spent, 2.0);
  EXPECT_EQ(sim.metrics().total_travel, 1u);
}

TEST(OnlineSim, ManyJobsNoReplacementNeededUnderLightLoad) {
  OnlineSimulation sim(2, small_config(100.0));
  std::vector<Job> jobs;
  for (int i = 0; i < 10; ++i) jobs.push_back({Point{1, 1}, i});
  EXPECT_TRUE(sim.run(jobs));
  EXPECT_EQ(sim.metrics().replacements, 0u);
  EXPECT_EQ(sim.metrics().computations_started, 0u);
}

// --- diffusing computation & replacement ------------------------------------

TEST(OnlineSim, ExhaustedVehicleIsReplacedByIdlePartnerPool) {
  // Capacity 6: after ~5 services at one vertex the vehicle declares done
  // (remaining < 2) and a diffusing computation must find an idle vehicle.
  OnlineSimulation sim(2, small_config(6.0));
  std::vector<Job> jobs;
  for (int i = 0; i < 10; ++i) jobs.push_back({Point{0, 0}, i});
  EXPECT_TRUE(sim.run(jobs));
  EXPECT_EQ(sim.metrics().jobs_served, 10u);
  EXPECT_GE(sim.metrics().computations_started, 1u);
  EXPECT_GE(sim.metrics().replacements, 1u);
  EXPECT_GT(sim.metrics().network.queries, 0u);
  EXPECT_GT(sim.metrics().network.replies, 0u);
  EXPECT_GT(sim.metrics().network.moves, 0u);
}

TEST(OnlineSim, ReplacementChainSurvivesManyExhaustions) {
  // Heavy point demand cycles through many replacements; a 6x6 cube has 18
  // idle vehicles to recruit, each arriving with capacity minus travel.
  OnlineSimulation sim(2, small_config(8.0, /*side=*/6));
  std::vector<Job> jobs;
  for (int i = 0; i < 40; ++i) jobs.push_back({Point{2, 2}, i});
  EXPECT_TRUE(sim.run(jobs));
  EXPECT_EQ(sim.metrics().jobs_served, 40u);
  EXPECT_GE(sim.metrics().replacements, 5u);
}

TEST(OnlineSim, PointDemandBeyondReachableEnergyFailsGracefully) {
  // The same cube cannot serve 60 point jobs at capacity 6: recruited
  // idle vehicles burn most of their energy traveling. The simulation
  // must report failure (never serve beyond physical energy), not hang.
  OnlineSimulation sim(2, small_config(6.0, /*side=*/6));
  std::vector<Job> jobs;
  for (int i = 0; i < 60; ++i) jobs.push_back({Point{2, 2}, i});
  EXPECT_FALSE(sim.run(jobs));
  const auto& m = sim.metrics();
  EXPECT_EQ(m.jobs_served + m.jobs_failed, 60u);
  // Served work is bounded by total spendable energy in the cube.
  EXPECT_LE(m.total_energy_spent, 36.0 * 6.0 + 1e-9);
}

TEST(OnlineSim, FailsWhenCubeExhausted) {
  // Tiny cube (4 vehicles) and much demand: eventually no idle vehicles
  // remain and jobs must fail — reported, not thrown.
  OnlineSimulation sim(2, small_config(4.0, /*side=*/2));
  std::vector<Job> jobs;
  for (int i = 0; i < 40; ++i) jobs.push_back({Point{0, 0}, i});
  EXPECT_FALSE(sim.run(jobs));
  EXPECT_GT(sim.metrics().jobs_failed, 0u);
  EXPECT_GT(sim.metrics().computations_failed, 0u);
}

TEST(OnlineSim, DeterministicForSeed) {
  auto run_once = [](std::uint64_t seed) {
    OnlineSimulation sim(2, small_config(6.0, 4, seed));
    std::vector<Job> jobs;
    for (int i = 0; i < 20; ++i) jobs.push_back({Point{i % 3, i % 2}, i});
    sim.run(jobs);
    return sim.metrics();
  };
  const auto a = run_once(42), b = run_once(42), c = run_once(43);
  EXPECT_EQ(a.network.total(), b.network.total());
  EXPECT_EQ(a.replacements, b.replacements);
  EXPECT_DOUBLE_EQ(a.max_energy_spent, b.max_energy_spent);
  // Different seed still serves everything (delays only affect ordering).
  EXPECT_EQ(c.jobs_served, a.jobs_served);
}

TEST(OnlineSim, MessageDelaysDoNotChangeServiceOutcome) {
  for (SimTime delay : {0, 1, 5, 17}) {
    OnlineConfig cfg = small_config(6.0, 4, 7);
    cfg.max_message_delay = delay;
    OnlineSimulation sim(2, cfg);
    std::vector<Job> jobs;
    for (int i = 0; i < 15; ++i) jobs.push_back({Point{0, 0}, i});
    EXPECT_TRUE(sim.run(jobs)) << "delay " << delay;
    EXPECT_EQ(sim.metrics().jobs_served, 15u);
  }
}

TEST(OnlineSim, DiffusingComputationMessageComplexityBounded) {
  // Each Phase I computation floods one cube: queries are bounded by
  // (#vehicles in cube) x (max degree at radius 2) and every query gets
  // exactly one reply. Check the aggregate bound over a heavy run.
  const std::int64_t side = 5;
  OnlineSimulation sim(2, small_config(6.0, side));
  std::vector<Job> jobs;
  for (int i = 0; i < 40; ++i) jobs.push_back({Point{2, 2}, i});
  sim.run(jobs);
  const auto& m = sim.metrics();
  ASSERT_GT(m.computations_started, 0u);
  const std::uint64_t cube_vehicles =
      static_cast<std::uint64_t>(side * side);
  const std::uint64_t max_degree = 12;  // |N_2| - 1 in 2-D
  EXPECT_LE(m.network.queries,
            m.computations_started * cube_vehicles * max_degree);
  EXPECT_EQ(m.network.replies, m.network.queries);  // one reply per query
  EXPECT_LE(m.network.moves,
            m.replacements + m.computations_started * cube_vehicles);
}

TEST(OnlineSim, EveryReplacementHasAComputation) {
  OnlineSimulation sim(2, small_config(6.0, 6));
  std::vector<Job> jobs;
  for (int i = 0; i < 30; ++i) jobs.push_back({Point{1, 1}, i});
  sim.run(jobs);
  const auto& m = sim.metrics();
  EXPECT_LE(m.replacements, m.computations_started);
  EXPECT_EQ(m.computations_started,
            m.replacements + m.computations_failed);
}

// --- failure scenarios (§3.2.5) ----------------------------------------------

TEST(OnlineSim, SilentDoneVehicleIsRescuedByMonitoringRing) {
  OnlineConfig cfg = small_config(6.0);
  OnlineSimulation sim(2, cfg);
  sim.inject_silent_done(Point{0, 0});
  std::vector<Job> jobs;
  for (int i = 0; i < 12; ++i) jobs.push_back({Point{0, 0}, i});
  EXPECT_TRUE(sim.run(jobs));
  EXPECT_EQ(sim.metrics().jobs_served, 12u);
  EXPECT_GE(sim.metrics().monitor_initiations, 1u);  // the ring stepped in
  EXPECT_GT(sim.metrics().network.heartbeats, 0u);
}

TEST(OnlineSim, SilentDoneWithoutMonitoringLosesJobs) {
  OnlineConfig cfg = small_config(6.0);
  cfg.enable_monitoring = false;
  OnlineSimulation sim(2, cfg);
  sim.inject_silent_done(Point{0, 0});
  std::vector<Job> jobs;
  for (int i = 0; i < 12; ++i) jobs.push_back({Point{0, 0}, i});
  EXPECT_FALSE(sim.run(jobs));
  EXPECT_GT(sim.metrics().jobs_failed, 0u);
}

TEST(OnlineSim, BrokenActiveVehicleIsReplaced) {
  OnlineConfig cfg = small_config(20.0);
  OnlineSimulation sim(2, cfg);
  // Vehicle at (0,0) breaks after spending 20% of its capacity.
  sim.inject_break_after(Point{0, 0}, 0.2);
  std::vector<Job> jobs;
  for (int i = 0; i < 12; ++i) jobs.push_back({Point{0, 0}, i});
  EXPECT_TRUE(sim.run(jobs));
  EXPECT_EQ(sim.metrics().jobs_served, 12u);
  EXPECT_GE(sim.metrics().monitor_initiations, 1u);
  const Vehicle* broken = sim.vehicle_at_home(Point{0, 0});
  ASSERT_NE(broken, nullptr);
  EXPECT_TRUE(broken->dead);
  EXPECT_LE(broken->spent(), 0.2 * 20.0 + 2.0);  // stopped promptly
}

TEST(OnlineSim, ZeroLongevityVehicleReplacedBeforeFirstJob) {
  // p_i = 0 vehicles are dead from the start; the periodic heartbeat round
  // detects this before the first arrival, so no job is lost.
  OnlineConfig cfg = small_config(20.0);
  OnlineSimulation sim(2, cfg);
  sim.inject_break_after(Point{0, 0}, 0.0);
  std::vector<Job> jobs{{Point{0, 0}, 0}, {Point{0, 0}, 1}};
  EXPECT_TRUE(sim.run(jobs));
  EXPECT_EQ(sim.metrics().jobs_served, 2u);
  EXPECT_GE(sim.metrics().monitor_initiations, 1u);
  const Vehicle* v = sim.vehicle_at_home(Point{0, 0});
  ASSERT_NE(v, nullptr);
  EXPECT_DOUBLE_EQ(v->spent(), 0.0);  // the broken vehicle never worked
}

TEST(OnlineSim, ConstantBreakagesToleratedWithModestEnergy) {
  // Scenario 3: a constant number of active vehicles break; the ring
  // replaces them and all jobs are still served.
  OnlineConfig cfg = small_config(12.0, /*side=*/6);
  OnlineSimulation sim(2, cfg);
  sim.inject_break_after(Point{0, 0}, 0.3);
  sim.inject_break_after(Point{2, 2}, 0.3);
  sim.inject_break_after(Point{4, 4}, 0.3);
  Rng rng(5);
  std::vector<Job> jobs;
  for (int i = 0; i < 40; ++i)
    jobs.push_back({Point{rng.next_int(0, 5), rng.next_int(0, 5)}, i});
  EXPECT_TRUE(sim.run(jobs));
  EXPECT_EQ(sim.metrics().jobs_served, 40u);
}

// --- capacity search / Theorem 1.4.2 ----------------------------------------

TEST(CapacitySearch, TheoryBoundAlwaysSuffices) {
  Rng rng(11);
  const Box box(Point{0, 0}, Point{7, 7});
  const DemandMap d = uniform_demand(box, 60, rng);
  Rng order_rng(12);
  const auto jobs = stream_from_demand(d, ArrivalOrder::kShuffled, order_rng);
  const OnlineConfig cfg = default_online_config(d);
  OnlineSimulation sim(2, cfg);
  EXPECT_TRUE(sim.run(jobs));  // Lemma 3.3.1 capacity worked
}

TEST(CapacitySearch, EmpiricalWonBetweenLowerAndTheoremBound) {
  Rng rng(21);
  const Box box(Point{0, 0}, Point{5, 5});
  const DemandMap d = uniform_demand(box, 40, rng);
  Rng order_rng(22);
  const auto jobs = stream_from_demand(d, ArrivalOrder::kShuffled, order_rng);
  const auto r = find_min_online_capacity(jobs, 2, /*seed=*/1, /*tol=*/0.1);
  EXPECT_GT(r.won_empirical, 0.0);
  EXPECT_LE(r.won_empirical, r.won_theory + 0.1);
  // Won >= Woff >= omega_c up to the unit granularity of serving.
  EXPECT_GE(r.won_empirical + 1e-9, std::min(1.0, r.omega_c));
  EXPECT_GT(r.simulations, 3u);
}

TEST(CapacitySearch, DefaultConfigUsesCubeBound) {
  DemandMap d(2);
  d.set(Point{0, 0}, 45.0);
  const OnlineConfig cfg = default_online_config(d);
  EXPECT_GE(cfg.cube_side, 2);
  EXPECT_GT(cfg.capacity, 0.0);
  EXPECT_EQ(cfg.anchor, (Point{0, 0}));
}

TEST(WonUpperBound, MatchesLemmaFormula) {
  EXPECT_DOUBLE_EQ(won_upper_bound(1.0, 2), 38.0);   // 4·9 + 2
  EXPECT_DOUBLE_EQ(won_upper_bound(2.0, 1), 26.0);   // (4·3 + 1)·2
  EXPECT_DOUBLE_EQ(won_upper_bound(1.0, 3), 111.0);  // 4·27 + 3
}

}  // namespace
}  // namespace cmvrp
