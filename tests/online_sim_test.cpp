#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <type_traits>
#include <utility>
#include <vector>

#include "online/capacity_search.h"
#include "online/pairing.h"
#include "sim/event_queue.h"
#include "sim/network.h"
#include "stream/engine.h"
#include "stream/shard.h"
#include "stream/won_search.h"
#include "workload/generators.h"

#include "stream_checks.h"

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
Delivery tagged(std::uint32_t id) { return Delivery{id, 0, Message{}}; }

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
  Transport t(/*max_delay=*/3, /*vehicles=*/4);
  EventQueue& q = t.queue;
  Network net(t, Rng(5));
  Inbox in(q);
  net.set_receiver(&Inbox::receive, &in);
  // Move the clock off zero first, so growth has to re-bucket lists
  // whose ticks wrap around the old ring.
  net.send(0, 1, Message{});
  q.run_to_quiescence();
  const SimTime start = q.now();
  ASSERT_GT(start, 0);
  // 300 same-tick sends per channel: the FIFO clamp spaces each
  // channel's deliveries one tick apart, far past the initial span.
  for (std::uint32_t i = 0; i < 300; ++i) {
    net.send(0, 1, Message::reply(InitTag{0, i}, true));
    net.send(2, 3, Message::reply(InitTag{2, i}, true));
  }
  q.run_to_quiescence();
  ASSERT_EQ(in.log.size(), 601u);
  std::uint64_t next[4] = {0, 0, 0, 0};
  SimTime last[4] = {start, start, start, start};
  for (std::size_t k = 1; k < in.log.size(); ++k) {
    const auto& e = in.log[k];
    EXPECT_GE(e.at, in.log[k - 1].at);
    EXPECT_EQ(e.d.msg.init.seq, next[e.d.to]++);
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
    Transport t(/*max_delay=*/7, /*vehicles=*/2);
    EventQueue& q = t.queue;
    Network net(t, Rng(seed));
    Inbox in(q);
    net.set_receiver(&Inbox::receive, &in);
    for (std::uint32_t i = 0; i < 30; ++i)
      net.send(0, 1, Message::reply(InitTag{0, i}, true));
    q.run_to_quiescence();
    ASSERT_EQ(in.log.size(), 30u);
    for (std::uint64_t i = 0; i < 30; ++i)
      EXPECT_EQ(in.log[i].d.msg.init.seq, i)
          << "seed " << seed;
  }
}

TEST(Network, CountsByKind) {
  Transport t(/*max_delay=*/2, /*vehicles=*/3);
  EventQueue& q = t.queue;
  Network net(t, Rng(3));
  Inbox in(q);
  net.set_receiver(&Inbox::receive, &in);
  // Heartbeats go out at quiescence only, so this one is sent first.
  const std::uint32_t slot = net.heartbeat_slot(2, 0);
  net.beat_all(&slot, 1);
  net.send(0, 1, Message::query(kNoInit, 0));
  net.send(1, 0, Message::reply(kNoInit, false));
  net.send(0, 2, Message::move(kNoInit, 0));
  q.run_to_quiescence();
  EXPECT_EQ(net.stats().queries, 1u);
  EXPECT_EQ(net.stats().replies, 1u);
  EXPECT_EQ(net.stats().moves, 1u);
  EXPECT_EQ(net.stats().heartbeats, 1u);
  EXPECT_EQ(net.stats().total(), 4u);
  // The heartbeat is counted but elided: three deliveries fire.
  EXPECT_EQ(in.log.size(), 3u);
}

// --- the lent transport ------------------------------------------------------

TEST(InitTag, SequenceLimitIsCheckedAtTheIncrement) {
  std::uint32_t seq = 0;
  EXPECT_EQ(next_init(7, seq), (InitTag{7, 1}));
  EXPECT_EQ(packed_init(InitTag{7, 1}), (std::uint64_t{7} << 32) | 1u);
  EXPECT_EQ(packed_init(kNoInit), 0u);
  seq = UINT32_MAX - 1;
  EXPECT_EQ(next_init(7, seq).seq, UINT32_MAX);
  // One more would wrap the sequence back to 0.
  EXPECT_THROW(next_init(7, seq), check_error);
  EXPECT_EQ(seq, UINT32_MAX);
}

TEST(LentTransport, HeartbeatWhileDeliveryIsDueThrows) {
  Transport t(/*max_delay=*/2, /*vehicles=*/2);
  Network net(t, Rng(1));
  Inbox in(t.queue);
  net.set_receiver(&Inbox::receive, &in);
  net.send(0, 1, Message{});
  const std::uint32_t slot = net.heartbeat_slot(1, 0);
  EXPECT_THROW(net.beat_all(&slot, 1), check_error);
  EXPECT_THROW(net.drop_stale_heartbeats(), check_error);
  EXPECT_THROW(t.queue.resume_at(0), check_error);
  t.queue.run_to_quiescence();
  EXPECT_NO_THROW(net.beat_all(&slot, 1));
}

// The reference rule: one FIFO clamp per channel of every kind, per
// network, never pruned. It draws delays exactly as Network::send does.
struct OneClampPerChannel {
  Rng rng;
  std::map<std::pair<std::size_t, std::size_t>, SimTime> last;
  SimTime clock = 0;  // the network's clock when its last lend ended
  SimTime due = 0;    // latest delivery time scheduled in the open lend

  SimTime send(std::size_t from, std::size_t to, SimTime now) {
    SimTime at = now + 1 + static_cast<SimTime>(rng.next_below(kMaxDelay + 1));
    SimTime& l = last[{from, to}];
    if (at <= l) at = l + 1;
    l = at;
    return at;
  }

  static constexpr SimTime kMaxDelay = 3;
};

TEST(LentTransport, DeliveryTimesMatchOneClampPerChannel) {
  // Three networks of four vehicles each take turns on one transport
  // sized for exactly four, so their ids reach V - 1. Within a lend: flood
  // sends on random channels, partial drains, and heartbeat rounds on the
  // ring 0 -> 3 -> 2 -> 1 -> 0 at quiescence — several rounds at a still
  // clock push heartbeat clamps ahead of it, and later floods on ring
  // channels must wait for them. The networks' clocks drift apart, so a
  // lend often resumes below clamps an earlier lend left in the table,
  // none of which may bind it. Between lends a fresh network now and then
  // sends outside any lend, at the clock the last lend left or at one the
  // queue was resumed at directly: it must see no lent network's clamps,
  // and the next lend none of its.
  constexpr std::size_t kVehicles = 4;
  constexpr std::size_t kNets = 3;
  constexpr SimTime kDelay = OneClampPerChannel::kMaxDelay;
  int lends_below_the_table = 0;
  int unlent_senders = 0;
  for (std::uint64_t seed = 1; seed <= 30; ++seed) {
    Transport t(kDelay, kVehicles);
    Inbox in(t.queue);
    std::vector<std::unique_ptr<Network>> nets;
    std::vector<OneClampPerChannel> model;
    for (std::uint64_t k = 0; k < kNets; ++k) {
      nets.push_back(std::make_unique<Network>(t, Rng(seed + 1000 * k)));
      nets.back()->set_receiver(&Inbox::receive, &in);
      model.push_back({Rng(seed + 1000 * k), {}, 0, 0});
    }
    std::vector<SimTime> expected;  // by delivery id (the query's hop)
    SimTime table_top = 0;  // the latest clamp any send left in the table
    Rng drive(seed * 7919);
    // One flood send of `net` on a random channel, at the queue's clock.
    const auto flood = [&](Network& net, OneClampPerChannel& m) {
      const std::size_t from = drive.next_below(kVehicles);
      const std::size_t to =
          (from + 1 + drive.next_below(kVehicles - 1)) % kVehicles;
      const SimTime at = m.send(from, to, t.queue.now());
      m.due = std::max(m.due, at);
      table_top = std::max(table_top, at);
      const auto id = static_cast<std::uint32_t>(expected.size());
      expected.push_back(at);
      net.send(from, to, Message::query(kNoInit, id));
    };
    for (int lend = 0; lend < 60; ++lend) {
      if (drive.next_below(4) == 0) {
        const auto gen_seed = seed + 5000 + static_cast<std::uint64_t>(lend);
        Network loose(t, Rng(gen_seed));
        loose.set_receiver(&Inbox::receive, &in);
        if (drive.next_bool())
          t.queue.resume_at(static_cast<SimTime>(
              drive.next_below(static_cast<std::uint64_t>(t.queue.now()) + 1)));
        OneClampPerChannel m{Rng(gen_seed), {}, 0, 0};
        for (int k = 0; k < 8; ++k) flood(loose, m);
        t.queue.run_to_quiescence();
        ++unlent_senders;
      }
      const auto who = static_cast<std::size_t>(drive.next_below(kNets));
      OneClampPerChannel& m = model[who];
      if (m.clock < table_top) ++lends_below_the_table;
      const Network::Lend hold(*nets[who]);
      ASSERT_EQ(t.queue.now(), m.clock) << "seed " << seed;
      m.due = m.clock;
      for (int step = 0; step < 30; ++step) {
        const std::uint64_t action = drive.next_below(6);
        if (action < 3) {
          flood(*nets[who], m);
        } else if (action < 5) {  // a partial drain
          for (std::uint64_t k = drive.next_below(4); k > 0; --k)
            if (!t.queue.step()) break;
        } else {  // drain, then a heartbeat round
          t.queue.run_to_quiescence();
          // Dropping the clamps at or before now must change nothing:
          // the reference keeps every clamp forever.
          if (drive.next_below(2) == 0) nets[who]->drop_stale_heartbeats();
          std::vector<std::uint32_t> slots;
          for (std::size_t v = 0; v < kVehicles; ++v) {
            const std::size_t to = (v + kVehicles - 1) % kVehicles;
            m.send(v, to, t.queue.now());
            slots.push_back(nets[who]->heartbeat_slot(v, to));
          }
          nets[who]->beat_all(slots.data(), slots.size());
        }
      }
      t.queue.run_to_quiescence();
      m.clock = m.due;
      ASSERT_EQ(t.queue.now(), m.clock) << "seed " << seed;
    }
    ASSERT_EQ(in.log.size(), expected.size()) << "seed " << seed;
    for (const auto& e : in.log)
      ASSERT_EQ(e.at, expected[e.d.msg.hop()])
          << "seed " << seed << " delivery " << e.d.msg.hop();
  }
  // Both hand-offs the table must keep apart came up.
  EXPECT_GT(lends_below_the_table, 0);
  EXPECT_GT(unlent_senders, 0);
}

TEST(LentTransport, FloodSendsCheckIdsAgainstTheTransport) {
  // The flood clamps are a V x V table: an id at or past V has no cell,
  // and a send naming one throws before it counts or schedules anything.
  EXPECT_THROW(Transport(/*max_delay=*/2, std::size_t{1} << 32), check_error);
  Transport t(/*max_delay=*/2, /*vehicles=*/3);
  Network net(t, Rng(1));
  Inbox in(t.queue);
  net.set_receiver(&Inbox::receive, &in);
  EXPECT_NO_THROW(net.send(2, 0, Message{}));
  EXPECT_THROW(net.send(0, 3, Message{}), check_error);
  EXPECT_THROW(net.send(3, 0, Message{}), check_error);
  // Past 32 bits, an id would wrap onto vehicle 0 if it were narrowed.
  EXPECT_THROW(net.send(1, std::size_t{1} << 32, Message{}), check_error);
  const std::uint32_t fan[] = {1, 2, 3};
  EXPECT_THROW(net.send_all(0, fan, 3, Message{}), check_error);
  EXPECT_EQ(net.stats().total(), 1u);
  EXPECT_EQ(t.queue.pending(), 1u);
  t.queue.run_to_quiescence();
  ASSERT_EQ(in.log.size(), 1u);
  EXPECT_EQ(in.log[0].d.from, 2u);
  // A cube whose fleet outnumbers the transport's V is refused when built.
  const CubeParams params(2, small_config(10.0));  // 16 vehicles
  Transport small(/*max_delay=*/2, /*vehicles=*/15);
  EXPECT_THROW(CubeServer::create(params, Point{0, 0}, small), check_error);
}

TEST(Network, FanOutMatchesOneSendPerTarget) {
  // send_all() is the one send path: a fan-out delivers exactly what one
  // send() per target would — the same times, order and messages.
  constexpr std::size_t kVehicles = 8;
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    Transport ta(/*max_delay=*/3, kVehicles), tb(/*max_delay=*/3, kVehicles);
    Network a(ta, Rng(seed)), b(tb, Rng(seed));
    Inbox ia(ta.queue), ib(tb.queue);
    a.set_receiver(&Inbox::receive, &ia);
    b.set_receiver(&Inbox::receive, &ib);
    Rng drive(seed + 77);
    for (std::uint32_t round = 1; round <= 40; ++round) {
      const auto from = static_cast<std::uint32_t>(drive.next_below(kVehicles));
      std::vector<std::uint32_t> to;
      for (std::uint32_t v = 0; v < kVehicles; ++v)
        if (v != from && drive.next_bool()) to.push_back(v);
      const Message m = Message::query(InitTag{from, round}, round);
      a.send_all(from, to.data(), to.size(), m);
      for (const std::uint32_t v : to) b.send(from, v, m);
      for (std::uint64_t k = drive.next_below(6); k > 0; --k) {
        ta.queue.step();
        tb.queue.step();
      }
    }
    ta.queue.run_to_quiescence();
    tb.queue.run_to_quiescence();
    EXPECT_EQ(a.stats(), b.stats());
    ASSERT_EQ(ia.log.size(), ib.log.size()) << "seed " << seed;
    for (std::size_t k = 0; k < ia.log.size(); ++k) {
      const auto& x = ia.log[k];
      const auto& y = ib.log[k];
      ASSERT_EQ(x.at, y.at) << "seed " << seed << " delivery " << k;
      EXPECT_EQ(x.d.to, y.d.to);
      EXPECT_EQ(x.d.from, y.d.from);
      EXPECT_EQ(x.d.msg.init, y.d.msg.init);
      EXPECT_EQ(x.d.msg.hop(), y.d.msg.hop());
    }
  }
}

// --- the message record -----------------------------------------------------

static_assert(std::is_trivially_copyable_v<Message> && sizeof(Message) == 16,
              "a Message is a plain 16-byte record");
static_assert(sizeof(Delivery) == 24, "a Delivery is two ids and a Message");

TEST(Message, EachKindRoundTripsItsPayloadAndTag) {
  const InitTag tags[] = {InitTag{0, 1}, InitTag{7, 9},
                          InitTag{UINT32_MAX - 1, UINT32_MAX}, kNoInit};
  for (const InitTag& tag : tags) {
    for (const std::uint32_t hop : {0u, 1u, 12345u, UINT32_MAX}) {
      const Message q = Message::query(tag, hop);
      EXPECT_EQ(q.kind, MsgKind::kQuery);
      EXPECT_EQ(q.init, tag);
      EXPECT_EQ(q.hop(), hop);
    }
    for (const bool flag : {false, true}) {
      const Message r = Message::reply(tag, flag);
      EXPECT_EQ(r.kind, MsgKind::kReply);
      EXPECT_EQ(r.init, tag);
      EXPECT_EQ(r.flag(), flag);
    }
    for (const std::uint32_t dest : {0u, 4095u, UINT32_MAX}) {
      const Message m = Message::move(tag, dest);
      EXPECT_EQ(m.kind, MsgKind::kMove);
      EXPECT_EQ(m.init, tag);
      EXPECT_EQ(m.dest(), dest);
    }
  }
#ifndef NDEBUG
  // Debug builds check that a reader asks for the payload of its kind.
  EXPECT_THROW(Message::query(kNoInit, 3).flag(), check_error);
  EXPECT_THROW(Message::reply(kNoInit, true).dest(), check_error);
  EXPECT_THROW(Message::move(kNoInit, 5).hop(), check_error);
#endif
}

TEST(Message, EachKindSurvivesTheQueue) {
  // Through a send, the queue's node pool and a delivery, every field
  // of every kind arrives as it left.
  Transport t(/*max_delay=*/3, /*vehicles=*/3);
  Network net(t, Rng(4));
  Inbox in(t.queue);
  net.set_receiver(&Inbox::receive, &in);
  const InitTag tag{2, UINT32_MAX};
  net.send(2, 0, Message::query(tag, UINT32_MAX));
  net.send(0, 1, Message::reply(tag, true));
  net.send(1, 2, Message::move(tag, UINT32_MAX - 2));
  t.queue.run_to_quiescence();
  ASSERT_EQ(in.log.size(), 3u);
  std::map<std::uint32_t, Message> by_to;
  for (const auto& e : in.log) by_to[e.d.to] = e.d.msg;
  EXPECT_EQ(by_to[0].kind, MsgKind::kQuery);
  EXPECT_EQ(by_to[0].hop(), UINT32_MAX);
  EXPECT_EQ(by_to[1].kind, MsgKind::kReply);
  EXPECT_TRUE(by_to[1].flag());
  EXPECT_EQ(by_to[2].kind, MsgKind::kMove);
  EXPECT_EQ(by_to[2].dest(), UINT32_MAX - 2);
  for (const auto& e : in.log) EXPECT_EQ(e.d.msg.init, tag);
}

// --- basic serving ------------------------------------------------------------
//
// The strategy runs on the stream engine at one worker thread; tests that
// inspect vehicles drive the one cube's CubeServer directly.

StreamConfig one_thread(const OnlineConfig& online) {
  StreamConfig c;
  c.online = online;
  return c;
}

OnlineMetrics serve(const OnlineConfig& online, const std::vector<Job>& jobs) {
  return serve_stream(2, one_thread(online), jobs).metrics;
}

TEST(OnlineServe, ServesSingleJobInPlace) {
  // Job lands on a primary vertex: its own active vehicle serves at cost 1.
  const OnlineMetrics m = serve(small_config(10.0), {{Point{0, 0}, 0}});
  EXPECT_EQ(m.jobs_served, 1u);
  EXPECT_EQ(m.jobs_failed, 0u);
  EXPECT_DOUBLE_EQ(m.max_energy_spent, 1.0);
}

TEST(OnlineServe, PartnerVertexServedByPairActive) {
  const CubePairing pairing(2, Point{0, 0}, 4);
  // Find a non-primary vertex in the first cube.
  Point secondary = Point{0, 0};
  Box::cube(Point{0, 0}, 4).for_each_point([&](const Point& p) {
    if (!pairing.is_primary(p)) secondary = p;
  });
  ASSERT_FALSE(pairing.is_primary(secondary));
  const OnlineMetrics m = serve(small_config(10.0), {{secondary, 0}});
  EXPECT_EQ(m.jobs_failed, 0u);
  // One walk (1) + one service (1).
  EXPECT_DOUBLE_EQ(m.max_energy_spent, 2.0);
  EXPECT_EQ(m.total_travel, 1u);
}

TEST(OnlineServe, ManyJobsNoReplacementNeededUnderLightLoad) {
  const OnlineMetrics m = serve(small_config(100.0), repeated(Point{1, 1}, 10));
  EXPECT_EQ(m.jobs_failed, 0u);
  EXPECT_EQ(m.replacements, 0u);
  EXPECT_EQ(m.computations_started, 0u);
}

TEST(OnlineServe, VehicleIdsAreRowMajorHomeOffsets) {
  // The fleet exists from construction, ids in Box::for_each_point order;
  // even snake indices (pair primaries) start active, their partners idle.
  const OnlineConfig cfg = small_config(10.0, /*side=*/3);
  TestCube owned(2, cfg, Point{3, 6});
  CubeServer& cube = owned.server;
  const FleetCore& core = cube.core();
  ASSERT_EQ(core.vehicles().size(), 9u);
  std::size_t id = 0;
  Box::cube(Point{3, 6}, 3).for_each_point([&](const Point& home) {
    const Vehicle* v = core.vehicle_at_home(home);
    ASSERT_NE(v, nullptr);
    EXPECT_EQ(v->id, id++);
    EXPECT_EQ(core.home_of(v->id), home);
    EXPECT_EQ(core.position_of(v->id), home);
    const bool primary = core.pairing().is_primary(home);
    EXPECT_EQ(v->s1, primary ? WorkState::kActive : WorkState::kIdle);
    const auto active = core.active_of_pair(home);
    ASSERT_TRUE(active.has_value());
    EXPECT_EQ(core.home_of(*active), core.pairing().primary(home));
  });
  EXPECT_EQ(core.vehicle_at_home(Point{2, 6}), nullptr);
  EXPECT_EQ(core.vehicle_at_home(Point{3, 9}), nullptr);
  EXPECT_FALSE(core.active_of_pair(Point{6, 6}).has_value());
  EXPECT_THROW(cube.inject_silent_done(Point{0, 0}), check_error);
}

TEST(CubeParams, RejectsCubesPastThe32BitLimits) {
  // A position lane is 32 bits, and so is a vehicle id. Both limits are
  // checked once per deployment, before any fleet is built.
  OnlineConfig cfg = small_config(10.0);
  cfg.anchor = Point{0};
  cfg.cube_side = INT32_MAX;
  EXPECT_NO_THROW(CubeParams(1, cfg));
  cfg.cube_side = std::int64_t{INT32_MAX} + 1;
  EXPECT_THROW(CubeParams(1, cfg), check_error);
  cfg.anchor = Point{0, 0};
  cfg.cube_side = std::int64_t{1} << 16;  // 2^32 vehicles
  EXPECT_THROW(CubeParams(2, cfg), check_error);
}

// --- diffusing computation & replacement ------------------------------------

TEST(OnlineServe, ExhaustedVehicleIsReplacedByIdlePartnerPool) {
  // Capacity 6: after ~5 services at one vertex the vehicle declares done
  // (remaining < 2) and a diffusing computation must find an idle vehicle.
  const OnlineMetrics m = serve(small_config(6.0), repeated(Point{0, 0}, 10));
  EXPECT_EQ(m.jobs_served, 10u);
  EXPECT_GE(m.computations_started, 1u);
  EXPECT_GE(m.replacements, 1u);
  EXPECT_GT(m.network.queries, 0u);
  EXPECT_GT(m.network.replies, 0u);
  EXPECT_GT(m.network.moves, 0u);
}

TEST(OnlineServe, ReplacementChainSurvivesManyExhaustions) {
  // Heavy point demand cycles through many replacements; a 6x6 cube has 18
  // idle vehicles to recruit, each arriving with capacity minus travel.
  const OnlineMetrics m =
      serve(small_config(8.0, /*side=*/6), repeated(Point{2, 2}, 40));
  EXPECT_EQ(m.jobs_served, 40u);
  EXPECT_GE(m.replacements, 5u);
}

TEST(OnlineServe, PointDemandBeyondReachableEnergyFailsGracefully) {
  // The same cube cannot serve 60 point jobs at capacity 6: recruited
  // idle vehicles burn most of their energy traveling. The run must
  // report failure (never serve beyond physical energy), not hang.
  const OnlineMetrics m =
      serve(small_config(6.0, /*side=*/6), repeated(Point{2, 2}, 60));
  EXPECT_GT(m.jobs_failed, 0u);
  EXPECT_EQ(m.jobs_served + m.jobs_failed, 60u);
  // Served work is bounded by total spendable energy in the cube.
  EXPECT_LE(m.total_energy_spent, 36.0 * 6.0 + 1e-9);
}

TEST(OnlineServe, FailsWhenCubeExhausted) {
  // Tiny cube (4 vehicles) and much demand: eventually no idle vehicles
  // remain and jobs must fail — reported, not thrown.
  const OnlineMetrics m =
      serve(small_config(4.0, /*side=*/2), repeated(Point{0, 0}, 40));
  EXPECT_GT(m.jobs_failed, 0u);
  EXPECT_GT(m.computations_failed, 0u);
}

TEST(OnlineServe, DeterministicForSeed) {
  auto run_once = [](std::uint64_t seed) {
    std::vector<Job> jobs;
    for (int i = 0; i < 20; ++i) jobs.push_back({Point{i % 3, i % 2}, i});
    return serve(small_config(6.0, 4, seed), jobs);
  };
  const auto a = run_once(42), b = run_once(42), c = run_once(43);
  EXPECT_TRUE(a == b);
  // Different seed still serves everything (delays only affect ordering).
  EXPECT_EQ(c.jobs_served, a.jobs_served);
}

TEST(OnlineServe, MessageDelaysDoNotChangeServiceOutcome) {
  for (SimTime delay : {0, 1, 5, 17}) {
    OnlineConfig cfg = small_config(6.0, 4, 7);
    cfg.max_message_delay = delay;
    const OnlineMetrics m = serve(cfg, repeated(Point{0, 0}, 15));
    EXPECT_EQ(m.jobs_served, 15u) << "delay " << delay;
  }
}

TEST(OnlineServe, DiffusingComputationMessageComplexityBounded) {
  // Each Phase I computation floods one cube: queries are bounded by
  // (#vehicles in cube) x (max degree at radius 2) and every query gets
  // exactly one reply. Check the aggregate bound over a heavy run.
  const std::int64_t side = 5;
  const OnlineMetrics m =
      serve(small_config(6.0, side), repeated(Point{2, 2}, 40));
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

TEST(OnlineServe, EveryReplacementHasAComputation) {
  const OnlineMetrics m =
      serve(small_config(6.0, 6), repeated(Point{1, 1}, 30));
  EXPECT_LE(m.replacements, m.computations_started);
  EXPECT_EQ(m.computations_started,
            m.replacements + m.computations_failed);
}

// --- failure scenarios (§3.2.5) ----------------------------------------------

TEST(OnlineServe, SilentDoneVehicleIsRescuedByMonitoringRing) {
  StreamEngine engine(2, one_thread(small_config(6.0)));
  engine.inject_silent_done(Point{0, 0});
  engine.ingest(repeated(Point{0, 0}, 12));
  const OnlineMetrics m = engine.finish().metrics;
  EXPECT_EQ(m.jobs_served, 12u);
  EXPECT_GE(m.monitor_initiations, 1u);  // the ring stepped in
  EXPECT_GT(m.network.heartbeats, 0u);
}

TEST(OnlineServe, SilentDoneWithoutMonitoringLosesJobs) {
  OnlineConfig cfg = small_config(6.0);
  cfg.enable_monitoring = false;
  StreamEngine engine(2, one_thread(cfg));
  engine.inject_silent_done(Point{0, 0});
  engine.ingest(repeated(Point{0, 0}, 12));
  EXPECT_GT(engine.finish().metrics.jobs_failed, 0u);
}

TEST(OnlineServe, BrokenActiveVehicleIsReplaced) {
  TestCube owned(2, small_config(20.0), Point{0, 0});
  CubeServer& cube = owned.server;
  // Vehicle at (0,0) breaks after spending 20% of its capacity.
  cube.inject_break_after(Point{0, 0}, 0.2);
  serve_all(owned, repeated(Point{0, 0}, 12));
  EXPECT_EQ(cube.metrics().jobs_served, 12u);
  EXPECT_GE(cube.metrics().monitor_initiations, 1u);
  const Vehicle* broken = cube.core().vehicle_at_home(Point{0, 0});
  ASSERT_NE(broken, nullptr);
  EXPECT_TRUE(broken->dead);
  EXPECT_LE(broken->spent(), 0.2 * 20.0 + 2.0);  // stopped promptly
}

TEST(OnlineServe, ZeroLongevityVehicleReplacedBeforeFirstJob) {
  // p_i = 0 vehicles are dead from the start; the heartbeat round that
  // precedes a cube's first arrival detects this, so no job is lost.
  TestCube owned(2, small_config(20.0), Point{0, 0});
  CubeServer& cube = owned.server;
  cube.inject_break_after(Point{0, 0}, 0.0);
  serve_all(owned, repeated(Point{0, 0}, 2));
  EXPECT_EQ(cube.metrics().jobs_served, 2u);
  EXPECT_GE(cube.metrics().monitor_initiations, 1u);
  const Vehicle* v = cube.core().vehicle_at_home(Point{0, 0});
  ASSERT_NE(v, nullptr);
  EXPECT_DOUBLE_EQ(v->spent(), 0.0);  // the broken vehicle never worked
}

TEST(OnlineServe, ConstantBreakagesToleratedWithModestEnergy) {
  // Scenario 3: a constant number of active vehicles break; the ring
  // replaces them and all jobs are still served.
  StreamEngine engine(2, one_thread(small_config(12.0, /*side=*/6)));
  engine.inject_break_after(Point{0, 0}, 0.3);
  engine.inject_break_after(Point{2, 2}, 0.3);
  engine.inject_break_after(Point{4, 4}, 0.3);
  Rng rng(5);
  std::vector<Job> jobs;
  for (int i = 0; i < 40; ++i)
    jobs.push_back({Point{rng.next_int(0, 5), rng.next_int(0, 5)}, i});
  engine.ingest(jobs);
  EXPECT_EQ(engine.finish().metrics.jobs_served, 40u);
}

// --- capacity search / Theorem 1.4.2 ----------------------------------------

TEST(CapacitySearch, TheoryBoundAlwaysSuffices) {
  Rng rng(11);
  const Box box(Point{0, 0}, Point{7, 7});
  const DemandMap d = uniform_demand(box, 60, rng);
  Rng order_rng(12);
  const auto jobs = stream_from_demand(d, ArrivalOrder::kShuffled, order_rng);
  // Lemma 3.3.1 capacity worked.
  EXPECT_EQ(serve(default_online_config(d), jobs).jobs_failed, 0u);
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
