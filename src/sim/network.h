// Message transport implementing the paper's communication model (§3.2):
//   * free (no energy cost), reliable, unaltered delivery,
//   * arbitrary finite per-message delay,
//   * per-channel FIFO ("messages sent from P to Q arrive in order sent"),
//   * unbounded input buffers (receivers are invoked per message).
//
// Each send draws its delay from the network's seeded Rng and schedules
// a typed Delivery on the borrowed EventQueue, which fires deliveries in
// (time, insertion) order into the one bound receiver.
//
// §3.2.5 heartbeats (`existing` messages) take the one other path,
// beat_all(). A heartbeat is a protocol no-op on the receiving side —
// the monitoring ring reads fleet state directly — so beat_all() draws
// each heartbeat's delay (keeping the generator sequence aligned) and
// advances its channel's FIFO clamp, but schedules nothing: at ~1
// heartbeat per ring member per round, firing do-nothing deliveries
// would be most of the queue's traffic. A beat names its channel by
// *beat slot*, the position of the channel's clamp in the heartbeat
// table, which heartbeat_slot() resolves (and creates) once. Slots stay
// valid until drop_stale_heartbeats(), the table's only erase, so a ring
// that resolves its slots once beacons without hashing until it next
// drops clamps and resolves them again.
//
// FIFO is kept with clamps: a channel's clamp is the last delivery time
// scheduled on it, and a later send on that channel is pushed past it.
// A clamp at or before the clock can never delay a later send — the
// clock only moves forward and every delay is >= 1 — so only clamps
// ahead of the clock are state. The clamps are split by what outlives
// quiescence:
//   * Heartbeat clamps live in the network. Heartbeats are elided, never
//     fire, and are sent only at quiescence (beat_all() checks), so a
//     ring beaconing at a still clock pushes its clamps ahead of the
//     clock, and they outlive every drain.
//   * Flood clamps (query, reply, move) live in a table the network
//     borrows, which the stream engine shares between every cube of one
//     worker and clears when a cube's serve ends (see Lend). At
//     quiescence every flood delivery has fired, so every flood clamp is
//     at or before the clock and clearing loses nothing. Clearing is what
//     keeps the cubes apart: channel keys are cube-local vehicle ids, and
//     a clamp stale on one cube's clock may lie ahead of the next cube's.
// A flood send reads its channel's flood clamp; when that clamp is at or
// before now, it first raises it to the channel's heartbeat clamp. This
// reproduces the plain one-clamp-per-channel rule exactly. A flood clamp
// ahead of now belongs to a delivery still due, so no heartbeat was sent
// on its channel since it was written: it is the channel's latest clamp.
// A flood clamp at or before now is stale, and the channel's latest
// clamp ahead of now, if any, is its heartbeat clamp. A heartbeat
// ignores the flood table: at quiescence every flood clamp is at or
// before now.
//
// Two consequences keep the heartbeat table small and rarely read:
//   * The network keeps the latest heartbeat clamp it ever set. While
//     that clamp is at or before now, no heartbeat clamp can bind, so a
//     flood send skips the table lookup (now + delay exceeds both stale
//     clamps). Debug builds check every skipped channel.
//   * A heartbeat clamp at or before the clock can be dropped:
//     drop_stale_heartbeats() does, and a channel beaconed again starts
//     from a fresh clamp, which binds exactly as the dropped one would
//     have (not at all). The monitoring ring calls it when the table
//     outgrows twice the ring (online/fleet_core.h), so the table holds
//     the ring's channels plus the clamps still ahead of the clock, not
//     every channel the ring ever used.
//
// Between lends a network keeps only what is its cube's own: its delay
// generator, its message counts, its heartbeat clamps, its clock and its
// receiver binding. The queue, the flood clamps, the neighbor scratch
// and the delay bound belong to the Transport it borrows.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "obs/span.h"
#include "sim/event_queue.h"
#include "sim/message.h"
#include "util/flat_map.h"
#include "util/hash.h"
#include "util/rng.h"

namespace cmvrp {

struct NetworkStats {
  std::uint64_t queries = 0;
  std::uint64_t replies = 0;
  std::uint64_t moves = 0;
  std::uint64_t heartbeats = 0;
  // §3.2.5 heartbeats whose scheduler round-trip beat_all() elided (the
  // receiving side is a protocol no-op). Every skip is also counted in
  // `heartbeats`; total() therefore excludes it.
  std::uint64_t heartbeat_skips = 0;

  std::uint64_t total() const { return queries + replies + moves + heartbeats; }

  void merge(const NetworkStats& other) {
    queries += other.queries;
    replies += other.replies;
    moves += other.moves;
    heartbeats += other.heartbeats;
    heartbeat_skips += other.heartbeat_skips;
  }

  friend bool operator==(const NetworkStats& a, const NetworkStats& b) {
    return a.queries == b.queries && a.replies == b.replies &&
           a.moves == b.moves && a.heartbeats == b.heartbeats &&
           a.heartbeat_skips == b.heartbeat_skips;
  }
  friend bool operator!=(const NetworkStats& a, const NetworkStats& b) {
    return !(a == b);
  }
};

// FIFO clamps of a set of channels: channel key -> the last delivery
// time scheduled on that channel.
using ClampTable = FlatMap<std::uint64_t, SimTime, U64Hash>;

// The transport one worker lends to the cube it is serving (see
// Network::Lend): the event queue, the flood-clamp table, and the
// serving core's neighbor-list scratch, plus the delay bound every
// network it carries draws under. Nothing in it outlives a serve, so
// one transport serves every cube of a worker.
struct Transport {
  explicit Transport(SimTime max_delay) : max_delay(max_delay) {
    CMVRP_CHECK(max_delay >= 0);
  }

  EventQueue queue;
  ClampTable flood;
  // FleetCore's Phase I fan-out list, rebuilt by every neighbor query.
  std::vector<std::uint32_t> neighbors;
  const SimTime max_delay;  // extra random per-message delay
};

class Network {
 public:
  // Deliveries reach one bound function pointer with its context (the
  // receiving object), e.g. a FleetCore draining into on_message.
  using Receiver = EventQueue::Sink;

  // `transport` is borrowed and may be shared with other networks, one
  // Lend at a time. The delays continue `rng`'s integer sequence; the
  // network keeps its xoshiro state only (Xoshiro256).
  Network(Transport& transport, const Rng& rng)
      : transport_(transport), gen_(rng.core()) {}
  // The queue may hold this network's address (see rebind).
  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  // Lends the borrowed transport to this network for one scope that
  // starts and ends at quiescence: resumes the queue at this network's
  // clock and binds it here; on exit, keeps the queue's clock as this
  // network's and clears the flood table.
  class Lend {
   public:
    explicit Lend(Network& net) : net_(net) {
      net_.queue().resume_at(net_.clock_);
      net_.rebind();
    }
    ~Lend() {
      net_.clock_ = net_.queue().now();
      net_.transport_.flood.clear();
    }
    Lend(const Lend&) = delete;
    Lend& operator=(const Lend&) = delete;

   private:
    Network& net_;
  };

  void set_receiver(Receiver fn, void* ctx) {
    receiver_ = fn;
    receiver_ctx_ = ctx;
    rebind();
  }

  // Optional Tier-C span hook (borrowed; may be null). When set, every
  // send and delivery is recorded on the cube protocol clock — beats
  // stay invisible, matching their elided delivery.
  void set_spans(SpanRecorder* spans) {
    spans_ = spans;
    rebind();
  }

  // Sends m from -> to with a random delay in [1, 1 + max_delay], clamped
  // so the channel stays FIFO.
  void send(std::size_t from, std::size_t to, Message m) {
    CMVRP_CHECK_MSG(receiver_, "network has no receiver bound");
    count(m);
    const SimTime delay = draw_delay(gen_, transport_.max_delay);
    const SimTime now = queue().now();
    const std::uint64_t key = channel_key(from, to);
    SimTime& last = transport_.flood[key];
    if (last <= now) {
      if (heartbeat_latest_ > now) {
        const SimTime* beat = heartbeat_.find(key);
        if (beat != nullptr) last = *beat;
      } else {
#ifndef NDEBUG
        const SimTime* beat = heartbeat_.find(key);
        CMVRP_CHECK_MSG(beat == nullptr || *beat <= now,
                        "skipped a heartbeat clamp ahead of now");
#endif
      }
    }
    const SimTime at = advance(last, now + delay);
    if (spans_ != nullptr) {
      spans_->message(now, /*send=*/true, static_cast<int>(m.index()),
                      span_comp(m), from, to, span_hop(m));
    }
    queue().schedule(at, Delivery{static_cast<std::uint32_t>(to),
                                  static_cast<std::uint32_t>(from), m});
  }

  // The beat slot of the heartbeat channel from -> to, created on first
  // use; valid until the next drop_stale_heartbeats() (see the file
  // comment).
  std::uint32_t heartbeat_slot(std::size_t from, std::size_t to) {
    return heartbeat_.slot(channel_key(from, to));
  }
  // The beat slot of from -> to if that channel has one, else
  // ClampTable::kNoSlot; creates nothing.
  std::uint32_t find_heartbeat_slot(std::size_t from, std::size_t to) const {
    return heartbeat_.find_slot(channel_key(from, to));
  }

  // Sends one heartbeat on each of the `count` channels at beat slots
  // `slots`, in order: counts it, draws its delay, and advances the
  // channel's clamp past now + delay. Only at quiescence. The round
  // draws from a local copy of the generator, stored back once: a clamp
  // store (int64_t) may alias the state's words (uint64_t), so drawing
  // from the member would reload and store all four on every beat.
  void beat_all(const std::uint32_t* slots, std::size_t count) {
    CMVRP_CHECK_MSG(queue().empty(), "heartbeat sent while deliveries are due");
    const SimTime now = queue().now();
    const SimTime max_delay = transport_.max_delay;
    Xoshiro256 gen = gen_;
    SimTime latest = heartbeat_latest_;
    for (std::size_t i = 0; i < count; ++i) {
      const SimTime at = advance(heartbeat_.at(slots[i]),
                                 now + draw_delay(gen, max_delay));
      if (at > latest) latest = at;
    }
    gen_ = gen;
    heartbeat_latest_ = latest;
    stats_.heartbeats += count;
    stats_.heartbeat_skips += count;
  }

  // Drops every heartbeat clamp at or before now, which can never bind
  // again (see the file comment), and returns how many it dropped. When
  // it drops any, every beat slot handed out before is void. Only at
  // quiescence.
  std::size_t drop_stale_heartbeats() {
    CMVRP_CHECK_MSG(queue().empty(),
                    "heartbeats dropped while deliveries are due");
    const SimTime now = queue().now();
    return heartbeat_.erase_if(
        [now](const ClampTable::Item& item) { return item.value <= now; });
  }

  // Heartbeat channels in the table, and how many of their clamps lie
  // ahead of this network's clock as of its last lend.
  std::size_t heartbeat_channels() const { return heartbeat_.size(); }
  std::size_t heartbeat_clamps_ahead() const {
    std::size_t ahead = 0;
    for (const auto& item : heartbeat_) ahead += item.value > clock_ ? 1 : 0;
    return ahead;
  }

  const NetworkStats& stats() const { return stats_; }
  // The borrowed transport and its queue; while lent, the queue's clock
  // is this network's.
  Transport& transport() const { return transport_; }
  EventQueue& queue() const { return transport_.queue; }

 private:
  // A delay in [1, 1 + max_delay] drawn from `gen`. At the default
  // max_delay of 3 the bound is 4, which draws without dividing.
  static SimTime draw_delay(Xoshiro256& gen, SimTime max_delay) {
    if (max_delay == 0) return 1;
    return 1 + static_cast<SimTime>(
                   gen.next_below(static_cast<std::uint64_t>(max_delay) + 1));
  }

  // Pushes `at` past the channel clamp `last` (preserving per-channel
  // ordering) and records it as the new clamp.
  static SimTime advance(SimTime& last, SimTime at) {
    if (at <= last) at = last + 1;
    last = at;
    return at;
  }

  // Untraced, the queue fires straight into the receiver; traced, it
  // fires into deliver_traced, which records the delivery first.
  void rebind() {
    if (spans_ != nullptr)
      queue().bind(&Network::deliver_traced, this);
    else
      queue().bind(receiver_, receiver_ctx_);
  }

  static void deliver_traced(void* self, const Delivery& d) {
    const auto& net = *static_cast<const Network*>(self);
    net.spans_->message(net.queue().now(), /*send=*/false,
                        static_cast<int>(d.msg.index()), span_comp(d.msg),
                        d.from, d.to, span_hop(d.msg));
    net.receiver_(net.receiver_ctx_, d);
  }

  // Span-layer scalars of a message: the owning computation's packed
  // InitTag and (for queries) the hop the message travels at.
  static std::uint64_t span_comp(const Message& m) {
    switch (m.index()) {
      case 0:
        return packed_init(std::get<QueryMsg>(m).init);
      case 1:
        return packed_init(std::get<ReplyMsg>(m).init);
      case 2:
        return packed_init(std::get<MoveMsg>(m).init);
    }
    return 0;
  }

  static std::uint32_t span_hop(const Message& m) {
    return m.index() == 0 ? std::get<QueryMsg>(m).hop : 0;
  }

  void count(const Message& m) {
    switch (m.index()) {
      case 0:
        ++stats_.queries;
        break;
      case 1:
        ++stats_.replies;
        break;
      case 2:
        ++stats_.moves;
        break;
    }
  }

  // Channel key packs (from, to) into one word. Vehicle ids are dense
  // small integers (indices into the fleet), so 32 bits per endpoint is
  // ample; the check keeps the packing honest if that ever changes.
  static std::uint64_t channel_key(std::size_t from, std::size_t to) {
    CMVRP_CHECK_MSG(from < (1ull << 32) && to < (1ull << 32),
                    "vehicle id exceeds channel-key packing");
    return (static_cast<std::uint64_t>(from) << 32) |
           static_cast<std::uint64_t>(to);
  }

  Transport& transport_;  // borrowed queue and flood clamps
  Xoshiro256 gen_;        // the delay generator
  Receiver receiver_ = nullptr;
  void* receiver_ctx_ = nullptr;
  NetworkStats stats_;
  SpanRecorder* spans_ = nullptr;  // borrowed Tier-C hook; may be null
  // This network's heartbeat clamps, addressed by beat slot: the one
  // clamp state that outlives quiescence, so the one a network keeps
  // between lends. Only drop_stale_heartbeats() removes any.
  ClampTable heartbeat_;
  SimTime heartbeat_latest_ = 0;  // the latest heartbeat clamp ever set
  SimTime clock_ = 0;  // the queue's clock when the last Lend ended
};

}  // namespace cmvrp
