// Message transport implementing the paper's communication model (§3.2):
//   * free (no energy cost), reliable, unaltered delivery,
//   * arbitrary finite per-message delay,
//   * per-channel FIFO ("messages sent from P to Q arrive in order sent"),
//   * unbounded input buffers (receivers are invoked per message).
//
// Each send draws its delay from the network's seeded Rng and schedules
// a typed Delivery on the borrowed EventQueue, which fires deliveries in
// (time, insertion) order into the one bound receiver.
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>

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
  // §3.2.5 heartbeats whose scheduler round-trip send() elided (the
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

class Network {
 public:
  // Deliveries reach one bound function pointer with its context (the
  // receiving object), e.g. a FleetCore draining into on_message.
  using Receiver = EventQueue::Sink;

  Network(EventQueue& queue, Rng rng, SimTime max_delay)
      : queue_(queue), rng_(std::move(rng)), max_delay_(max_delay) {
    CMVRP_CHECK(max_delay >= 0);
  }
  // The queue may hold this network's address (see rebind).
  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  void set_receiver(Receiver fn, void* ctx) {
    receiver_ = fn;
    receiver_ctx_ = ctx;
    rebind();
  }

  // Optional Tier-C span hook (borrowed; may be null). When set, every
  // non-heartbeat send and delivery is recorded on the cube protocol
  // clock — heartbeats stay invisible, matching their elided delivery.
  void set_spans(SpanRecorder* spans) {
    spans_ = spans;
    rebind();
  }

  // Sends m from -> to with a random delay in [1, 1 + max_delay], clamped
  // so the channel stays FIFO.
  void send(std::size_t from, std::size_t to, Message m) {
    CMVRP_CHECK_MSG(receiver_, "network has no receiver bound");
    count(m);
    const SimTime delay =
        1 + static_cast<SimTime>(
                max_delay_ > 0
                    ? rng_.next_below(static_cast<std::uint64_t>(max_delay_) + 1)
                    : 0);
    SimTime at = queue_.now() + delay;
    SimTime& last = last_delivery_[channel_key(from, to)];
    if (at <= last) at = last + 1;  // preserve per-channel ordering
    last = at;
    // §3.2.5 heartbeats ("existing" messages) are protocol no-ops on the
    // receiving side — monitoring reads fleet state directly, never the
    // message. The send still draws its delay (keeping every generator
    // sequence aligned) and still advances the channel's FIFO clamp, but
    // never enters the queue: at ~1 heartbeat per arrival, firing
    // do-nothing deliveries would be most of the queue's traffic.
    if (m.index() == 3) {
      ++stats_.heartbeat_skips;
      return;
    }
    if (spans_ != nullptr) {
      spans_->message(queue_.now(), /*send=*/true, static_cast<int>(m.index()),
                      span_comp(m), from, to, span_hop(m));
    }
    queue_.schedule(at, Delivery{static_cast<std::uint32_t>(to),
                                 static_cast<std::uint32_t>(from), m});
  }

  const NetworkStats& stats() const { return stats_; }

 private:
  // Untraced, the queue fires straight into the receiver; traced, it
  // fires into deliver_traced, which records the delivery first.
  void rebind() {
    if (spans_ != nullptr)
      queue_.bind(&Network::deliver_traced, this);
    else
      queue_.bind(receiver_, receiver_ctx_);
  }

  static void deliver_traced(void* self, const Delivery& d) {
    const auto& net = *static_cast<const Network*>(self);
    net.spans_->message(net.queue_.now(), /*send=*/false,
                        static_cast<int>(d.msg.index()), span_comp(d.msg),
                        d.from, d.to, span_hop(d.msg));
    net.receiver_(net.receiver_ctx_, d);
  }

  // Span-layer scalars of a message: the owning computation's packed
  // InitTag and (for queries) the hop the message travels at. Heartbeats
  // never reach these (send() elides them first).
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
      case 3:
        ++stats_.heartbeats;
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

  EventQueue& queue_;
  Rng rng_;
  SimTime max_delay_;
  Receiver receiver_ = nullptr;
  void* receiver_ctx_ = nullptr;
  NetworkStats stats_;
  SpanRecorder* spans_ = nullptr;  // borrowed Tier-C hook; may be null
  // Per-channel FIFO clamp state. Open-addressed: one probe per send
  // beats the rb-tree walk the old std::map did on every message.
  FlatMap<std::uint64_t, SimTime, U64Hash> last_delivery_;
};

}  // namespace cmvrp
