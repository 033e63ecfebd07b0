// Deterministic discrete-event transport: a typed calendar queue of
// message deliveries.
//
// Deliveries fire in (time, insertion) order, so equal-time deliveries
// are processed in a reproducible order; all nondeterminism in
// experiments comes from explicitly seeded message delays, never from
// the engine.
//
// Layout: a ring of per-tick FIFO lists over a free-listed node pool.
// Every pending delivery is due in [now, now + span), so ring bucket
// t mod span holds exactly the deliveries of tick t, in insertion order.
// Scheduling appends to a bucket's list and firing pops the first
// non-empty bucket at or after now: no heap sift, no type erasure, and no
// allocation once the pool is warm. A schedule at or past now + span (a
// per-channel FIFO clamp running far ahead) doubles the ring first.
//
// One queue serves many clocks: the stream engine keeps one per worker
// and lends it to each cube it serves (see Network::Lend), resuming it
// at that cube's clock. Neither the pool's free-list order nor the ring
// size is observable — deliveries fire in (time, insertion) order
// whichever bucket they land in — so a lent queue fires exactly as a
// queue of the cube's own would.
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "sim/message.h"
#include "util/check.h"

namespace cmvrp {

using SimTime = std::int64_t;

// One message in flight: endpoint ids (dense fleet indices, which
// Network::send_all checks lie below its transport's vehicle count, at
// most 2^32) and the payload.
struct Delivery {
  std::uint32_t to = 0;
  std::uint32_t from = 0;
  Message msg;
};

static_assert(sizeof(Delivery) == 24, "Delivery must stay 24 bytes");

class EventQueue {
 public:
  // The bound receiver: called once per delivery as it fires, with the
  // context pointer given to bind(). It may schedule further deliveries.
  using Sink = void (*)(void* ctx, const Delivery& d);

  void bind(Sink sink, void* ctx) {
    sink_ = sink;
    sink_ctx_ = ctx;
  }

  SimTime now() const { return now_; }
  bool empty() const { return pending_ == 0; }
  std::size_t pending() const { return pending_; }

  // Sets the clock of an empty queue — the hand-off to another clock.
  // With nothing pending every bucket is empty, so no delivery's bucket
  // depends on the old clock.
  void resume_at(SimTime clock) {
    CMVRP_CHECK_MSG(pending_ == 0, "cannot move the clock of a busy queue");
    now_ = clock;
  }

  // Schedules `d` at absolute time `at` (must be >= now()).
  void schedule(SimTime at, const Delivery& d) {
    CMVRP_CHECK_MSG(at >= now_, "cannot schedule into the past");
    CMVRP_CHECK_MSG(sink_ != nullptr, "event queue has no sink bound");
    while (at - now_ >= static_cast<SimTime>(ring_.size())) grow();
    std::uint32_t node = free_;
    if (node == kNil) {
      CMVRP_CHECK_MSG(nodes_.size() < kNil, "delivery pool exhausted");
      node = static_cast<std::uint32_t>(nodes_.size());
      nodes_.emplace_back();
    } else {
      free_ = nodes_[node].next;
    }
    nodes_[node].d = d;
    nodes_[node].next = kNil;
    Bucket& b = bucket(at);
    (b.head == kNil ? b.head : nodes_[b.tail].next) = node;
    b.tail = node;
    ++pending_;
  }

  void schedule_after(SimTime delay, const Delivery& d) {
    CMVRP_CHECK(delay >= 0);
    schedule(now_ + delay, d);
  }

  // Fires the earliest delivery into the bound sink. Returns false when
  // the queue is empty.
  bool step() {
    if (pending_ == 0) return false;
    while (bucket(now_).head == kNil) ++now_;
    Bucket& b = bucket(now_);
    const std::uint32_t node = b.head;
    b.head = nodes_[node].next;
    // Copy out and free the node before the sink runs: the sink may
    // schedule, which can reuse the node or reallocate the pool.
    const Delivery d = nodes_[node].d;
    nodes_[node].next = free_;
    free_ = node;
    --pending_;
    sink_(sink_ctx_, d);
    return true;
  }

  // Drains the queue; throws if more than `max_events` fire (guards
  // against protocol livelock in tests).
  void run_to_quiescence(std::uint64_t max_events = 10'000'000) {
    std::uint64_t fired = 0;
    while (step()) {
      CMVRP_CHECK_MSG(++fired <= max_events,
                      "event budget exhausted: likely livelock");
    }
  }

 private:
  static constexpr std::uint32_t kNil = UINT32_MAX;
  static constexpr std::size_t kInitialSpan = 16;  // power of two

  struct Node {
    Delivery d;
    std::uint32_t next;  // next node in its bucket or the free list
  };
  static_assert(sizeof(Node) == 28, "a pool node is a Delivery + a link");
  struct Bucket {
    std::uint32_t head = kNil;
    std::uint32_t tail = kNil;  // meaningful only while head != kNil
  };

  Bucket& bucket(SimTime t) {
    return ring_[static_cast<std::size_t>(t) & (ring_.size() - 1)];
  }

  // Doubles the span (allocating the first ring lazily, so a queue that
  // never schedules costs no heap). Each list moves whole to the bucket
  // of its tick, now_ + the list's offset in the old ring.
  void grow() {
    const std::vector<Bucket> old = std::move(ring_);
    ring_.assign(old.empty() ? kInitialSpan : 2 * old.size(), Bucket{});
    for (std::size_t i = 0; i < old.size(); ++i) {
      if (old[i].head == kNil) continue;
      const std::size_t offset =
          (i - static_cast<std::size_t>(now_)) & (old.size() - 1);
      bucket(now_ + static_cast<SimTime>(offset)) = old[i];
    }
  }

  std::vector<Node> nodes_;
  std::vector<Bucket> ring_;
  Sink sink_ = nullptr;
  void* sink_ctx_ = nullptr;
  SimTime now_ = 0;
  std::size_t pending_ = 0;
  std::uint32_t free_ = kNil;  // head of the node free list
};

}  // namespace cmvrp
