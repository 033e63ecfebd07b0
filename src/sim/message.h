// Protocol messages of §3.2.3–§3.2.4.
//
// Phase I uses query/reply pairs tagged with the initiator identity (plus
// a sequence number, as the paper's `init` discussion suggests, so repeat
// computations by the same vehicle stay distinct). Phase II uses a single
// move message carrying the destination.
//
// The `existing` heartbeats of the §3.2.5 monitoring ring are not a
// Message. A heartbeat is never delivered — its receiver would do
// nothing, since the ring reads fleet state directly — so it has no
// payload to carry and never enters the event queue. Network::beat_all
// sends them: it draws each delay and advances each channel's FIFO
// clamp, and that is all a heartbeat does.
#pragma once

#include <cstddef>
#include <cstdint>
#include <variant>

#include "util/check.h"

namespace cmvrp {

// Identity of one diffusing computation: (initiating vehicle, sequence).
// Both halves are 32-bit: vehicle ids are dense fleet indices (FleetCore
// checks the cube volume fits), and next_init checks the sequence.
struct InitTag {
  std::uint32_t vehicle = UINT32_MAX;
  std::uint32_t seq = 0;

  friend bool operator==(const InitTag& a, const InitTag& b) {
    return a.vehicle == b.vehicle && a.seq == b.seq;
  }
  friend bool operator!=(const InitTag& a, const InitTag& b) {
    return !(a == b);
  }
};

inline constexpr InitTag kNoInit{};

// Starts `vehicle`'s next diffusing computation: bumps its per-vehicle
// sequence counter `seq` and returns the new tag. Sequences start at 1,
// so a real tag never packs to 0 (see packed_init); the check keeps the
// counter from wrapping back onto that value.
inline InitTag next_init(std::uint32_t vehicle, std::uint32_t& seq) {
  CMVRP_CHECK_MSG(seq < UINT32_MAX,
                  "vehicle " << vehicle << " exhausted its 32-bit init_seq");
  return InitTag{vehicle, ++seq};
}

// Packed form of an InitTag, used as the span layer's computation id
// (obs/span.h) and the obs query-count key: vehicle in the high word,
// sequence in the low. 0 is the "no computation" value (kNoInit).
inline std::uint64_t packed_init(const InitTag& t) {
  if (t == kNoInit) return 0;
  return (static_cast<std::uint64_t>(t.vehicle) << 32) | t.seq;
}

// Phase I: "are you (or do you know) an idle vehicle?" — (init, p).
// `hop` is the query-tree depth the message travels at (1 = the
// initiator's own fan-out), carried for the span layer's causal trace;
// the protocol itself never reads it.
struct QueryMsg {
  InitTag init;
  std::uint32_t hop = 0;
};

// Phase I: reply (flag, p).
struct ReplyMsg {
  bool flag = false;
  InitTag init;
};

// Phase II: relay toward the found idle vehicle; `dest` is the snake
// index (in the cube, see CubePairing::snake_vertex) of the vertex the
// idle vehicle must occupy — the done vehicle's serving position.
struct MoveMsg {
  std::uint32_t dest = 0;
  InitTag init;
};

using Message = std::variant<QueryMsg, ReplyMsg, MoveMsg>;

// Every alternative is three 32-bit words, so a message is 16 bytes with
// the variant's index: the event queue's pool stores one per delivery.
static_assert(sizeof(Message) == 16, "Message must stay 16 bytes");

}  // namespace cmvrp
