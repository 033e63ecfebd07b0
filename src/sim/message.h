// Protocol messages of §3.2.3–§3.2.4.
//
// Phase I uses query/reply pairs tagged with the initiator identity (plus
// a sequence number, as the paper's `init` discussion suggests, so repeat
// computations by the same vehicle stay distinct). Phase II uses a single
// move message carrying the destination.
//
// Every kind carries the same two things, its computation's InitTag and
// one 32-bit word (a query's hop, a reply's flag, a move's destination),
// so a Message is one plain 16-byte record — tag, word, kind — and not a
// variant of three types. The event queue stores one per delivery and a
// Phase I flood sends about a thousand, so the record is built and copied
// in whole words: a std::variant keeps its one-byte index apart from the
// payload, and building a Delivery from one reloads narrow stores as
// wider words, which stalls store-to-load forwarding on every send.
// Readers branch on `kind` and read the word through the accessor of
// that kind; Debug builds check the kind there.
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
#include <type_traits>

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

// What a message asks of its receiver. The value is the kind the span
// layer records (obs/span.h).
enum class MsgKind : std::uint32_t {
  // Phase I: "are you (or do you know) an idle vehicle?" — (init, p).
  // The word is the query-tree depth the message travels at (1 = the
  // initiator's own fan-out), carried for the span layer's causal trace;
  // the protocol itself never reads it.
  kQuery = 0,
  // Phase I: reply (flag, p). The word is the flag, 0 or 1.
  kReply = 1,
  // Phase II: relay toward the found idle vehicle. The word is the snake
  // index (in the cube, see CubePairing::snake_vertex) of the vertex the
  // idle vehicle must occupy — the done vehicle's serving position.
  kMove = 2,
};

struct Message {
  InitTag init;             // the computation the message belongs to
  std::uint32_t word = 0;   // the payload of `kind` (see MsgKind)
  MsgKind kind = MsgKind::kQuery;

  static Message query(const InitTag& init, std::uint32_t hop) {
    return {init, hop, MsgKind::kQuery};
  }
  static Message reply(const InitTag& init, bool flag) {
    return {init, flag ? 1u : 0u, MsgKind::kReply};
  }
  static Message move(const InitTag& init, std::uint32_t dest) {
    return {init, dest, MsgKind::kMove};
  }

  std::uint32_t hop() const { return payload(MsgKind::kQuery); }
  bool flag() const { return payload(MsgKind::kReply) != 0; }
  std::uint32_t dest() const { return payload(MsgKind::kMove); }

 private:
  std::uint32_t payload([[maybe_unused]] MsgKind of) const {
#ifndef NDEBUG
    CMVRP_CHECK_MSG(kind == of, "read the payload of a kind-"
                                    << static_cast<unsigned>(of)
                                    << " message from a kind-"
                                    << static_cast<unsigned>(kind) << " one");
#endif
    return word;
  }
};

// Three 32-bit words and the kind: the event queue's pool stores one per
// delivery and copies it as plain bytes.
static_assert(sizeof(Message) == 16 &&
                  std::is_trivially_copyable_v<Message>,
              "Message must stay a trivially copyable 16-byte record");

}  // namespace cmvrp
