// Tier-C protocol observability: causal event spans.
//
// The Chapter 3 protocol is a forest of diffusing computations — every
// replacement grows a Phase I query tree (Algorithm 2), collapses it
// through replies, and relays one Phase II move down the found branch.
// SpanRecorder captures that causality as fixed-width per-cube records
// (message send/deliver by kind, computation start/finish keyed by the
// packed InitTag, relay hops with parent links, replacement-cascade
// steps, serve begin/end), each stamped with the cube protocol clock and
// a causal parent reference — the Dapper/X-Trace span model, except that
// the deterministic protocol clock makes the trace *bit-identical*
// across thread counts and batch sizes: every record is a pure function
// of the cube's arrival subsequence and seed, exactly like the Tier-A
// counters in obs/counters.h.
//
// Sampling is deterministic too: every ObsConfig::span_sample-th
// computation per cube is traced (the decision is made at comp_start and
// inherited by every record carrying that computation's tag), so a
// sampled trace is still bit-identical across threads/batches. Serve
// begin/end anchors are always recorded while spans are on. §3.2.5
// heartbeats are never recorded — they are protocol no-ops whose
// receiving side the network elides (see sim/network.h).
//
// Flight-recorder mode (ObsConfig::flight = N > 0) keeps only the last N
// records per cube in a ring, counting evictions — the post-mortem
// configuration front ends dump on check_error / failed runs.
//
// This header deliberately knows nothing about sim/ or online/ types
// (those layers sit above obs): hook sites pass pre-extracted scalars —
// the packed InitTag, the message-kind index, vehicle ids — so the
// dependency arrow keeps pointing upward.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/flat_map.h"
#include "util/hash.h"

namespace cmvrp {

// What one span record describes. Values are part of the binary spool
// format (obs/span_export.h) — append only, never renumber.
enum class SpanKind : std::uint8_t {
  kSend = 0,         // message handed to the network (aux = message kind)
  kDeliver = 1,      // message delivered to its receiver (aux = kind)
  kCompStart = 2,    // Phase I diffusing computation initiated
  kCompFinish = 3,   // Phase I finished (aux = 1 when a child was found)
  kRelay = 4,        // a vehicle relayed the query flood (data = fan-out)
  kCascadeStep = 5,  // a Phase II move completed (data = cascade ordinal)
  kServeBegin = 6,   // serve_job entered (data = arrival index)
  kServeEnd = 7,     // serve + its cascade drained (aux = 1 when served)
};

inline constexpr int kSpanKindCount = 8;

const char* span_kind_name(SpanKind kind);

// Message-kind index carried in `aux` of kSend/kDeliver records; matches
// Message::index() in sim/message.h (0 query, 1 reply, 2 move).
const char* span_message_kind_name(std::uint8_t aux);

// One fixed-width span record. Every field is deterministic: `clock` is
// the cube protocol clock (EventQueue::now at the hook site), `comp` the
// packed InitTag of the owning diffusing computation (0 = none — serve
// anchors), `actor`/`parent` cube-local vehicle ids (parent = the causal
// predecessor: the querying vehicle of a relay, the sender of a
// delivery), `hop` the query-tree depth the record sits at, and `data` a
// kind-specific payload (send ordinal for kSend/kDeliver — the flow id
// pairing a send with its delivery; fan-out for kCompStart/kRelay;
// cascade ordinal for kCascadeStep; arrival index for serve anchors).
struct SpanEvent {
  static constexpr std::uint32_t kNoActor = 0xffffffffu;

  std::int64_t clock = 0;
  std::uint64_t comp = 0;
  std::uint64_t data = 0;
  std::uint32_t actor = kNoActor;
  std::uint32_t parent = kNoActor;
  std::uint16_t hop = 0;
  std::uint8_t kind = 0;
  std::uint8_t aux = 0;

  friend bool operator==(const SpanEvent& a, const SpanEvent& b) {
    return a.clock == b.clock && a.comp == b.comp && a.data == b.data &&
           a.actor == b.actor && a.parent == b.parent && a.hop == b.hop &&
           a.kind == b.kind && a.aux == b.aux;
  }
  friend bool operator!=(const SpanEvent& a, const SpanEvent& b) {
    return !(a == b);
  }
};

// Record bookkeeping totals — folded into CubeCounters (spans_* fields)
// so they ride the cmvrp-stream-v4 report and cmvrp-stats-v1 snapshots.
struct SpanTotals {
  std::uint64_t emitted = 0;       // records appended (pre-eviction)
  std::uint64_t sampled_out = 0;   // records skipped by the comp sampler
  std::uint64_t ring_evicted = 0;  // records the flight ring dropped

  void merge(const SpanTotals& other) {
    emitted += other.emitted;
    sampled_out += other.sampled_out;
    ring_evicted += other.ring_evicted;
  }
};

// Per-cube span collector. One recorder per CubeServer, wired into its
// FleetCore and Network at construction; single-threaded by the engine's
// cube-ownership discipline (a cube is served by exactly one shard).
class SpanRecorder {
 public:
  static constexpr std::uint32_t kNoActor = SpanEvent::kNoActor;

  // `sample_every` >= 1: trace every sample_every-th computation of this
  // cube. `flight` >= 0: 0 keeps everything, N keeps the last N records.
  SpanRecorder(std::int64_t sample_every, std::int64_t flight);

  // Vehicle -> pair-slot registry (the Chrome exporter's tid axis).
  // Called from FleetCore::set_spans; ids are dense cube-local
  // indices, so a flat vector suffices.
  void note_vehicle_pair(std::size_t vid, std::int64_t pair_slot);

  // Hook-site entry points. `comp` is the packed InitTag; `clock` the
  // cube protocol clock at the hook site.
  void comp_start(std::int64_t clock, std::uint64_t comp, std::size_t vid,
                  std::size_t fanout);
  void comp_finish(std::int64_t clock, std::uint64_t comp, std::size_t vid,
                   bool found);
  void relay(std::int64_t clock, std::uint64_t comp, std::size_t vid,
             std::size_t parent, std::uint32_t hop, std::size_t fanout);
  void cascade_step(std::int64_t clock, std::uint64_t comp, std::size_t vid,
                    std::size_t parent, std::uint64_t step);
  void serve_begin(std::int64_t clock, std::size_t vid,
                   std::int64_t arrival_index);
  void serve_end(std::int64_t clock, std::int64_t arrival_index, bool served);
  // One network message: `send` distinguishes the send hook from the
  // delivery hook, `msg_kind` is Message::index() (heartbeats are never
  // passed here), `hop` the query hop the message travels at (0 for
  // replies/moves). Sends draw a per-cube flow ordinal stored in `data`;
  // the matching delivery pops the same ordinal off the channel's FIFO —
  // so send/deliver pairs share an id without any export-time matching.
  void message(std::int64_t clock, bool send, int msg_kind,
               std::uint64_t comp, std::size_t from, std::size_t to,
               std::uint32_t hop);

  // Records in chronological order (the ring unrolled when flight > 0).
  std::vector<SpanEvent> snapshot() const;

  const SpanTotals& totals() const { return totals_; }
  std::int64_t sample_every() const { return sample_every_; }
  std::int64_t flight() const { return flight_; }
  std::size_t stored() const { return events_.size(); }

  // Pair slot of a vehicle (kNoActor when the id was never registered).
  std::uint32_t pair_of(std::uint32_t vid) const {
    return vid < pair_of_.size() ? pair_of_[vid] : kNoActor;
  }
  std::size_t vehicle_count() const { return pair_of_.size(); }

 private:
  // True when records tagged `comp` are kept (decided at comp_start).
  bool sampled(std::uint64_t comp) const;
  void append(const SpanEvent& e);

  std::int64_t sample_every_;
  std::int64_t flight_;
  std::uint64_t comp_ordinal_ = 0;  // computations seen by this cube
  std::uint64_t send_ordinal_ = 0;  // flow ids for send/deliver pairing
  // Packed InitTag -> sampled? Entries live for the cube's lifetime
  // (bounded by computations per cube, same as FleetObs::comp_queries).
  FlatMap<std::uint64_t, std::uint8_t, U64Hash> comp_sampled_;
  // (from << 32 | to) -> FIFO of in-flight send ordinals per channel.
  FlatMap<std::uint64_t, std::vector<std::uint64_t>, U64Hash> in_flight_;
  std::vector<std::uint32_t> pair_of_;  // vid -> pair slot
  // Flat storage; with flight > 0 it is a ring of capacity flight_ and
  // ring_head_ marks the oldest record.
  std::vector<SpanEvent> events_;
  std::size_t ring_head_ = 0;
  SpanTotals totals_;
};

}  // namespace cmvrp
