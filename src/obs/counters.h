// Tier-A protocol observability: deterministic per-cube counters.
//
// The paper's claims are *communication* claims — Phase I diffusing
// computations flood O(s^ℓ) vehicles per replacement (Lemma 3.3.1) and
// all coordination is intra-cube (§3.2) — so the observability layer's
// first tier counts messages, computations, and replacement cascades
// with the same determinism contract everything else in the streaming
// engine obeys: every field of CubeCounters is a pure function of one
// cube's arrival subsequence (plus its seed), merges commutatively, and
// therefore folds to bit-identical totals for every thread count and
// batch size. Wall-clock spans live in the separate Tier B
// (obs/stage_timer.h) and never mix into this struct.
//
// Collection is off by default (ObsConfig::counters): the message-kind
// fields come free from sim/network.h's always-on NetworkStats, but the
// per-computation query attribution, the cascade histogram, and the
// admission-queue gauges are extra bookkeeping the serve hot path only
// pays when asked to.
//
// kCounterFields below is the one definition of the scalar fields: their
// artifact keys, their folds, and their digest order. merge, digest,
// operator==, the stats JSONL (obs/snapshot.h) and the stream report all
// walk it, so a new counter is a member, its row, and its source in
// CubeServer::counters().
#pragma once

#include <cstdint>
#include <iterator>

#include "metrics/latency_histogram.h"

namespace cmvrp {

// Observability switches, carried inside OnlineConfig so they reach
// every FleetCore / CubeServer unchanged through stream, trace replay,
// record, and mux composition.
struct ObsConfig {
  // Tier-A counter collection (per-computation query attribution,
  // cascade histogram, admission gauges). Off by default: the serve
  // path must cost the same as before this layer existed.
  bool counters = false;
  // Tier-C causal span tracing (obs/span.h): per-cube protocol event
  // records on the cube protocol clock. Off by default for the same
  // reason as `counters`; turning it on cannot change serving outcomes.
  bool spans = false;
  // Deterministic span sampling: trace every span_sample-th diffusing
  // computation per cube (1 = every computation). Serve begin/end
  // anchors are always recorded while spans are on.
  std::int64_t span_sample = 1;
  // Flight-recorder ring: 0 keeps every sampled record; N > 0 keeps only
  // the last N records per cube (post-mortem mode — front ends dump the
  // rings on failed runs instead of exporting full traces).
  std::int64_t flight = 0;

  friend bool operator==(const ObsConfig& a, const ObsConfig& b) {
    return a.counters == b.counters && a.spans == b.spans &&
           a.span_sample == b.span_sample && a.flight == b.flight;
  }
  friend bool operator!=(const ObsConfig& a, const ObsConfig& b) {
    return !(a == b);
  }
};

// One cube's (or, after folding, one run's) deterministic counters.
// Sums merge by addition, peaks by max, the cascade histogram by its
// own commutative bucket sum — so the fold over cubes is
// order-invariant and the engine's ascending-corner fold lands on the
// same bytes at every thread count.
struct CubeCounters {
  // Cascade lengths are replacement counts per served job — tiny next
  // to latencies, so a small exact-bucket range suffices.
  static constexpr std::int64_t kCascadeMaxValue = 1 << 12;

  // Messages by kind (from NetworkStats; maintained even when
  // ObsConfig::counters is off). heartbeat_skips counts §3.2.5
  // heartbeats whose scheduler round-trip the network elided — the
  // PR-6 fast path made observable.
  std::uint64_t msg_queries = 0;
  std::uint64_t msg_replies = 0;
  std::uint64_t msg_moves = 0;
  std::uint64_t msg_heartbeats = 0;
  std::uint64_t msg_heartbeat_skips = 0;

  // Phase I diffusing computations. started/failed mirror
  // OnlineMetrics; finished counts every finish_phase_one (success or
  // failure) and is obs-gated.
  std::uint64_t comps_started = 0;
  std::uint64_t comps_finished = 0;  // obs-gated
  std::uint64_t comps_failed = 0;
  std::uint64_t monitor_initiations = 0;
  std::uint64_t replacements = 0;

  // Largest Query fan-out any single computation produced (obs-gated).
  // Lemma 3.3.1 bounds this by s^ℓ · (2r+1)^ℓ: each of the cube's s^ℓ
  // vehicles relays at most once, sending at most (2r+1)^ℓ queries.
  std::uint64_t max_queries_per_comp = 0;

  // Admission / queue events. arrivals, served, failed, shed and
  // rejected restate always-on engine state (served and failed are
  // OnlineMetrics' jobs_served / jobs_failed, shed and rejected the
  // StreamResult drop counts), so snapshots are self-contained; the two
  // backlog gauges are obs-gated.
  std::uint64_t arrivals = 0;
  std::uint64_t served = 0;
  std::uint64_t failed = 0;
  std::uint64_t enqueued = 0;  // jobs that entered a bounded backlog
  std::uint64_t shed = 0;
  std::uint64_t rejected = 0;
  std::uint64_t backlog_peak = 0;  // deepest the backlog ever got

  // Tier-C span totals (obs/span.h; zero unless ObsConfig::spans):
  // records kept, records skipped by the computation sampler, and
  // records the flight-recorder ring evicted. All three are pure
  // functions of the cube's arrival subsequence, like every field here.
  std::uint64_t spans_emitted = 0;
  std::uint64_t spans_sampled_out = 0;
  std::uint64_t spans_ring_evicted = 0;

  // Replacement-cascade length per served job: how many completed
  // Phase II relocations the job's own serve triggered (obs-gated;
  // monitor-initiated replacements between jobs are excluded).
  LatencyHistogram cascade{kCascadeMaxValue};

  std::uint64_t messages_total() const {
    return msg_queries + msg_replies + msg_moves + msg_heartbeats;
  }
  // Messages of every kind per completed replacement (0 without one).
  double messages_per_replacement() const {
    return replacements == 0 ? 0.0
                              : static_cast<double>(messages_total()) /
                                    static_cast<double>(replacements);
  }

  // Commutative fold: each row's sum or max, histogram bucket sums.
  void merge(const CubeCounters& other);

  // Order-invariant 64-bit digest over every row in table order, then
  // the cascade's own digest — the CI counter-diff guard's one-line
  // equality witness.
  std::uint64_t digest() const;

  friend bool operator==(const CubeCounters& a, const CubeCounters& b);
  friend bool operator!=(const CubeCounters& a, const CubeCounters& b) {
    return !(a == b);
  }
};

// How a scalar counter folds across cubes.
enum class CounterFold { kSum, kMax };

// One scalar CubeCounters field: the key it carries in the stream report
// and every stats line, its member, and its fold.
struct CounterField {
  const char* key;
  std::uint64_t CubeCounters::*member;
  CounterFold fold;
};

// Every scalar field, in declaration order — which is digest() order, so
// a row never moves and a new one goes last.
inline constexpr CounterField kCounterFields[] = {
    {"msg_queries", &CubeCounters::msg_queries, CounterFold::kSum},
    {"msg_replies", &CubeCounters::msg_replies, CounterFold::kSum},
    {"msg_moves", &CubeCounters::msg_moves, CounterFold::kSum},
    {"msg_heartbeats", &CubeCounters::msg_heartbeats, CounterFold::kSum},
    {"msg_heartbeat_skips", &CubeCounters::msg_heartbeat_skips,
     CounterFold::kSum},
    {"comps_started", &CubeCounters::comps_started, CounterFold::kSum},
    {"comps_finished", &CubeCounters::comps_finished, CounterFold::kSum},
    {"comps_failed", &CubeCounters::comps_failed, CounterFold::kSum},
    {"monitor_initiations", &CubeCounters::monitor_initiations,
     CounterFold::kSum},
    {"replacements", &CubeCounters::replacements, CounterFold::kSum},
    {"max_queries_per_comp", &CubeCounters::max_queries_per_comp,
     CounterFold::kMax},
    {"arrivals", &CubeCounters::arrivals, CounterFold::kSum},
    {"served", &CubeCounters::served, CounterFold::kSum},
    {"failed", &CubeCounters::failed, CounterFold::kSum},
    {"enqueued", &CubeCounters::enqueued, CounterFold::kSum},
    {"shed", &CubeCounters::shed, CounterFold::kSum},
    {"rejected", &CubeCounters::rejected, CounterFold::kSum},
    {"backlog_peak", &CubeCounters::backlog_peak, CounterFold::kMax},
    {"spans_emitted", &CubeCounters::spans_emitted, CounterFold::kSum},
    {"spans_sampled_out", &CubeCounters::spans_sampled_out,
     CounterFold::kSum},
    {"spans_ring_evicted", &CubeCounters::spans_ring_evicted,
     CounterFold::kSum},
};

// Every scalar member has its row: the scalars are all 64-bit, so a
// member added without one grows the struct past this sum.
static_assert(sizeof(CubeCounters) ==
                  std::size(kCounterFields) * sizeof(std::uint64_t) +
                      sizeof(LatencyHistogram),
              "a CubeCounters scalar has no kCounterFields row");

// Lemma 3.3.1 flood ceiling on per-computation queries: s^ℓ vehicles,
// each relaying to at most (2r+1)^ℓ − 1 neighbors plus the initiator's
// own fan-out — conservatively s^ℓ · (2r+1)^ℓ.
std::uint64_t query_flood_bound(std::int64_t cube_side,
                                std::int64_t neighbor_radius, int dim);

}  // namespace cmvrp
