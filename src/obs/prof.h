// Span-trace analysis: the `cmvrp_cli prof` backend.
//
// profile_spans groups a trace's records into per-computation profiles —
// one per (cube pid, packed InitTag) — and derives the three views the
// ROADMAP's query-batching work needs:
//
//   fan-out tree shape   breadth by hop (how many queries travel at each
//                        hop of the Algorithm 2 flood) and per-tree max
//                        depth — the measured counterpart of Lemma
//                        3.3.1's s^ℓ · (2r+1)^ℓ ceiling
//   critical path        finish clock − start clock per computation on
//                        the protocol clock: the serial latency a
//                        replacement pays for its flood + reply collapse
//   widest floods        top-k computations by query count — the
//                        concrete batching targets
//
// Attribution: every Phase I query carries its computation's InitTag, so
// at sampling K=1 the profile attributes 100% of recorded query sends to
// a computation tree; the report carries both counts so callers can
// assert the ratio (the acceptance bar is >= 95% of *counted* queries,
// i.e. CubeCounters::msg_queries, which this matches when sampling is
// off because the span hook and the counter hook sit at the same site).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "metrics/latency_histogram.h"
#include "obs/span_export.h"

namespace cmvrp {

// One diffusing computation's measured tree.
struct CompProfile {
  std::uint64_t pid = 0;      // owning cube's pid
  std::uint64_t comp = 0;     // packed InitTag
  std::int64_t start = 0;     // protocol clock at comp_start
  std::int64_t finish = 0;    // protocol clock at comp_finish
  bool finished = false;      // saw a kCompFinish record
  bool found = false;         // the finish reported a child
  std::uint64_t queries = 0;  // query sends tagged with this comp
  std::uint64_t relays = 0;   // vehicles that relayed the flood
  std::uint64_t cascade_steps = 0;  // Phase II moves this comp completed
  std::uint32_t depth = 0;    // deepest hop any of its queries reached
  // finish − start on the protocol clock: the flood + collapse latency.
  std::int64_t critical_path = 0;
};

struct ProfReport {
  std::size_t cubes = 0;
  std::uint64_t events = 0;          // records across all cubes
  std::uint64_t comps = 0;           // computations with a start record
  std::uint64_t comps_finished = 0;
  std::uint64_t comps_found = 0;
  std::uint64_t query_sends = 0;       // kSend records of kind query
  std::uint64_t attributed_queries = 0;  // of those, tagged to a known comp
  std::uint64_t replacements = 0;      // cascade steps across all comps
  // breadth_by_hop[h] = query sends travelling at hop h (hop 1 = the
  // initiator's own fan-out). Index 0 exists but stays 0 by protocol.
  std::vector<std::uint64_t> breadth_by_hop;
  LatencyHistogram depth{1 << 8};            // per-comp max hop
  LatencyHistogram critical{1 << 20};        // per-comp critical path
  LatencyHistogram flood_width{1 << 20};     // per-comp query count
  std::vector<CompProfile> widest;           // top-k by queries, desc

  double attribution_ratio() const {
    return query_sends == 0 ? 1.0
                            : static_cast<double>(attributed_queries) /
                                  static_cast<double>(query_sends);
  }
};

// Profiles the cubes of a trace read back by read_span_spool or
// read_chrome_trace (obs/span_export.h); the report is the same for both
// exports of one run. The run's record totals are the SpanSpool's own.
// `top_k` bounds the widest-floods list; ties break on (pid, comp) so
// the report is deterministic.
ProfReport profile_spans(const std::vector<CubeSpans>& cubes,
                         std::size_t top_k);

}  // namespace cmvrp
