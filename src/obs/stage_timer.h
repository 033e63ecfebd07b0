// Tier-B protocol observability: wall-clock stage spans and an RSS gauge.
//
// Everything in this header is *nondeterministic by design* — wall time
// and resident memory vary run to run — and therefore lives in its own
// tier, strictly separated from the Tier-A counters (obs/counters.h).
#pragma once

#include <cstdint>

namespace cmvrp {

// Wall time the streaming engine spent in each serving stage, in
// milliseconds. The stages partition a batch's lifecycle:
//   ingest  — total run_batch time (route + serve + fold + bookkeeping),
//   route   — the corner/slot routing pass (one per batch, on the
//             ingest thread),
//   serve   — the worker-pool serve barrier (protocol work on shards),
//   fold    — sorting per-shard outcomes into the observer's batch,
//   monitor — finish()-time backlog drain, catch-up settles, and the
//             per-cube metric fold.
struct StageTimes {
  double ingest_ms = 0.0;
  double route_ms = 0.0;
  double serve_ms = 0.0;
  double fold_ms = 0.0;
  double monitor_ms = 0.0;
};

// One row per StageTimes member: the key the stats lines and the stream
// report write it under. Each is a wall field in milliseconds.
struct StageField {
  const char* key;
  double StageTimes::*member;
};

inline constexpr StageField kStageFields[] = {
    {"stage_ingest_ms", &StageTimes::ingest_ms},
    {"stage_route_ms", &StageTimes::route_ms},
    {"stage_serve_ms", &StageTimes::serve_ms},
    {"stage_fold_ms", &StageTimes::fold_ms},
    {"stage_monitor_ms", &StageTimes::monitor_ms},
};

// Current resident set size in kB (VmRSS from /proc/self/status); 0 on
// platforms without procfs. A gauge, not a counter: sampled, never
// summed.
std::int64_t current_rss_kb();

}  // namespace cmvrp
