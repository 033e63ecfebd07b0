// Tier-B protocol observability: wall-clock stage spans and an RSS gauge.
//
// Everything in this header is *nondeterministic by design* — wall time
// and resident memory vary run to run — and therefore lives in its own
// tier, strictly separated from the Tier-A counters (obs/counters.h).
// The separation is enforced by naming: every Tier-B JSON field carries
// a `wall_` prefix or `_ms` suffix, which is exactly the pattern the
// shared wall-field rule (obs/compare.h) excludes before
// diffing reports across thread counts.
#pragma once

#include <cstdint>

namespace cmvrp {

// Wall time the streaming engine spent in each serving stage, in
// milliseconds. The stages partition a batch's lifecycle:
//   ingest  — total run_batch time (route + serve + fold + bookkeeping),
//   route   — the corner/slot routing pass (serial or parallel scatter),
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

// Current resident set size in kB (VmRSS from /proc/self/status); 0 on
// platforms without procfs. A gauge, not a counter: sampled, never
// summed.
std::int64_t current_rss_kb();

}  // namespace cmvrp
