// Stride-driven JSONL stats snapshots (`cmvrp-stats-v1`).
//
// The snapshotter turns the observability layer's two tiers into a
// line-per-record stream a shell (or `cmvrp_cli stats`) can consume
// while the engine is still serving:
//
//   {"kind":"header", "schema":"cmvrp-stats-v1", ...}   once, up front
//   {"kind":"sample", "batch":N, <Tier-A totals>, <Tier-B spans>}
//                                  every `stride` batches
//   {"kind":"cube",   "corner":[...], <per-cube counters + latency>}
//                                  once per cube at finish, in
//                                  ascending-corner order
//   {"kind":"final",  <Tier-A totals>, <Tier-B spans>}  once, at finish
//
// Determinism contract: with the wall fields excluded (every Tier-B key
// ends in `_ms` or starts with `wall_` — the rule obs/compare.h applies
// per field), the stream is bit-identical across thread counts, because
// sample lines fire on batch boundaries (a pure function of the arrival
// sequence and batch size) and every Tier-A field folds commutatively
// from per-cube state. The CI counter-diff guard runs
// `cmvrp_cli compare --kind stats` over exactly that contract.
//
// Every sample, cube and final line carries one key per kCounterFields
// row (obs/counters.h), then the derived msg_total, the cascade summary
// and counters_hash.
//
// This layer deliberately serializes by hand instead of using
// util/json.h's document model: building a Json per line would allocate
// on the serving path. read_stats below parses the lines back with
// util/json.h; `cmvrp_cli stats` and obs/compare.h both read through it.
#pragma once

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "grid/point.h"
#include "metrics/latency_histogram.h"
#include "obs/counters.h"
#include "obs/stage_timer.h"
#include "util/json.h"

namespace cmvrp {

inline constexpr char kStatsSchema[] = "cmvrp-stats-v1";

class StatsSnapshotter {
 public:
  // `out` is borrowed and must outlive the snapshotter. `stride` is the
  // sampling cadence in ingest batches (>= 1): due(b) gates the
  // engine's O(cubes) mid-run fold, write_sample emits the line.
  StatsSnapshotter(std::ostream& out, std::int64_t stride);

  std::int64_t stride() const { return stride_; }
  bool due(std::uint64_t batch) const {
    return batch % static_cast<std::uint64_t>(stride_) == 0;
  }

  void write_header(int dim, int threads, std::int64_t batch_size,
                    std::uint64_t seed, bool counters_on);
  void write_sample(std::uint64_t batch, std::uint64_t jobs_ingested,
                    const CubeCounters& totals, const StageTimes& stages);
  void write_cube(const Point& corner, const CubeCounters& counters,
                  const LatencyHistogram& latency);
  void write_final(std::uint64_t jobs_ingested, std::uint64_t cubes,
                   const CubeCounters& totals, const StageTimes& stages);

  std::uint64_t lines_written() const { return lines_; }

 private:
  std::ostream& out_;
  std::int64_t stride_;
  std::uint64_t lines_ = 0;
};

// A stats stream read back: its lines by kind, each kind in file order
// (so cubes stay in the writer's ascending-corner order). Lines of an
// unknown kind are skipped.
struct StatsDoc {
  Json header;
  std::vector<Json> samples;
  std::vector<Json> cubes;
  Json final_line;
};

// Parses a whole stats stream. Throws check_error naming `label` and the
// byte offset of the problem when the stream is empty, a line does not
// parse or has no "kind", a header's schema is not kStatsSchema, a
// header, cube or final line lacks a key the writer emits on it, there
// is no header line, or there is no final line.
StatsDoc read_stats(const std::string& text, const std::string& label);

}  // namespace cmvrp
