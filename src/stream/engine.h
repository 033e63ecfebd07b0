// Sharded streaming engine: multi-threaded, batched online serving over
// cube shards — the one serving path of the Chapter 3 strategy. At
// threads 1 it is also the library's plain "run this stream" entry
// (serve_stream); the capacity search (stream/won_search.h) probes it.
//
// The engine exploits the paper's own decentralization (§3.2: vehicles
// coordinate only through radius-r neighbor messages inside their cube)
// to serve a job stream in parallel:
//
//   route   — arrivals are consumed in bounded batches (batch_size); one
//             routing pass on the ingest thread resolves each job's cube
//             corner and slot (one CubeSlotTable lookup when region
//             geometry is configured) and appends it to its shard's
//             slice, in arrival order. Routing costs a floor-divide per
//             axis, so a batch's one pool barrier is its serve.
//   serve   — N worker shards process their routed jobs concurrently,
//             each cube on its own per-cube seeded Network, over the
//             event queue its shard lends it for the serve (see
//             stream/shard.h).
//   observe — when a StreamObserver is attached, every batch's outcomes
//             are folded in ascending arrival-index order after the
//             barrier and handed to the observer on the ingest thread
//             (the OutcomeRecorder streams them to disk at
//             O(batch × threads) peak RSS),
//   merge   — per-cube OnlineMetrics fold in ascending-corner order into
//             one StreamResult; each shard's failed/dropped index log
//             (stream/shard.h) merges into sorted index sets, and the
//             served set is what the ingested indices leave.
//
// Serving state is O(cubes + failures), not O(arrivals): each cube is
// one block plus its heartbeat table and latency buckets (see
// stream/shard.h), the shards log only failed and dropped indices, and
// the engine records the ingested indices as (first, count) runs —
// extended while each index is one above (or below) the last, so every
// stream the repo generates, replays or muxes is one run at any thread
// count or batch size. finish() builds the served set as ingested −
// failed − dropped, in the result itself: it lists the runs' members in
// order (only a stream that repeats an index needs a sort) and takes out
// the failed and dropped indices in place, read by one k-way merge over
// the shards' sorted logs. No temporary holds the arrivals.
//
// Contract: results are bit-identical for every thread count and batch
// size, because all nondeterminism lives in per-cube seeds and each
// cube's job subsequence is order-preserved (the monitoring cadence is a
// per-cube arrival stride, never a batch boundary — see stream/shard.h).
// Threads — and whether a region/slot table is configured — only change
// wall time and shard assignment, never outcomes.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "grid/box.h"
#include "metrics/latency_histogram.h"
#include "metrics/timeseries.h"
#include "obs/counters.h"
#include "obs/snapshot.h"
#include "obs/span_export.h"
#include "obs/stage_timer.h"
#include "online/fleet_core.h"
#include "stream/pool.h"
#include "stream/shard.h"
#include "stream/slot_table.h"
#include "workload/generators.h"

namespace cmvrp {

// A run of ingested arrival indices: first, first + 1, …,
// first + count − 1, in some order (see the file comment).
struct IndexRun {
  std::int64_t first;
  std::uint64_t count;
};

struct StreamConfig {
  OnlineConfig online;          // per-cube deployment parameters
  int threads = 1;              // worker shards (>= 1)
  std::int64_t batch_size = 256;  // max arrivals per ingest batch (>= 1)
  // Region the stream's positions live in. When set, the engine builds a
  // cube-corner → slot table over it at construction and shards resolve
  // cubes through dense per-slot arrays; jobs outside the region (or all
  // jobs when unset) take the corner-hashed overflow path. Purely a
  // performance hint: outcomes are identical either way.
  std::optional<Box> region;
};

struct StreamResult {
  OnlineMetrics metrics;               // deterministic fold over cubes
  std::uint64_t jobs_ingested = 0;
  std::uint64_t batches = 0;
  std::uint64_t cubes = 0;
  std::uint64_t cube_slots = 0;        // slot-table size (0 = overflow only)
  // Always 0: every batch routes in one serial pass on the ingest
  // thread. Kept because perfbench/ still reads it.
  std::uint64_t routed_parallel_batches = 0;
  std::vector<std::int64_t> served_jobs;  // sorted arrival indices
  std::vector<std::int64_t> failed_jobs;  // sorted arrival indices
  // Admission drops (shed + rejected): jobs a bounded queue never let
  // reach the protocol. served + failed + shed partition the arrivals.
  std::vector<std::int64_t> shed_jobs;    // sorted arrival indices
  std::uint64_t jobs_shed = 0;            // evicted by AdmissionPolicy::kShed
  std::uint64_t jobs_rejected = 0;        // refused by AdmissionPolicy::kReject
  // Served-job latency (admission wait + protocol completion delta):
  // commutative per-cube merge, so percentiles and the digest are
  // bit-identical across thread counts and batch sizes.
  LatencyHistogram latency;
  // Backlog-depth / fleet-occupancy samples, folded per cube in
  // ascending-corner order (empty unless sample_stride > 0).
  TimeseriesSummary timeseries;
  // Tier-A counter totals (src/obs/), folded per cube: message kinds
  // come free from the always-on NetworkStats; the obs-gated fields
  // (cascade, per-computation query max, admission gauges) are zero
  // unless OnlineConfig::obs.counters. Deterministic like everything
  // above.
  CubeCounters counters;
  // Tier-B wall-clock stage spans (nondeterministic).
  StageTimes stages;
};

// Engine-side outcome observation. on_batch fires after every batch
// barrier with that batch's outcomes sorted by ascending arrival index
// (so for a stream indexed 0..N-1 the concatenation over batches is the
// global arrival order), on the thread that called ingest(). on_inject
// fires for every silent-done injection, at its position between
// batches — so an observer recording the run (OutcomeRecorder) captures
// those injections too and its trail replays to the same run. Break
// injections are not observed: the trace format has no record for them.
// Observers must not re-enter the engine.
class StreamObserver {
 public:
  virtual ~StreamObserver() = default;
  virtual void on_batch(const JobOutcome* outcomes, std::size_t count) = 0;
  virtual void on_inject(const Point& home) { (void)home; }
};

class StreamEngine {
 public:
  StreamEngine(int dim, const StreamConfig& config);

  // Attaches (or, with nullptr, detaches) an outcome observer. Borrowed;
  // must outlive serving. Call before ingest() — outcomes of batches
  // already served are not replayed.
  void set_observer(StreamObserver* observer);

  // Attaches (or detaches) a JSONL stats snapshotter (src/obs/). The
  // engine writes the header immediately, a totals sample every
  // snapshotter-stride batches (an O(cubes) counter fold on the ingest
  // thread, amortized by the stride), one line per cube in
  // ascending-corner order at finish(), and a final-totals line.
  // Borrowed; must outlive serving.
  void set_snapshotter(StatsSnapshotter* snapshotter);

  // Consumes a stream segment: splits it into bounded batches, routes
  // each batch to shards, and serves the batches one barrier at a time.
  // May be called repeatedly (the online front end). The pointer overload
  // lets out-of-core callers (trace replay) feed reused buffers without
  // constructing a vector per segment.
  void ingest(const std::vector<Job>& jobs);
  void ingest(const Job* jobs, std::size_t count);

  // Failure injection between ingest() calls, routed to the owning
  // cube's shard deterministically (creating the cube if no arrival has
  // reached it yet); takes effect for all arrivals ingested afterwards.
  // Silent-done: the vehicle homed at `home` serves until exhausted but
  // never initiates its own replacement (§3.2.5's scenario 2); the trace
  // replayer maps v2 silent-done events here. Break-after: the vehicle
  // breaks once it has spent `longevity` ∈ [0, 1] of its capacity
  // (Chapter 4's p_i; 0 = broken from the start, §3.2.5 scenarios 3/4).
  void inject_silent_done(const Point& home);
  void inject_break_after(const Point& home, double longevity);

  // Finalizes and merges every cube's results. With a bounded admission
  // policy this first drains every cube's backlog (the stream has ended,
  // so waiting jobs get served back to back), delivering those trailing
  // outcomes to the observer as one final batch. The engine stays
  // usable: further ingest() calls continue from the same fleet state
  // (with empty backlogs), and a later finish() reports every arrival
  // since construction.
  StreamResult finish();

  int dim() const { return dim_; }
  int threads() const { return pool_.size(); }
  // Size of the cube-slot table (0 when no region is configured or the
  // region was too large to tabulate) — surfaced so bench/CLI artifacts
  // are self-describing about which routing mode actually ran.
  std::uint64_t cube_slots() const { return table_.size(); }

  // The exact per-cube operand sequence finish() folds: (corner,
  // metrics) pairs in ascending-corner order. Test introspection for
  // the fold-order pin — OnlineMetrics::merge sums doubles, so only
  // this order reproduces result.metrics bit for bit (see
  // tests/stream_test.cpp's shard-fold-order regression). Metrics are
  // finalized by finish(); call this after it.
  std::vector<std::pair<Point, OnlineMetrics>> per_cube_metrics() const;

  // Tier-C export view: one (corner, pid, recorder) source per cube that
  // carries a span recorder, in ascending-corner order. pid is the
  // cube's slot in the routing table when covered (stable across runs of
  // one scenario), else kSpanUnslottedPidBase + its ascending-corner
  // ordinal. Empty unless OnlineConfig::obs.spans. Borrowed recorders:
  // valid until the next ingest()/finish().
  std::vector<CubeSpanSource> span_sources() const;

 private:
  void run_batch(const Job* jobs, std::size_t count);
  // Extends runs_ by the indices of `count` arrivals.
  void note_runs(const Job* jobs, std::size_t count);
  // Sorts the per-shard outcome buffers into one ascending-index batch
  // and hands it to the observer (no-op when empty / not observing).
  void flush_outcomes();
  // Folds every materialized cube's Tier-A counters (commutative, so no
  // sort needed) — the snapshotter's mid-run totals and finish()'s.
  CubeCounters fold_counters() const;
  // Every materialized cube, in ascending-corner order: the order of
  // finish()'s fold of double sums, which only this order reproduces.
  std::vector<std::pair<Point, const CubeServer*>> sorted_cubes() const;
  // Resolves one position to (corner, slot) and its owning shard.
  std::size_t route_of(const Point& position, Point* corner,
                       std::uint32_t* slot) const;
  // The server of the cube holding `home` (created on first contact).
  CubeServer& server_of(const Point& home);

  int dim_;
  StreamConfig config_;
  // The cube constants every shard, server and core borrows (and the
  // routing pairing: job position -> cube corner). Heap-held, so the
  // borrowers' references survive a move of the engine.
  std::unique_ptr<const CubeParams> params_;
  CubeSlotTable table_;  // cube corner -> dense slot (may be empty)
  std::vector<CubeShard> shards_;
  // Per-shard routing buffers, reused across batches.
  std::vector<std::vector<RoutedJob>> routed_;
  // Per-shard outcome buffers + the merged fold, reused across batches;
  // only populated while an observer is attached (O(batch × threads)).
  std::vector<std::vector<JobOutcome>> outcomes_;
  std::vector<JobOutcome> outcome_fold_;
  StreamObserver* observer_ = nullptr;
  StatsSnapshotter* snapshotter_ = nullptr;
  WorkerPool pool_;
  std::vector<IndexRun> runs_;  // every ingested index, as runs
  std::uint64_t jobs_ingested_ = 0;
  std::uint64_t batches_ = 0;
  StageTimes stages_;  // Tier-B spans
};

// Convenience: one engine, one stream, one result.
StreamResult serve_stream(int dim, const StreamConfig& config,
                          const std::vector<Job>& jobs);

}  // namespace cmvrp
