// One shard of the streaming engine: a disjoint set of cubes, each cube
// an independent serving unit.
//
// Because every protocol action of the Chapter 3 strategy is intra-cube
// (neighbor lists, diffusing computations, and the monitoring ring never
// cross a cube boundary — the decentralization claim of §3.2), a cube can
// own its *entire* nondeterminism budget: CubeServer gives each cube its
// own Network whose delay RNG is seeded from (engine seed, cube corner),
// and its own FleetCore. A cube's outcome is then a pure function of
// (its job subsequence, its seed) — independent of which shard hosts it,
// how many threads run, or how arrivals are batched. That is the
// engine's bit-identical-across-thread-counts contract, enforced by
// tests/stream_test.cpp.
//
// A cube holds only its own state: its fleet, its clock, its delay
// generator, its ring (the heartbeat clamps) and its admission backlog.
// Everything else it borrows:
//   * the deployment constants — OnlineConfig and CubePairing — from the
//     engine's one CubeParams, shared by every shard, server and core;
//   * what it needs only while messages are in flight — the event queue,
//     the flood clamps and the neighbor scratch — from its shard's one
//     Transport, lent to the cube being served for the span of serve()
//     and finish() (Network::Lend). Every serve and settle ends in
//     quiescence, so the queue is empty at each hand-off (see
//     sim/network.h for why that is exact);
//   * where its failures go — the arrival indices it failed and dropped
//     — from its shard's OutcomeLog, appended in processing order and
//     merged by the engine's finish(). Served indices are not logged:
//     the engine derives them from the ingested index runs (engine.h).
//
// A cube is one heap block, allocated at its first arrival (or
// injection) by CubeServer::create and sized from the CubeParams: the
// CubeServer itself is the block's header (456 B; 464 once rounded for
// the regions) — the network's generator state, stats, clock and
// receiver; the core's flags, counts and timing; the server's counters
// and latency — and the core's four regions follow it: the fleet, the
// pair slots, the Phase II destinations and the beat slots
// (online/fleet_core.h). The header keeps each thing once: the network
// alone holds the message stats, which the core's metrics() reads live,
// and the generator is xoshiro state without Rng's Gaussian spare. What
// only observability, bounded admission or sampling reads — the span
// recorder, the cascade histogram, the per-computation query counts,
// the backlog and its clock and gauges, the shed/rejected counts and
// the timeseries — sits in a side record allocated with the cube only
// when one of them is on. So a cube with all of them off is one block
// plus its heartbeat table, and plus its latency buckets only once a
// served job has waited (a histogram of zeros allocates none). Being
// one block is also what lets the serve loop prefetch a cold cube's
// state: it starts loading the block of the cube a few jobs ahead
// (CubeShard::prefetch), which changes no result.
//
// Cube resolution is two-tier. Slots the engine's CubeSlotTable covers
// live in a dense per-shard array (a shard owns the slots congruent to
// its index mod shard-count, stored contiguously at slot / shard-count),
// so the per-job path is one indexed load instead of the corner-keyed
// std::map walk of earlier revisions. Jobs outside the table — or all
// jobs when no region is configured — resolve through a corner-hashed
// overflow FlatMap, which is the pre-refactor behavior; either tier
// constructs the identical CubeServer (the seed depends only on the
// corner), so outcomes cannot depend on the tier.
//
// Monitoring cadence: CubeServer settles the §3.2.5 ring every
// OnlineConfig::monitor_stride services *of its own cube* (plus a
// catch-up settle in finish()). Sweeping exactly once per ingest batch
// would be cheaper still, but would make heartbeat counts — and, because
// heartbeat delays draw from the per-cube RNG, travel/energy splits —
// depend on the batch size, breaking the bit-identical contract; a fixed
// per-cube stride gives the same amortization with results that stay a
// pure function of the cube's arrival subsequence.
//
// Admission (OnlineConfig::admission): with a bounded policy, each cube
// runs a FIFO backlog on the *global arrival-index clock* (§1.3's
// t_1 < t_2 < … with unit gaps — job.index is the wall time). A service
// occupies the cube for service_ticks of that clock; completed backlog
// services are materialized lazily at each arrival (and drained in
// finish()), so the whole admission schedule — who waits, who is shed,
// every queue_wait — is a pure function of the cube's arrival
// subsequence and stays bit-identical across thread counts AND batch
// sizes. kUnbounded bypasses the queue entirely: the serve path is the
// historical one, byte for byte.
//
// CubeShard serves its routed jobs in arrival order and the engine folds
// results by ascending cube corner, so double-valued metric sums are
// also reproducible. When the engine carries a StreamObserver, the shard
// additionally records JobOutcomes into an engine-owned per-shard buffer
// (O(batch) each, no cross-thread sharing). Note that with a bounded
// admission policy one *arrival* can materialize several *outcomes*
// (completed backlog services and/or an eviction), so outcomes of queued
// jobs surface in the batch that materialized them, not the batch that
// ingested them.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "grid/corner_hash.h"
#include "grid/point.h"
#include "metrics/latency_histogram.h"
#include "metrics/timeseries.h"
#include "obs/counters.h"
#include "obs/span.h"
#include "online/fleet_core.h"
#include "sim/network.h"
#include "stream/slot_table.h"
#include "util/fifo.h"
#include "util/flat_map.h"
#include "workload/generators.h"

namespace cmvrp {

// Deterministic per-cube seed: splitmix64-style fold of the engine seed
// and the cube corner coordinates. Identical for every thread count and
// shard assignment by construction.
std::uint64_t cube_stream_seed(std::uint64_t engine_seed, const Point& corner);

// A job after the engine's routing pass: the cube corner and slot are
// resolved once, on the routing thread, so the shard's serve loop never
// recomputes them.
struct RoutedJob {
  Job job;
  Point corner;
  std::uint32_t slot = CubeSlotTable::kNoSlot;
};

// How one arrival ended. kServed/kFailed come out of the protocol;
// kShed/kRejected are admission drops — those jobs never reach the
// FleetCore at all. served + failed + dropped partition the arrivals.
enum class OutcomeKind : std::uint8_t {
  kFailed = 0,    // reached the protocol; no vehicle could serve it
  kServed = 1,
  kShed = 2,      // evicted from a bounded backlog by a newer arrival
  kRejected = 3,  // refused at admission: backlog full under kReject
};

// What one arrival came to: the job, the cube that handled it, the
// outcome kind, and its lifecycle timestamps — the unit the
// OutcomeRecorder streams back to disk.
struct JobOutcome {
  Job job;
  Point corner;        // cube corner the job was routed to
  OutcomeKind kind = OutcomeKind::kFailed;
  JobTiming timing;    // zero-initialized for admission drops
};

// The arrival indices that did not end served, by how they ended, each
// in processing order. One per shard, shared by all its cubes and kept
// for the engine's lifetime; the engine's finish() merges the shards'
// logs into sorted result sets and takes them from the ingested indices
// to get the served ones. O(failures), not O(arrivals).
struct OutcomeLog {
  std::vector<std::int64_t> failed;
  std::vector<std::int64_t> dropped;  // admission drops: shed + rejected
};

// A single cube served online: own clock, own network, own fleet — and,
// under a bounded admission policy, its own backlog on the arrival clock.
// The event queue and flood clamps are borrowed from `transport` for the
// span of each serve() and finish(). Always one heap block (see the file
// comment), so it is made by create() and held by a Ptr.
class CubeServer {
 public:
  // Destroys a server and frees its block.
  struct Deleter {
    void operator()(CubeServer* server) const;
  };
  using Ptr = std::unique_ptr<CubeServer, Deleter>;

  // Allocates the cube's block and builds the server in it. `params` and
  // `transport` are borrowed and must outlive the server; both may be
  // shared with other servers (the transport only with servers served on
  // the same thread).
  static Ptr create(const CubeParams& params, const Point& corner,
                    Transport& transport);
  static Ptr create(CubeParams&&, const Point&, Transport&) = delete;

  // The block's first bytes: the header, padded so the regions behind it
  // are aligned for a Vehicle.
  static std::size_t header_bytes();

  CubeServer(const CubeServer&) = delete;
  CubeServer& operator=(const CubeServer&) = delete;

  // Admits one arrival (which must lie in this cube): serves it
  // immediately (kUnbounded, or an idle cube), queues it, or drops it —
  // and first materializes every backlog service that completed by the
  // arrival's clock. Appends the index of each *materialized* outcome
  // that is a failure or a drop to `log`, and each outcome's JobOutcome
  // to `out` when non-null. Serving drains the cube's queue; the
  // monitoring ring settles every monitor_stride-th service.
  void serve(const Job& job, OutcomeLog& log, std::vector<JobOutcome>* out);

  // Failure injection into the vehicle homed at `home` (which must lie
  // in this cube), effective for all subsequent arrivals. Silent-done:
  // it serves until exhausted but never initiates its own replacement,
  // so only the §3.2.5 ring can recover the pair. Break-after: it breaks
  // once it has spent `longevity` of its capacity (0 = already broken).
  void inject_silent_done(const Point& home) { core_.inject_silent_done(home); }
  void inject_break_after(const Point& home, double longevity) {
    core_.inject_break_after(home, longevity);
  }

  // Drains the admission backlog (recording those outcomes as serve()
  // does), runs any monitoring rounds deferred by the stride, then
  // finalizes metrics (the energy aggregates).
  void finish(OutcomeLog& log, std::vector<JobOutcome>* out);

  const Point& corner() const { return core_.corner(); }
  const FleetCore& core() const { return core_; }
  const Network& network() const { return network_; }
  OnlineMetrics metrics() const { return core_.metrics(); }
  std::uint64_t jobs_shed() const { return side_ ? side_->jobs_shed : 0; }
  std::uint64_t jobs_rejected() const {
    return side_ ? side_->jobs_rejected : 0;
  }
  // Latencies of this cube's served jobs (queue wait + protocol delta).
  const LatencyHistogram& latency() const { return latency_; }
  // Backlog-depth / occupancy samples (empty unless sample_stride > 0).
  const Timeseries& series() const;
  // Snapshot of this cube's Tier-A counters (src/obs/): live network
  // stats + protocol metrics + the obs-gated cascade/admission state,
  // assembled on demand so mid-run stats samples see current values.
  // The obs-gated fields are zero unless OnlineConfig::obs.counters.
  CubeCounters counters() const;
  // Tier-C span recorder (null unless OnlineConfig::obs.spans).
  const SpanRecorder* spans() const {
    return side_ && side_->spans ? &*side_->spans : nullptr;
  }

 private:
  // `regions` is the rest of the block: FleetCore::region_bytes long.
  CubeServer(const CubeParams& params, const Point& corner,
             Transport& transport, void* regions);
  ~CubeServer() = default;

  void settle_if_due();
  // Hands one job to the protocol, drains, stamps timing, records.
  void serve_now(const Job& job, SimTime queue_wait, OutcomeLog& log,
                 std::vector<JobOutcome>* out);
  // Records an admission drop (the job never touches the FleetCore).
  void drop(const Job& job, OutcomeKind kind, SimTime queue_wait,
            OutcomeLog& log, std::vector<JobOutcome>* out);
  // Materializes backlog services whose clock completed by `now`.
  void drain_completed(SimTime now, OutcomeLog& log,
                       std::vector<JobOutcome>* out);
  void sample_if_due();
  // Obs-gated backlog gauges, called after every backlog push.
  void note_enqueued() {
    if (!side_->obs) return;
    ++side_->enqueued;
    if (side_->backlog.size() > side_->backlog_peak)
      side_->backlog_peak = side_->backlog.size();
  }

  struct Waiting {
    Job job;
    SimTime enqueued_at = 0;  // arrival-index clock
  };

  // What only observability (obs.counters, obs.spans), bounded admission
  // or sampling reads; allocated when one of them is on.
  struct Side {
    explicit Side(const OnlineConfig& config);

    // Tier-C span recorder (unset unless obs.spans): wired into both the
    // core (protocol events) and the network (messages) at
    // construction, read back through the engine's span_sources().
    std::optional<SpanRecorder> spans;
    // Tier-A state, touched only when `obs` is set (obs.counters).
    bool obs;
    FleetObs fleet;                  // lent to the core
    std::uint64_t enqueued = 0;      // jobs that entered the backlog
    std::uint64_t backlog_peak = 0;  // deepest the backlog ever got
    LatencyHistogram cascade{CubeCounters::kCascadeMaxValue};
    // Bounded admission.
    Fifo<Waiting> backlog;  // the admission queue
    SimTime free_at = 0;    // arrival clock: next service may start
    std::uint64_t jobs_shed = 0;
    std::uint64_t jobs_rejected = 0;
    // Sampling (empty unless sample_stride > 0).
    Timeseries series;
  };

  Network network_;
  FleetCore core_;
  std::int64_t since_settle_ = 0;  // services since the last ring settle
  std::int64_t arrivals_ = 0;      // arrivals admitted to this cube
  LatencyHistogram latency_;
  std::unique_ptr<Side> side_;     // null when none of its users is on
};

// The header of a cube's block: what every cube keeps, whatever is on.
static_assert(sizeof(CubeServer) <= 456, "a cube header must stay <= 456 B");

// Everything one worker owns: the cubes assigned to it by the engine's
// slot (or corner-hash) routing, the transport it lends them and the log
// of their outcomes. Jobs are processed strictly in the order given.
class CubeShard {
 public:
  // `params` and `table` are borrowed from the engine (shared by all
  // shards, read-only during serving); `shard_index` / `shard_count`
  // define which table slots this shard owns (slot % shard_count ==
  // shard_index).
  CubeShard(const CubeParams& params, const CubeSlotTable* table,
            int shard_index, int shard_count);

  // Serves a routed job slice in order, creating cube servers on first
  // arrival. When `outcomes` is non-null, appends the JobOutcomes each
  // arrival materializes, in processing order. Runs on the shard's
  // worker thread; touches only shard state (and its own outcome
  // buffer).
  void process(const RoutedJob* jobs, std::size_t count,
               std::vector<JobOutcome>* outcomes = nullptr);

  // The server of the cube at `corner` (slot-resolved by the engine),
  // created on first contact; creation is deterministic per corner. The
  // engine routes failure injections through it between batches.
  CubeServer& server_for(const Point& corner, std::uint32_t slot);

  // Every failed and dropped index of this shard's cubes since
  // construction, each list sorted. A list is appended in processing
  // order, which ascends unless admission was bounded or the stream's
  // indices do not, so it is sorted (in place) only when out of order.
  const OutcomeLog& sorted_log();

  // Drains every cube's admission backlog (outcomes appended to
  // `outcomes` when non-null) and finalizes its metrics.
  void finish(std::vector<JobOutcome>* outcomes = nullptr);

  // Appends this shard's (corner, server) pairs so the engine can fold
  // all cubes in one globally corner-sorted pass (shard assignment varies
  // with thread count, so per-shard folds of double sums would not).
  void collect(std::vector<std::pair<Point, const CubeServer*>>& out) const;

 private:
  // Jobs the serve loop looks ahead, and the most bytes of a cube's
  // block it prefetches for each: the header and the first regions.
  static constexpr std::size_t kPrefetchAhead = 4;
  static constexpr std::size_t kPrefetchBytes = 1024;
  static constexpr std::size_t kCacheLine = 64;

  // Starts loading the block of the dense-tier cube `r` goes to, if it
  // exists, so a cold cube's state arrives while earlier jobs are served.
  void prefetch(const RoutedJob& r) const;

  const CubeParams& params_;     // borrowed from the engine
  const CubeSlotTable* table_;  // borrowed; may be empty
  int shard_index_;
  int shard_count_;
  // Lent to whichever cube is being served. Heap-held, so the servers'
  // references survive a move of the shard.
  std::unique_ptr<Transport> transport_;
  std::size_t prefetch_bytes_;  // of each block, at most kPrefetchBytes
  OutcomeLog log_;
  // Dense tier: this shard's table slots, at local index slot / count.
  std::vector<CubeServer::Ptr> slots_;
  // Overflow tier: cubes outside the table, keyed by corner.
  FlatMap<Point, CubeServer::Ptr, CornerHash> overflow_;
};

}  // namespace cmvrp
