#include "stream/shard.h"

#include <algorithm>
#include <cstddef>
#include <new>
#include <utility>

#include "util/check.h"
#include "util/hash.h"
#include "util/rng.h"

namespace cmvrp {

std::uint64_t cube_stream_seed(std::uint64_t engine_seed,
                               const Point& corner) {
  // mix64 fold over the seed and each coordinate (same chain CornerHash
  // uses, prefixed with the engine seed).
  std::uint64_t h = mix64(engine_seed);
  h = mix64(h ^ static_cast<std::uint64_t>(corner.dim()));
  for (int i = 0; i < corner.dim(); ++i)
    h = mix64(h ^ static_cast<std::uint64_t>(corner[i]));
  return h;
}

CubeServer::Side::Side(const OnlineConfig& config)
    : obs(config.obs.counters), series(config.sample_stride) {
  if (config.obs.spans)
    spans.emplace(config.obs.span_sample, config.obs.flight);
}

std::size_t CubeServer::header_bytes() {
  constexpr std::size_t align = alignof(std::max_align_t);
  static_assert(align % alignof(Vehicle) == 0);
  return (sizeof(CubeServer) + align - 1) / align * align;
}

CubeServer::Ptr CubeServer::create(const CubeParams& params,
                                   const Point& corner, Transport& transport) {
  void* block =
      ::operator new(header_bytes() + FleetCore::region_bytes(params));
  try {
    return Ptr(new (block) CubeServer(
        params, corner, transport,
        static_cast<std::byte*>(block) + header_bytes()));
  } catch (...) {
    ::operator delete(block);
    throw;
  }
}

void CubeServer::Deleter::operator()(CubeServer* server) const {
  server->~CubeServer();
  ::operator delete(static_cast<void*>(server));
}

CubeServer::CubeServer(const CubeParams& params, const Point& corner,
                       Transport& transport, void* regions)
    : network_(transport, Rng(cube_stream_seed(params.config.seed, corner))),
      core_(params, corner, network_, regions) {
  const OnlineConfig& config = params.config;
  core_.bind_network();
  if (!config.obs.counters && !config.obs.spans &&
      config.admission == AdmissionPolicy::kUnbounded &&
      config.sample_stride == 0)
    return;
  side_ = std::make_unique<Side>(config);
  if (side_->obs) core_.set_obs(&side_->fleet);
  if (side_->spans) {
    core_.set_spans(&*side_->spans);
    network_.set_spans(&*side_->spans);
  }
}

const Timeseries& CubeServer::series() const {
  static const Timeseries kNone(0);
  return side_ != nullptr ? side_->series : kNone;
}

void CubeServer::settle_if_due() {
  if (!core_.config().enable_monitoring) return;
  if (++since_settle_ < core_.config().monitor_stride) return;
  core_.settle();
  since_settle_ = 0;
}

void CubeServer::serve_now(const Job& job, SimTime queue_wait,
                           OutcomeLog& log, std::vector<JobOutcome>* out) {
  // Cascade attribution brackets exactly the serve + drain: the
  // replacements a deferred monitor settle completes below belong to
  // the ring, not to this job.
  const bool obs = side_ != nullptr && side_->obs;
  const std::uint64_t repl_before =
      obs ? core_.core_metrics().replacements : 0;
  const bool ok = core_.serve_job(job);
  network_.queue().run_to_quiescence();
  if (obs && ok)
    side_->cascade.add(static_cast<std::int64_t>(
        core_.core_metrics().replacements - repl_before));
  JobTiming timing = core_.last_timing();
  // The replacement cascade this job triggered (if any) has fully
  // drained: the cube clock now is the job's completion time.
  timing.done_at = network_.queue().now();
  // Close the serve span only after the drain, so the begin/end pair
  // brackets the job's whole cascade on the protocol clock.
  if (side_ != nullptr && side_->spans)
    side_->spans->serve_end(timing.done_at, job.index, ok);
  timing.queue_wait = queue_wait;
  settle_if_due();
  if (ok)
    latency_.add(timing.latency());
  else
    log.failed.push_back(job.index);
  if (out != nullptr)
    out->push_back(
        {job, corner(), ok ? OutcomeKind::kServed : OutcomeKind::kFailed,
         timing});
}

void CubeServer::drop(const Job& job, OutcomeKind kind, SimTime queue_wait,
                      OutcomeLog& log, std::vector<JobOutcome>* out) {
  log.dropped.push_back(job.index);
  ++(kind == OutcomeKind::kShed ? side_->jobs_shed : side_->jobs_rejected);
  if (out != nullptr) {
    JobTiming timing;
    timing.queue_wait = queue_wait;
    out->push_back({job, corner(), kind, timing});
  }
}

void CubeServer::drain_completed(SimTime now, OutcomeLog& log,
                                 std::vector<JobOutcome>* out) {
  const SimTime ticks = core_.config().service_ticks;
  Fifo<Waiting>& backlog = side_->backlog;
  while (!backlog.empty()) {
    // Shedding can promote a later arrival to the front of the queue, so
    // the front's service starts when the cube is free AND the job has
    // arrived — not at free_at alone (which may predate its enqueue).
    const SimTime start =
        std::max(side_->free_at, backlog.front().enqueued_at);
    if (start + ticks > now) break;
    const Waiting w = backlog.front();
    backlog.pop_front();
    serve_now(w.job, start - w.enqueued_at, log, out);
    side_->free_at = start + ticks;
  }
}

void CubeServer::sample_if_due() {
  // The due test gates the O(fleet) scan below.
  if (side_ == nullptr || !side_->series.due(arrivals_)) return;
  side_->series.record(arrivals_,
                       static_cast<std::int64_t>(side_->backlog.size()),
                       core_.exhausted_permille());
}

void CubeServer::serve(const Job& job, OutcomeLog& log,
                       std::vector<JobOutcome>* out) {
  const Network::Lend lend(network_);
  if (arrivals_ == 0 && core_.config().enable_monitoring) {
    // The fleet exists from t = 0 and heartbeats precede the first
    // arrival, so vehicles broken from the start are already replaced.
    core_.monitor_sweep();
    network_.queue().run_to_quiescence();
  }
  ++arrivals_;
  const OnlineConfig& cfg = core_.config();
  if (cfg.admission == AdmissionPolicy::kUnbounded) {
    // Historical path: serve the instant it lands, no queue state at all.
    serve_now(job, 0, log, out);
    sample_if_due();
    return;
  }
  // Bounded admission on the arrival-index clock. Everything below is a
  // pure function of this cube's arrival subsequence: materialize what
  // completed, then admit / queue / drop the newcomer.
  const SimTime t = job.index;
  drain_completed(t, log, out);
  Fifo<Waiting>& backlog = side_->backlog;
  if (backlog.empty() && side_->free_at <= t) {
    serve_now(job, 0, log, out);
    side_->free_at = t + cfg.service_ticks;
  } else if (static_cast<std::int64_t>(backlog.size()) < cfg.queue_limit) {
    backlog.push_back({job, t});
    note_enqueued();
  } else if (cfg.admission == AdmissionPolicy::kReject) {
    drop(job, OutcomeKind::kRejected, 0, log, out);
  } else {
    // kShed: the oldest waiting job makes room for the newest — it has
    // already waited t − enqueued_at for nothing.
    const Waiting oldest = backlog.front();
    backlog.pop_front();
    drop(oldest.job, OutcomeKind::kShed, t - oldest.enqueued_at, log, out);
    backlog.push_back({job, t});
    note_enqueued();
  }
  sample_if_due();
}

CubeCounters CubeServer::counters() const {
  CubeCounters c;
  // Network stats are read live, so a mid-run snapshot is current.
  const NetworkStats& net = network_.stats();
  c.msg_queries = net.queries;
  c.msg_replies = net.replies;
  c.msg_moves = net.moves;
  c.msg_heartbeats = net.heartbeats;
  c.msg_heartbeat_skips = net.heartbeat_skips;
  const CoreMetrics& m = core_.core_metrics();
  c.comps_started = m.computations_started;
  c.comps_finished = core_.obs_comps_finished();
  c.comps_failed = m.computations_failed;
  c.monitor_initiations = m.monitor_initiations;
  c.replacements = m.replacements;
  c.max_queries_per_comp = core_.obs_max_queries_per_comp();
  c.arrivals = static_cast<std::uint64_t>(arrivals_);
  // Every served (failed) arrival is one jobs_served (jobs_failed).
  c.served = m.jobs_served;
  c.failed = m.jobs_failed;
  if (side_ == nullptr) return c;
  c.enqueued = side_->enqueued;
  c.shed = side_->jobs_shed;
  c.rejected = side_->jobs_rejected;
  c.backlog_peak = side_->backlog_peak;
  if (side_->spans) {
    const SpanTotals& t = side_->spans->totals();
    c.spans_emitted = t.emitted;
    c.spans_sampled_out = t.sampled_out;
    c.spans_ring_evicted = t.ring_evicted;
  }
  c.cascade = side_->cascade;
  return c;
}

void CubeServer::finish(OutcomeLog& log, std::vector<JobOutcome>* out) {
  const Network::Lend lend(network_);
  // End of stream: whatever still waits gets served back to back (the
  // paper's arrivals have stopped, so the cube works the queue off).
  while (side_ != nullptr && !side_->backlog.empty()) {
    const Waiting w = side_->backlog.front();
    side_->backlog.pop_front();
    const SimTime start = std::max(side_->free_at, w.enqueued_at);
    serve_now(w.job, start - w.enqueued_at, log, out);
    side_->free_at = start + core_.config().service_ticks;
  }
  // Catch-up settle: a stride > 1 may have deferred the detection of a
  // trailing failure past the last arrival.
  if (core_.config().enable_monitoring && since_settle_ > 0) {
    core_.settle();
    since_settle_ = 0;
  }
  core_.finalize_metrics();
}

CubeShard::CubeShard(const CubeParams& params, const CubeSlotTable* table,
                     int shard_index, int shard_count)
    : params_(params),
      table_(table),
      shard_index_(shard_index),
      shard_count_(shard_count),
      transport_(std::make_unique<Transport>(
          params.config.max_message_delay)),
      prefetch_bytes_(std::min(CubeServer::header_bytes() +
                                   FleetCore::region_bytes(params),
                               kPrefetchBytes)) {
  CMVRP_CHECK(shard_count >= 1 && shard_index >= 0 &&
              shard_index < shard_count);
  if (table_ != nullptr && !table_->empty()) {
    // Local capacity: slots congruent to shard_index mod shard_count.
    const std::uint64_t local =
        (table_->size() + static_cast<std::uint64_t>(shard_count) - 1 -
         static_cast<std::uint64_t>(shard_index)) /
        static_cast<std::uint64_t>(shard_count);
    slots_.resize(static_cast<std::size_t>(local));
  }
}

CubeServer& CubeShard::server_for(const Point& corner, std::uint32_t slot) {
  if (slot != CubeSlotTable::kNoSlot) {
    const auto local = static_cast<std::size_t>(
        slot / static_cast<std::uint32_t>(shard_count_));
    auto& server = slots_[local];
    if (server == nullptr) {
      server = CubeServer::create(params_, corner, *transport_);
      ++materialized_;
    }
    return *server;
  }
  auto& server = overflow_[corner];
  if (server == nullptr) {
    server = CubeServer::create(params_, corner, *transport_);
    ++materialized_;
  }
  return *server;
}

void CubeShard::prefetch(const RoutedJob& r) const {
  if (r.slot == CubeSlotTable::kNoSlot) return;
  const CubeServer* server =
      slots_[r.slot / static_cast<std::uint32_t>(shard_count_)].get();
  if (server == nullptr) return;
  const auto* block = reinterpret_cast<const char*>(server);
  for (std::size_t at = 0; at < prefetch_bytes_; at += kCacheLine)
    __builtin_prefetch(block + at);
}

void CubeShard::process(const RoutedJob* jobs, std::size_t count,
                        std::vector<JobOutcome>* outcomes) {
  for (std::size_t i = 0; i < count; ++i) {
    if (i + kPrefetchAhead < count) prefetch(jobs[i + kPrefetchAhead]);
    const RoutedJob& r = jobs[i];
    server_for(r.corner, r.slot).serve(r.job, log_, outcomes);
    ++jobs_processed_;
  }
}

void CubeShard::finish(std::vector<JobOutcome>* outcomes) {
  for (auto& server : slots_)
    if (server != nullptr) server->finish(log_, outcomes);
  for (auto& [corner, server] : overflow_) server->finish(log_, outcomes);
}

const OutcomeLog& CubeShard::sorted_log() {
  for (auto* run : {&log_.failed, &log_.dropped})
    if (!std::is_sorted(run->begin(), run->end()))
      std::sort(run->begin(), run->end());
  return log_;
}

void CubeShard::collect(
    std::vector<std::pair<Point, const CubeServer*>>& out) const {
  for (const auto& server : slots_)
    if (server != nullptr) out.emplace_back(server->corner(), server.get());
  for (const auto& [corner, server] : overflow_)
    out.emplace_back(corner, server.get());
}

}  // namespace cmvrp
