#include "stream/shard.h"

#include <algorithm>
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

CubeServer::CubeServer(const CubeParams& params, const Point& corner,
                       Transport& transport)
    : network_(transport, Rng(cube_stream_seed(params.config.seed, corner))),
      core_(params, corner, network_),
      series_(params.config.sample_stride),
      obs_(params.config.obs.counters) {
  const OnlineConfig& config = params.config;
  core_.bind_network();
  if (config.obs.spans) {
    spans_rec_ = std::make_unique<SpanRecorder>(config.obs.span_sample,
                                                config.obs.flight);
    core_.set_spans(spans_rec_.get());
    network_.set_spans(spans_rec_.get());
  }
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
  const std::uint64_t repl_before = obs_ ? core_.metrics().replacements : 0;
  const bool ok = core_.serve_job(job);
  network_.queue().run_to_quiescence();
  if (obs_ && ok)
    cascade_.add(
        static_cast<std::int64_t>(core_.metrics().replacements - repl_before));
  JobTiming timing = core_.last_timing();
  // The replacement cascade this job triggered (if any) has fully
  // drained: the cube clock now is the job's completion time.
  timing.done_at = network_.queue().now();
  // Close the serve span only after the drain, so the begin/end pair
  // brackets the job's whole cascade on the protocol clock.
  if (spans_rec_ != nullptr)
    spans_rec_->serve_end(timing.done_at, job.index, ok);
  timing.queue_wait = queue_wait;
  settle_if_due();
  (ok ? log.served : log.failed).push_back(job.index);
  if (ok) latency_.add(timing.latency());
  if (out != nullptr)
    out->push_back(
        {job, corner(), ok ? OutcomeKind::kServed : OutcomeKind::kFailed,
         timing});
}

void CubeServer::drop(const Job& job, OutcomeKind kind, SimTime queue_wait,
                      OutcomeLog& log, std::vector<JobOutcome>* out) {
  log.dropped.push_back(job.index);
  ++(kind == OutcomeKind::kShed ? jobs_shed_ : jobs_rejected_);
  if (out != nullptr) {
    JobTiming timing;
    timing.queue_wait = queue_wait;
    out->push_back({job, corner(), kind, timing});
  }
}

void CubeServer::drain_completed(SimTime now, OutcomeLog& log,
                                 std::vector<JobOutcome>* out) {
  const SimTime ticks = core_.config().service_ticks;
  while (!backlog_.empty()) {
    // Shedding can promote a later arrival to the front of the queue, so
    // the front's service starts when the cube is free AND the job has
    // arrived — not at free_at_ alone (which may predate its enqueue).
    const SimTime start = std::max(free_at_, backlog_.front().enqueued_at);
    if (start + ticks > now) break;
    const Waiting w = backlog_.front();
    backlog_.pop_front();
    serve_now(w.job, start - w.enqueued_at, log, out);
    free_at_ = start + ticks;
  }
}

void CubeServer::sample_if_due() {
  if (!series_.due(arrivals_)) return;  // gates the O(fleet) scan below
  series_.record(arrivals_, static_cast<std::int64_t>(backlog_.size()),
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
  if (backlog_.empty() && free_at_ <= t) {
    serve_now(job, 0, log, out);
    free_at_ = t + cfg.service_ticks;
  } else if (static_cast<std::int64_t>(backlog_.size()) < cfg.queue_limit) {
    backlog_.push_back({job, t});
    note_enqueued();
  } else if (cfg.admission == AdmissionPolicy::kReject) {
    drop(job, OutcomeKind::kRejected, 0, log, out);
  } else {
    // kShed: the oldest waiting job makes room for the newest — it has
    // already waited t − enqueued_at for nothing.
    const Waiting oldest = backlog_.front();
    backlog_.pop_front();
    drop(oldest.job, OutcomeKind::kShed, t - oldest.enqueued_at, log, out);
    backlog_.push_back({job, t});
    note_enqueued();
  }
  sample_if_due();
}

CubeCounters CubeServer::counters() const {
  CubeCounters c;
  // Network stats are read live (finalize_metrics only copies them into
  // OnlineMetrics at finish), so a mid-run snapshot is current.
  const NetworkStats& net = network_.stats();
  c.msg_queries = net.queries;
  c.msg_replies = net.replies;
  c.msg_moves = net.moves;
  c.msg_heartbeats = net.heartbeats;
  c.msg_heartbeat_skips = net.heartbeat_skips;
  const OnlineMetrics& m = core_.metrics();
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
  c.enqueued = enqueued_;
  c.shed = jobs_shed_;
  c.rejected = jobs_rejected_;
  c.backlog_peak = backlog_peak_;
  if (spans_rec_ != nullptr) {
    const SpanTotals& t = spans_rec_->totals();
    c.spans_emitted = t.emitted;
    c.spans_sampled_out = t.sampled_out;
    c.spans_ring_evicted = t.ring_evicted;
  }
  c.cascade = cascade_;
  return c;
}

void CubeServer::finish(OutcomeLog& log, std::vector<JobOutcome>* out) {
  const Network::Lend lend(network_);
  // End of stream: whatever still waits gets served back to back (the
  // paper's arrivals have stopped, so the cube works the queue off).
  while (!backlog_.empty()) {
    const Waiting w = backlog_.front();
    backlog_.pop_front();
    const SimTime start = std::max(free_at_, w.enqueued_at);
    serve_now(w.job, start - w.enqueued_at, log, out);
    free_at_ = start + core_.config().service_ticks;
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
          params.config.max_message_delay)) {
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
      server = std::make_unique<CubeServer>(params_, corner, *transport_);
      ++materialized_;
    }
    return *server;
  }
  auto& server = overflow_[corner];
  if (server == nullptr) {
    server = std::make_unique<CubeServer>(params_, corner, *transport_);
    ++materialized_;
  }
  return *server;
}

void CubeShard::process(const RoutedJob* jobs, std::size_t count,
                        std::vector<JobOutcome>* outcomes) {
  for (std::size_t i = 0; i < count; ++i) {
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
  for (auto* run : {&log_.served, &log_.failed, &log_.dropped})
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
