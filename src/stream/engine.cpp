#include "stream/engine.h"

#include <algorithm>
#include <utility>

#include "grid/corner_hash.h"
#include "util/check.h"
#include "util/timer.h"

namespace cmvrp {
namespace {

// Below this many jobs per worker, the scatter/fold bookkeeping of the
// parallel routing pass costs more than the floor-divides it spreads out.
constexpr std::size_t kMinJobsPerRouteWorker = 64;

}  // namespace

StreamEngine::StreamEngine(int dim, const StreamConfig& config)
    : dim_(dim),
      config_(config),
      pairing_(dim, config.online.anchor, config.online.cube_side),
      table_(CubeSlotTable::build(dim, config.online.anchor,
                                  config.online.cube_side, config.region)),
      pool_(config.threads) {
  CMVRP_CHECK_MSG(config.threads >= 1, "stream engine needs >= 1 thread");
  CMVRP_CHECK_MSG(config.batch_size >= 1, "batch size must be >= 1");
  const auto shard_count = static_cast<std::size_t>(pool_.size());
  shards_.reserve(shard_count);
  for (int s = 0; s < pool_.size(); ++s)
    shards_.emplace_back(dim_, config_.online, &table_, s, pool_.size());
  routed_.resize(shard_count);
  scatter_.resize(shard_count);
  for (auto& per_thread : scatter_) per_thread.resize(shard_count);
  outcomes_.resize(shard_count);
}

void StreamEngine::set_observer(StreamObserver* observer) {
  observer_ = observer;
}

void StreamEngine::set_snapshotter(StatsSnapshotter* snapshotter) {
  snapshotter_ = snapshotter;
  if (snapshotter_ != nullptr)
    snapshotter_->write_header(dim_, pool_.size(), config_.batch_size,
                               config_.online.seed,
                               config_.online.obs.counters);
}

CubeCounters StreamEngine::fold_counters() const {
  // Counter merges are commutative (sums / maxes / histogram bucket
  // sums), so the unsorted shard walk folds to the same value the
  // ascending-corner pass would.
  CubeCounters totals;
  std::vector<std::pair<Point, const CubeServer*>> cubes;
  for (const auto& shard : shards_) shard.collect(cubes);
  for (const auto& [corner, server] : cubes)
    totals.merge(server->counters());
  return totals;
}

void StreamEngine::ingest(const std::vector<Job>& jobs) {
  ingest(jobs.data(), jobs.size());
}

void StreamEngine::ingest(const Job* jobs, std::size_t count) {
  const auto batch = static_cast<std::size_t>(config_.batch_size);
  for (std::size_t off = 0; off < count; off += batch)
    run_batch(jobs + off, std::min(batch, count - off));
}

std::size_t StreamEngine::route_of(const Point& position, Point* corner,
                                   std::uint32_t* slot) const {
  const auto shard_count = static_cast<std::size_t>(pool_.size());
  if (!table_.empty()) {
    *slot = table_.slot_of_position(position, corner);
    if (*slot != CubeSlotTable::kNoSlot)
      return static_cast<std::size_t>(*slot) % shard_count;
  } else {
    *slot = CubeSlotTable::kNoSlot;
    *corner = pairing_.cube_corner(position);
  }
  return CornerHash{}(*corner) % shard_count;
}

CubeServer& StreamEngine::server_of(const Point& home) {
  CMVRP_CHECK_MSG(home.dim() == dim_,
                  "injection home dim " << home.dim()
                                        << " does not match engine dim "
                                        << dim_);
  Point corner = home;
  std::uint32_t slot = CubeSlotTable::kNoSlot;
  const std::size_t shard = route_of(home, &corner, &slot);
  return shards_[shard].server_for(corner, slot);
}

void StreamEngine::inject_silent_done(const Point& home) {
  server_of(home).inject_silent_done(home);
  if (observer_ != nullptr) observer_->on_inject(home);
}

void StreamEngine::inject_break_after(const Point& home, double longevity) {
  server_of(home).inject_break_after(home, longevity);
}

void StreamEngine::run_batch(const Job* jobs, std::size_t count) {
  if (count == 0) return;
  WallTimer ingest_timer;
  const auto shard_count = static_cast<std::size_t>(pool_.size());
  WallTimer route_timer;
  for (auto& r : routed_) r.clear();
  if (shard_count > 1 && count >= kMinJobsPerRouteWorker * shard_count) {
    // Parallel scatter: worker t resolves the contiguous chunk
    // [t·chunk, …) into its own per-shard buffers; a second pass folds
    // the chunks per shard in ascending t — the concatenation is exactly
    // the order the serial loop would have produced, so the serve pass
    // (and with it every outcome) cannot tell the difference.
    const std::size_t chunk = (count + shard_count - 1) / shard_count;
    pool_.run([this, jobs, count, chunk](int w) {
      const auto t = static_cast<std::size_t>(w);
      auto& mine = scatter_[t];
      for (auto& bucket : mine) bucket.clear();
      const std::size_t begin = std::min(t * chunk, count);
      const std::size_t end = std::min(begin + chunk, count);
      for (std::size_t i = begin; i < end; ++i) {
        CMVRP_CHECK(jobs[i].position.dim() == dim_);
        RoutedJob r;
        r.job = jobs[i];
        const std::size_t shard =
            route_of(jobs[i].position, &r.corner, &r.slot);
        mine[shard].push_back(std::move(r));
      }
    });
    pool_.run([this](int w) {
      const auto s = static_cast<std::size_t>(w);
      auto& out = routed_[s];
      for (auto& per_thread : scatter_) {
        out.insert(out.end(),
                   std::make_move_iterator(per_thread[s].begin()),
                   std::make_move_iterator(per_thread[s].end()));
      }
    });
    ++routed_parallel_batches_;
  } else {
    for (std::size_t i = 0; i < count; ++i) {
      CMVRP_CHECK(jobs[i].position.dim() == dim_);
      RoutedJob r;
      r.job = jobs[i];
      const std::size_t shard = route_of(jobs[i].position, &r.corner, &r.slot);
      routed_[shard].push_back(std::move(r));
    }
    ++routed_serial_batches_;
  }
  stages_.route_ms += route_timer.elapsed_ms();

  // Fork/join barrier: every arrival of this batch is fully served (queue
  // drained, monitoring settled) before the next batch is admitted —
  // the stream-scale reading of the paper's long inter-arrival gaps.
  const bool observing = observer_ != nullptr;
  WallTimer serve_timer;
  pool_.run([this, observing](int w) {
    const auto s = static_cast<std::size_t>(w);
    shards_[s].process(routed_[s].data(), routed_[s].size(),
                       observing ? &outcomes_[s] : nullptr);
  });
  stages_.serve_ms += serve_timer.elapsed_ms();
  if (observing) {
    WallTimer fold_timer;
    flush_outcomes();
    stages_.fold_ms += fold_timer.elapsed_ms();
  }
  jobs_ingested_ += count;
  ++batches_;
  stages_.ingest_ms += ingest_timer.elapsed_ms();
  if (snapshotter_ != nullptr && snapshotter_->due(batches_))
    snapshotter_->write_sample(batches_, jobs_ingested_, fold_counters(),
                               stages_);
}

void StreamEngine::flush_outcomes() {
  if (observer_ == nullptr) return;
  // Fold the shards' per-thread buffers into ascending arrival-index
  // order — within one batch indices are unique, so the sort restores
  // the exact ingest order regardless of shard assignment. (Under a
  // bounded admission policy a batch's buffer holds whatever outcomes it
  // *materialized* — queued jobs surface later than they were ingested —
  // but the materialization schedule is per-cube deterministic, so the
  // folded sequence still cannot depend on thread count.)
  outcome_fold_.clear();
  for (auto& shard_outcomes : outcomes_) {
    outcome_fold_.insert(outcome_fold_.end(), shard_outcomes.begin(),
                         shard_outcomes.end());
    shard_outcomes.clear();
  }
  if (outcome_fold_.empty()) return;
  // Total order (index, position, kind): indices are unique within a
  // batch for ordinary streams, but even degenerate inputs with
  // duplicate indices must fold — and hit the disk — deterministically
  // at every thread count.
  std::sort(outcome_fold_.begin(), outcome_fold_.end(),
            [](const JobOutcome& a, const JobOutcome& b) {
              if (a.job.index != b.job.index) return a.job.index < b.job.index;
              if (!(a.job.position == b.job.position))
                return a.job.position < b.job.position;
              return a.kind < b.kind;
            });
  observer_->on_batch(outcome_fold_.data(), outcome_fold_.size());
}

StreamResult StreamEngine::finish() {
  // Backlog drain runs on the ingest thread: end-of-stream work is tiny
  // (at most queue_limit jobs per cube) and a serial walk keeps the
  // trailing observer batch in deterministic shard-then-cube order.
  const bool observing = observer_ != nullptr;
  WallTimer monitor_timer;
  for (std::size_t s = 0; s < shards_.size(); ++s)
    shards_[s].finish(observing ? &outcomes_[s] : nullptr);
  if (observing) flush_outcomes();

  std::vector<std::pair<Point, const CubeServer*>> cubes;
  for (const auto& shard : shards_) shard.collect(cubes);
  std::sort(cubes.begin(), cubes.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });

  StreamResult result;
  result.jobs_ingested = jobs_ingested_;
  result.batches = batches_;
  result.cubes = cubes.size();
  result.cube_slots = table_.size();
  result.routed_parallel_batches = routed_parallel_batches_;
  result.routed_serial_batches = routed_serial_batches_;
  for (const auto& [corner, server] : cubes) {
    result.metrics.merge(server->metrics());
    result.served_jobs.insert(result.served_jobs.end(),
                              server->served_indices().begin(),
                              server->served_indices().end());
    result.failed_jobs.insert(result.failed_jobs.end(),
                              server->failed_indices().begin(),
                              server->failed_indices().end());
    result.shed_jobs.insert(result.shed_jobs.end(),
                            server->dropped_indices().begin(),
                            server->dropped_indices().end());
    result.jobs_shed += server->jobs_shed();
    result.jobs_rejected += server->jobs_rejected();
    result.latency.merge(server->latency());
    result.timeseries.fold(CornerHash{}(corner), server->series());
    result.counters.merge(server->counters());
    if (snapshotter_ != nullptr)
      snapshotter_->write_cube(corner, server->counters(),
                               server->latency());
  }
  std::sort(result.served_jobs.begin(), result.served_jobs.end());
  std::sort(result.failed_jobs.begin(), result.failed_jobs.end());
  std::sort(result.shed_jobs.begin(), result.shed_jobs.end());
  stages_.monitor_ms += monitor_timer.elapsed_ms();
  result.stages = stages_;
  if (snapshotter_ != nullptr)
    snapshotter_->write_final(jobs_ingested_, result.cubes, result.counters,
                              result.stages);
  return result;
}

std::vector<std::pair<Point, OnlineMetrics>> StreamEngine::per_cube_metrics()
    const {
  std::vector<std::pair<Point, const CubeServer*>> cubes;
  for (const auto& shard : shards_) shard.collect(cubes);
  std::sort(cubes.begin(), cubes.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  std::vector<std::pair<Point, OnlineMetrics>> out;
  out.reserve(cubes.size());
  for (const auto& [corner, server] : cubes)
    out.emplace_back(corner, server->metrics());
  return out;
}

std::vector<CubeSpanSource> StreamEngine::span_sources() const {
  std::vector<std::pair<Point, const CubeServer*>> cubes;
  for (const auto& shard : shards_) shard.collect(cubes);
  std::sort(cubes.begin(), cubes.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  std::vector<CubeSpanSource> out;
  out.reserve(cubes.size());
  std::uint64_t ordinal = 0;
  for (const auto& [corner, server] : cubes) {
    const std::uint64_t fallback = kSpanUnslottedPidBase + ordinal++;
    if (server->spans() == nullptr) continue;
    const std::uint32_t slot = table_.slot_of_position(corner, nullptr);
    CubeSpanSource src;
    src.corner = corner;
    src.pid = slot != CubeSlotTable::kNoSlot ? slot : fallback;
    src.recorder = server->spans();
    out.push_back(src);
  }
  return out;
}

StreamResult serve_stream(int dim, const StreamConfig& config,
                          const std::vector<Job>& jobs) {
  StreamEngine engine(dim, config);
  engine.ingest(jobs);
  return engine.finish();
}

}  // namespace cmvrp
