// Recorder + multiplexer subsystem: the cmvrp-trace-v2 event layout
// (golden bytes), v1 -> v2 reader compatibility, engine-side outcome
// recording (audit trail bit-identical to the in-memory digests at every
// thread count), deterministic k-way multi-trace replay (TraceMux vs the
// in-memory merge_streams reference, across threads / batch sizes /
// source orderings), silent-done failure-injection replay, and the
// amortized monitoring stride.
#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "obs/span_export.h"
#include "online/pairing.h"
#include "record/mux.h"
#include "record/recorder.h"
#include "stream/engine.h"
#include "trace/format.h"
#include "trace/reader.h"
#include "trace/replay.h"
#include "trace/writer.h"
#include "util/check.h"
#include "util/digest.h"
#include "util/rng.h"
#include "workload/generators.h"
#include "workload/stream_gen.h"

#include "stream_checks.h"

namespace cmvrp {
namespace {

std::string temp_path(const std::string& name) {
  return testing::TempDir() + "cmvrp_record_" + name;
}

std::vector<unsigned char> read_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  return std::vector<unsigned char>(std::istreambuf_iterator<char>(in),
                                    std::istreambuf_iterator<char>());
}

void write_bytes(const std::string& path,
                 const std::vector<unsigned char>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(out.good()) << path;
}

StreamConfig stream_config(int dim, int threads, std::int64_t batch = 256,
                           double capacity = 24.0,
                           std::int64_t stride = 1) {
  StreamConfig cfg;
  cfg.online.capacity = capacity;
  cfg.online.cube_side = 4;
  cfg.online.anchor = Point::origin(dim);
  cfg.online.seed = 7;
  cfg.online.monitor_stride = stride;
  cfg.threads = threads;
  cfg.batch_size = batch;
  return cfg;
}

// --- golden bytes: the v2 event layout is pinned ----------------------------

TEST(TraceV2Format, GoldenBytes) {
  const std::string path = temp_path("golden_v2.trace");
  {
    TraceWriter writer(path, 2, kTraceVersionV2);
    writer.append(Job{Point{3, -1}, 0});  // arrivals encode through append
    writer.append_event(silent_done_event(Point{4, 5}));
    writer.append_event(outcome_event(Job{Point{260, 7}, 1}, /*served=*/true,
                                      Point{4, 4}));
    writer.close();
    EXPECT_EQ(writer.flags(), kTraceFlagFailureEvents | kTraceFlagOutcomes);
  }
  const std::vector<unsigned char> expected = {
      // header: magic, version=2, dim=2, count=3, flags=0x3
      'c', 'm', 'v', 'r', 'p', 't', 'r', 'c',        // magic
      2, 0, 0, 0,                                    // version
      2, 0, 0, 0,                                    // dim
      3, 0, 0, 0, 0, 0, 0, 0,                        // record count
      3, 0, 0, 0, 0, 0, 0, 0,                        // flags (both bits)
      // record 0: arrival (3, -1), index 0
      0, 0, 0, 0,                                    // kind = arrival
      0, 0, 0, 0,                                    // aux = 0
      3, 0, 0, 0, 0, 0, 0, 0,                        // x = 3
      0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff,  // y = -1
      0, 0, 0, 0, 0, 0, 0, 0,                        // index = 0
      0, 0, 0, 0, 0, 0, 0, 0,                        // corner x = 0
      0, 0, 0, 0, 0, 0, 0, 0,                        // corner y = 0
      // record 1: silent-done at home (4, 5)
      1, 0, 0, 0,                                    // kind = silent-done
      0, 0, 0, 0,                                    // aux = 0
      4, 0, 0, 0, 0, 0, 0, 0,                        // home x = 4
      5, 0, 0, 0, 0, 0, 0, 0,                        // home y = 5
      0, 0, 0, 0, 0, 0, 0, 0,                        // index = 0
      0, 0, 0, 0, 0, 0, 0, 0,                        // corner x = 0
      0, 0, 0, 0, 0, 0, 0, 0,                        // corner y = 0
      // record 2: outcome of (260, 7) index 1, served, corner (4, 4)
      2, 0, 0, 0,                                    // kind = outcome
      1, 0, 0, 0,                                    // aux = served
      4, 1, 0, 0, 0, 0, 0, 0,                        // x = 260 = 0x104
      7, 0, 0, 0, 0, 0, 0, 0,                        // y = 7
      1, 0, 0, 0, 0, 0, 0, 0,                        // index = 1
      4, 0, 0, 0, 0, 0, 0, 0,                        // corner x = 4
      4, 0, 0, 0, 0, 0, 0, 0,                        // corner y = 4
  };
  EXPECT_EQ(read_bytes(path), expected);
}

TEST(TraceV2Format, RecordSizeTracksDimAndVersion) {
  EXPECT_EQ(trace_record_size(1, 2), 32u);
  EXPECT_EQ(trace_record_size(2, 2), 48u);
  EXPECT_EQ(trace_record_size(3, 2), 64u);
  EXPECT_EQ(trace_record_size(4, 2), 80u);
  // v1 sizes are unchanged by the v2 extension.
  EXPECT_EQ(trace_record_size(2), 24u);
  EXPECT_EQ(trace_record_size(2, 1), 24u);
  EXPECT_EQ(trace_record_size(4, 1), 40u);
}

// --- v1 -> v2 reader compatibility ------------------------------------------

TEST(TraceV2Compat, V1GoldenBytesStillDecode) {
  // The exact v1 golden bytes pinned by trace_test — the upgraded reader
  // must decode legacy traces unchanged, and surface them as events.
  const std::vector<unsigned char> v1_bytes = {
      'c', 'm', 'v', 'r', 'p', 't', 'r', 'c',        // magic
      1, 0, 0, 0,                                    // version
      2, 0, 0, 0,                                    // dim
      2, 0, 0, 0, 0, 0, 0, 0,                        // job_count
      0, 0, 0, 0, 0, 0, 0, 0,                        // flags
      3, 0, 0, 0, 0, 0, 0, 0,                        // x = 3
      0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff,  // y = -1
      0, 0, 0, 0, 0, 0, 0, 0,                        // index = 0
      4, 1, 0, 0, 0, 0, 0, 0,                        // x = 260
      7, 0, 0, 0, 0, 0, 0, 0,                        // y = 7
      1, 0, 0, 0, 0, 0, 0, 0,                        // index = 1
  };
  const std::string path = temp_path("golden_v1.trace");
  write_bytes(path, v1_bytes);

  TraceReader reader(path);
  EXPECT_EQ(reader.version(), kTraceVersion);
  EXPECT_FALSE(reader.has_failure_events());
  EXPECT_FALSE(reader.has_outcomes());
  const auto jobs = reader.read_all();
  ASSERT_EQ(jobs.size(), 2u);
  EXPECT_EQ(jobs[0].position, (Point{3, -1}));
  EXPECT_EQ(jobs[1].position, (Point{260, 7}));
  EXPECT_EQ(jobs[1].index, 1);

  // The events view of a v1 trace: every record is an arrival.
  reader.reset();
  TraceEvent events[4];
  ASSERT_EQ(reader.next_events(events, 4), 2u);
  EXPECT_EQ(events[0].kind, TraceEventKind::kArrival);
  EXPECT_EQ(events[1].kind, TraceEventKind::kArrival);
  EXPECT_EQ(events[1].job.position, (Point{260, 7}));
}

TEST(TraceV2Compat, EventRoundTripAllDimensions) {
  for (const int dim : {1, 2, 3, 4}) {
    const std::string path =
        temp_path("events" + std::to_string(dim) + ".trace");
    Rng rng(static_cast<std::uint64_t>(dim) * 13 + 5);
    std::vector<TraceEvent> events;
    for (std::int64_t k = 0; k < 97; ++k) {
      Point p = Point::origin(dim);
      for (int i = 0; i < dim; ++i) p[i] = rng.next_int(-500, 500);
      switch (k % 3) {
        case 0:
          events.push_back(arrival_event(Job{p, k}));
          break;
        case 1:
          events.push_back(silent_done_event(p));
          break;
        default: {
          Point c = Point::origin(dim);
          for (int i = 0; i < dim; ++i) c[i] = rng.next_int(-8, 8) * 4;
          events.push_back(outcome_event(Job{p, k}, k % 2 == 0, c));
          break;
        }
      }
    }
    {
      TraceWriter writer(path, dim, kTraceVersionV2);
      for (const auto& e : events) writer.append_event(e);
      writer.close();
    }
    TraceReader reader(path);
    EXPECT_EQ(reader.version(), kTraceVersionV2);
    EXPECT_TRUE(reader.has_failure_events());
    EXPECT_TRUE(reader.has_outcomes());
    std::vector<TraceEvent> back(events.size());
    ASSERT_EQ(reader.next_events(back.data(), back.size()), events.size());
    for (std::size_t i = 0; i < events.size(); ++i) {
      EXPECT_EQ(back[i].kind, events[i].kind) << i;
      EXPECT_EQ(back[i].served, events[i].served) << i;
      EXPECT_EQ(back[i].job.position, events[i].job.position) << i;
      EXPECT_EQ(back[i].job.index, events[i].job.index) << i;
      EXPECT_EQ(back[i].corner, events[i].corner) << i;
    }
  }
}

TEST(TraceV2Compat, WriterRejectsNonArrivalEventsInV1) {
  const std::string path = temp_path("v1_reject.trace");
  TraceWriter writer(path, 2);  // default: v1
  writer.append_event(arrival_event(Job{Point{1, 1}, 0}));  // fine
  EXPECT_THROW(writer.append_event(silent_done_event(Point{0, 0})),
               check_error);
  EXPECT_THROW(writer.append_event(
                   outcome_event(Job{Point{1, 1}, 0}, true, Point{0, 0})),
               check_error);
  writer.close();
  TraceReader reader(path);
  EXPECT_EQ(reader.job_count(), 1u);
}

// --- corrupt v2 input diagnostics -------------------------------------------

std::vector<unsigned char> valid_v2_bytes() {
  const std::string path = temp_path("template_v2.trace");
  TraceWriter writer(path, 2, kTraceVersionV2);
  writer.append(Job{Point{1, 2}, 0});
  writer.append(Job{Point{3, 4}, 1});
  writer.close();
  return read_bytes(path);
}

void expect_open_error(const std::string& path,
                       const std::vector<std::string>& fragments) {
  try {
    TraceReader reader(path);
    FAIL() << "expected check_error for " << path;
  } catch (const check_error& e) {
    const std::string what = e.what();
    for (const auto& fragment : fragments)
      EXPECT_NE(what.find(fragment), std::string::npos)
          << "missing \"" << fragment << "\" in: " << what;
  }
}

TEST(TraceV2Errors, UnknownFlagBitRejected) {
  auto bytes = valid_v2_bytes();
  store_le64(bytes.data() + kTraceFlagsOffset, 0x8);  // undefined bit
  const std::string path = temp_path("v2_flags.trace");
  write_bytes(path, bytes);
  expect_open_error(path, {"flags", "byte offset 24"});
}

TEST(TraceV2Errors, UnknownEventKindRejectedWithOffset) {
  auto bytes = valid_v2_bytes();
  // Corrupt record 1's kind word (records start at 32, size 48).
  store_le32(bytes.data() + kTraceHeaderSize + trace_record_size(2, 2), 9);
  const std::string path = temp_path("v2_kind.trace");
  write_bytes(path, bytes);
  // Kind validation is lazy (open must not touch every page of a huge
  // trace); the corrupt record throws on first decode, with its offset.
  TraceReader reader(path);
  EXPECT_EQ(reader.job_count(), 2u);
  try {
    reader.read_all();
    FAIL() << "expected check_error decoding a corrupt kind word";
  } catch (const check_error& e) {
    const std::string what = e.what();
    for (const char* fragment : {"event kind 9", "record 1", "byte offset 80"})
      EXPECT_NE(what.find(fragment), std::string::npos)
          << "missing \"" << fragment << "\" in: " << what;
  }
}

TEST(TraceV2Errors, TruncatedV2RecordRejected) {
  auto bytes = valid_v2_bytes();
  bytes.resize(bytes.size() - 7);
  const std::string path = temp_path("v2_torn.trace");
  write_bytes(path, bytes);
  expect_open_error(path, {"truncated", "record 1"});
}

// --- outcome recording: the audit-trail contract ----------------------------

std::vector<Job> hotspot_jobs(std::int64_t count) {
  Rng rng(611);
  return collect_jobs([&rng, count](const JobSink& sink) {
    bursty_hotspot_stream(2, 4, 8, count, 64, rng, sink);
  });
}

TEST(OutcomeRecorder, DigestsMatchInMemoryResultAcrossThreadCounts) {
  const auto jobs = hotspot_jobs(2000);
  // Capacity low enough that some bursts drain their cube's idle pool,
  // so the failed-set digest is exercised too.
  const StreamConfig base = stream_config(2, 1, 256, 12.0);
  const StreamResult reference = serve_stream(2, base, jobs);
  ASSERT_GT(reference.metrics.jobs_failed, 0u);  // both digests exercised
  const std::uint64_t served_ref = index_set_digest(reference.served_jobs);
  const std::uint64_t failed_ref = index_set_digest(reference.failed_jobs);

  for (const int threads : {1, 2, 8}) {
    const std::string path =
        temp_path("audit" + std::to_string(threads) + ".trace");
    StreamEngine engine(2, stream_config(2, threads, 256, 12.0));
    OutcomeRecorder recorder(path, 2);
    engine.set_observer(&recorder);
    engine.ingest(jobs);
    const StreamResult r = engine.finish();
    recorder.close();

    expect_identical(reference, r);
    EXPECT_EQ(recorder.recorded(), jobs.size());
    EXPECT_EQ(recorder.served_count(), reference.metrics.jobs_served);
    EXPECT_EQ(recorder.failed_count(), reference.metrics.jobs_failed);
    EXPECT_EQ(recorder.served_digest(), served_ref);
    EXPECT_EQ(recorder.failed_digest(), failed_ref);

    // The on-disk trail carries the same sets and digests.
    TraceReader back(path);
    EXPECT_TRUE(back.has_outcomes());
    EXPECT_EQ(back.job_count(), jobs.size());
    const OutcomeSets sets = read_outcome_sets(back);
    EXPECT_EQ(sets.served, reference.served_jobs);
    EXPECT_EQ(sets.failed, reference.failed_jobs);
    const OutcomeSummary summary = scan_outcomes(back);
    EXPECT_EQ(summary.served_digest, served_ref);
    EXPECT_EQ(summary.failed_digest, failed_ref);
  }
}

TEST(OutcomeRecorder, OutcomeCornersMatchThePairing) {
  const auto jobs = hotspot_jobs(400);
  const StreamConfig cfg = stream_config(2, 2);
  const std::string path = temp_path("corners.trace");
  StreamEngine engine(2, cfg);
  OutcomeRecorder recorder(path, 2);
  engine.set_observer(&recorder);
  engine.ingest(jobs);
  engine.finish();
  recorder.close();

  CubePairing pairing(2, cfg.online.anchor, cfg.online.cube_side);
  TraceReader back(path);
  std::vector<TraceEvent> events(back.job_count());
  ASSERT_EQ(back.next_events(events.data(), events.size()), events.size());
  for (const auto& e : events) {
    ASSERT_EQ(e.kind, TraceEventKind::kOutcome);
    EXPECT_EQ(e.corner, pairing.cube_corner(e.job.position));
  }
}

TEST(OutcomeRecorder, AuditTrailReplaysToTheSameResult) {
  // A v2 outcome trace's job-bearing records are the original arrival
  // sequence, so replaying the audit trail reproduces the recorded run.
  const auto jobs = hotspot_jobs(1500);
  const StreamConfig cfg = stream_config(2, 2);
  const std::string path = temp_path("replayable.trace");
  StreamEngine engine(2, cfg);
  OutcomeRecorder recorder(path, 2);
  engine.set_observer(&recorder);
  engine.ingest(jobs);
  const StreamResult original = engine.finish();
  recorder.close();

  TraceReader reader(path);
  TraceReplayer replayer(2, cfg);
  expect_identical(original, replayer.replay(reader));
}

TEST(OutcomeRecorder, ObserverSeesEveryBatchInAscendingIndexOrder) {
  struct Collector final : StreamObserver {
    std::vector<std::size_t> batch_sizes;
    std::vector<std::int64_t> indices;
    void on_batch(const JobOutcome* outcomes, std::size_t count) override {
      batch_sizes.push_back(count);
      for (std::size_t i = 0; i < count; ++i)
        indices.push_back(outcomes[i].job.index);
    }
  };
  const auto jobs = hotspot_jobs(500);
  Collector collector;
  StreamEngine engine(2, stream_config(2, 2, /*batch=*/64));
  engine.set_observer(&collector);
  engine.ingest(jobs);
  const StreamResult r = engine.finish();

  EXPECT_EQ(collector.batch_sizes.size(), r.batches);
  for (const std::size_t n : collector.batch_sizes) EXPECT_LE(n, 64u);
  ASSERT_EQ(collector.indices.size(), jobs.size());
  for (std::size_t i = 0; i < collector.indices.size(); ++i)
    EXPECT_EQ(collector.indices[i], static_cast<std::int64_t>(i));
}

TEST(OutcomeRecorder, ShedRunRoundTripsAllThreeOutcomeSets) {
  // Saturating run with admission on: the trail's aux words distinguish
  // served / failed / shed, the recorder's dropped digest audits the shed
  // set, and both the materialized sets and the O(1)-memory scan round
  // trip from disk — at two batch sizes, since with bounded admission the
  // trail's byte order is completion order and legitimately varies with
  // batching (only the order-invariant views must agree).
  const auto jobs = hotspot_jobs(1500);
  StreamResult reference;
  for (const std::int64_t batch : {64, 256}) {
    StreamConfig cfg = stream_config(2, 2, batch, 8.0);
    cfg.online.admission = AdmissionPolicy::kShed;
    cfg.online.queue_limit = 4;
    cfg.online.service_ticks = 4;
    const std::string path =
        temp_path("shed_audit" + std::to_string(batch) + ".trace");
    StreamEngine engine(2, cfg);
    OutcomeRecorder recorder(path, 2);
    engine.set_observer(&recorder);
    engine.ingest(jobs);
    const StreamResult r = engine.finish();
    recorder.close();
    if (batch == 64) reference = r;
    expect_identical(reference, r);  // batching never moves the outcome

    ASSERT_GT(r.jobs_shed, 0u);
    EXPECT_EQ(r.jobs_rejected, 0u);
    EXPECT_EQ(recorder.recorded(), jobs.size());
    EXPECT_EQ(recorder.served_count(), r.metrics.jobs_served);
    EXPECT_EQ(recorder.failed_count(), r.metrics.jobs_failed);
    EXPECT_EQ(recorder.dropped_count(), r.jobs_shed);
    EXPECT_EQ(recorder.served_digest(), index_set_digest(r.served_jobs));
    EXPECT_EQ(recorder.failed_digest(), index_set_digest(r.failed_jobs));
    EXPECT_EQ(recorder.dropped_digest(), index_set_digest(r.shed_jobs));

    TraceReader back(path);
    EXPECT_TRUE(back.has_outcomes());
    const OutcomeSets sets = read_outcome_sets(back);
    EXPECT_EQ(sets.served, r.served_jobs);
    EXPECT_EQ(sets.failed, r.failed_jobs);
    EXPECT_EQ(sets.dropped, r.shed_jobs);
    const OutcomeSummary summary = scan_outcomes(back);
    EXPECT_EQ(summary.served, r.metrics.jobs_served);
    EXPECT_EQ(summary.failed, r.metrics.jobs_failed);
    EXPECT_EQ(summary.dropped, r.jobs_shed);
    EXPECT_EQ(summary.dropped_digest, index_set_digest(r.shed_jobs));
  }
}

TEST(OutcomeRecorder, RejectsScanningNonOutcomeTraces) {
  const std::string path = temp_path("not_outcomes.trace");
  {
    TraceWriter writer(path, 2);
    writer.append(Job{Point{1, 1}, 0});
    writer.close();
  }
  TraceReader reader(path);
  EXPECT_THROW(read_outcome_sets(reader), check_error);
  EXPECT_THROW(scan_outcomes(reader), check_error);
}

// --- TraceMux: deterministic k-way multi-trace replay -----------------------

// Three sources from three different generators, same dimension.
std::vector<std::vector<Job>> mux_source_jobs() {
  std::vector<std::vector<Job>> sources;
  sources.push_back(hotspot_jobs(1200));
  {
    Rng rng(614);
    sources.push_back(collect_jobs([&rng](const JobSink& sink) {
      drifting_gradient_stream(Box(Point{0, 0}, Point{31, 31}), 1200, 2.0,
                               rng, sink);
    }));
  }
  {
    Rng rng(616);
    sources.push_back(collect_jobs([&rng](const JobSink& sink) {
      heavy_tailed_hotspot_stream(2, 4, 8, 1200, 1.2, rng, sink);
    }));
  }
  return sources;
}

std::vector<std::string> write_mux_sources(
    const std::vector<std::vector<Job>>& sources) {
  std::vector<std::string> paths;
  for (std::size_t s = 0; s < sources.size(); ++s) {
    paths.push_back(temp_path("mux_src" + std::to_string(s) + ".trace"));
    TraceWriter writer(paths.back(), 2);
    writer.append(sources[s].data(), sources[s].size());
    writer.close();
  }
  return paths;
}

// Merges every source of `mux` into a fresh engine (with `observer`
// attached, when given) and finishes it.
StreamResult serve_mux(TraceMux& mux, const StreamConfig& cfg,
                       StreamObserver* observer = nullptr) {
  StreamEngine engine(2, cfg);
  engine.set_observer(observer);
  mux.ingest(engine);
  return engine.finish();
}

TEST(TraceMuxTest, MatchesInMemoryMergeAcrossThreadsBatchesAndOrderings) {
  const auto sources = mux_source_jobs();
  const auto paths = write_mux_sources(sources);
  const std::vector<Job> merged = merge_streams(sources);
  ASSERT_EQ(merged.size(), 3600u);
  for (std::size_t i = 0; i < merged.size(); ++i)  // re-indexed 0..N-1
    ASSERT_EQ(merged[i].index, static_cast<std::int64_t>(i));
  const StreamResult reference =
      serve_stream(2, stream_config(2, 1), merged);

  // Thread counts and batch sizes.
  for (const int threads : {1, 2, 8}) {
    for (const std::int64_t batch : {64, 256, 1000}) {
      const StreamConfig cfg = stream_config(2, threads, batch);
      TraceMux mux(2, static_cast<std::size_t>(batch));
      for (const auto& path : paths) mux.add_source(path);
      EXPECT_EQ(mux.source_count(), paths.size());
      const StreamResult r = serve_mux(mux, cfg);
      expect_identical(reference, r);
      EXPECT_EQ(mux.jobs_merged(), merged.size());
    }
  }

  // Source orderings: every rotation and the reversal.
  const std::vector<std::vector<std::size_t>> orders = {
      {1, 2, 0}, {2, 0, 1}, {2, 1, 0}};
  for (const auto& order : orders) {
    TraceMux mux(2, 256);
    for (const std::size_t s : order) mux.add_source(paths[s]);
    expect_identical(reference, serve_mux(mux, stream_config(2, 2)));
  }
}

TEST(TraceMuxTest, SingleSourceEqualsPlainReplay) {
  const auto jobs = hotspot_jobs(800);
  const std::string path = temp_path("mux_single.trace");
  {
    TraceWriter writer(path, 2);
    writer.append(jobs.data(), jobs.size());
    writer.close();
  }
  const StreamResult plain = serve_stream(2, stream_config(2, 2), jobs);
  TraceMux mux(2, 256);
  mux.add_source(path);
  // indices 0..N-1 re-index to selves
  expect_identical(plain, serve_mux(mux, stream_config(2, 2)));
}

TEST(TraceMuxTest, MixedDimAndFailureSourcesRejected) {
  const std::string flat = temp_path("mux_2d.trace");
  {
    TraceWriter writer(flat, 2);
    writer.append(Job{Point{1, 1}, 0});
    writer.close();
  }
  const std::string solid = temp_path("mux_3d.trace");
  {
    TraceWriter writer(solid, 3);
    writer.append(Job{Point{1, 1, 1}, 0});
    writer.close();
  }
  const std::string faulty = temp_path("mux_faulty.trace");
  {
    TraceWriter writer(faulty, 2, kTraceVersionV2);
    writer.append(Job{Point{1, 1}, 0});
    writer.append_event(silent_done_event(Point{0, 0}));
    writer.close();
  }
  TraceMux mux(2, 256);
  mux.add_source(flat);
  EXPECT_THROW(mux.add_source(solid), check_error);
  EXPECT_THROW(mux.add_source(faulty), check_error);
  EXPECT_EQ(mux.source_count(), 1u);
}

TEST(TraceMuxTest, MuxFeedsTheObserver) {
  const auto sources = mux_source_jobs();
  const auto paths = write_mux_sources(sources);
  const std::string audit = temp_path("mux_audit.trace");
  TraceMux mux(2, 256);
  for (const auto& path : paths) mux.add_source(path);
  OutcomeRecorder recorder(audit, 2);
  const StreamResult r = serve_mux(mux, stream_config(2, 2), &recorder);
  recorder.close();
  EXPECT_EQ(recorder.recorded(), r.jobs_ingested);
  EXPECT_EQ(recorder.served_digest(), index_set_digest(r.served_jobs));
  EXPECT_EQ(recorder.failed_digest(), index_set_digest(r.failed_jobs));
}

TEST(TraceMuxTest, CountersSurviveMuxAndRecordComposition) {
  // Counters + mux + record composed: the merged run's Tier-A registry
  // must equal the in-memory merge's bit for bit, while an
  // OutcomeRecorder rides along auditing the same run. Undersized
  // capacity so the obs-gated fields are actually exercised.
  const auto sources = mux_source_jobs();
  const auto paths = write_mux_sources(sources);
  const std::vector<Job> merged = merge_streams(sources);
  StreamConfig cfg = stream_config(2, 1, 256, /*capacity=*/8.0);
  cfg.online.obs.counters = true;
  const StreamResult reference = serve_stream(2, cfg, merged);
  ASSERT_GT(reference.counters.replacements, 0u);
  ASSERT_GT(reference.counters.comps_finished, 0u);
  ASSERT_EQ(reference.counters.arrivals, merged.size());

  const std::string audit = temp_path("mux_obs_audit.trace");
  StreamConfig mcfg = stream_config(2, 8, 128, /*capacity=*/8.0);
  mcfg.online.obs.counters = true;
  TraceMux mux(2, 128);
  for (const auto& path : paths) mux.add_source(path);
  OutcomeRecorder recorder(audit, 2);
  const StreamResult r = serve_mux(mux, mcfg, &recorder);
  recorder.close();
  expect_identical(reference, r);
  EXPECT_EQ(recorder.recorded(), r.jobs_ingested);
  EXPECT_EQ(recorder.served_digest(), index_set_digest(r.served_jobs));
}

// --- silent-done failure injection through v2 traces ------------------------

TEST(SilentDoneReplay, MarkerForcesRingRecoveryDeterministically) {
  // A point burst exhausts the serving vehicle; with the silent-done
  // marker it never initiates its own replacement, so only the §3.2.5
  // monitoring ring can recover the pair.
  const Point p{1, 1};
  const CubePairing pairing(2, Point{0, 0}, 4);
  const Point home = pairing.primary(p);  // the initially active vehicle
  const std::int64_t count = 40;

  const std::string clean = temp_path("clean.trace");
  {
    TraceWriter writer(clean, 2, kTraceVersionV2);
    for (std::int64_t k = 0; k < count; ++k) writer.append(Job{p, k});
    writer.close();
  }
  const std::string faulty = temp_path("faulty.trace");
  {
    TraceWriter writer(faulty, 2, kTraceVersionV2);
    writer.append_event(silent_done_event(home));
    for (std::int64_t k = 0; k < count; ++k) writer.append(Job{p, k});
    writer.close();
  }

  // Capacity small enough that the first vehicle exhausts mid-stream.
  const auto run = [](const std::string& path, int threads,
                      std::int64_t batch) {
    TraceReader reader(path);
    TraceReplayer replayer(2, stream_config(2, threads, batch, 12.0));
    return replayer.replay(reader);
  };

  const StreamResult without = run(clean, 1, 256);
  const StreamResult with = run(faulty, 1, 256);
  EXPECT_EQ(without.metrics.monitor_initiations, 0u);  // self-replacing
  EXPECT_GT(with.metrics.monitor_initiations, 0u);     // ring had to act
  EXPECT_GT(with.metrics.jobs_served, 0u);             // and it recovered
  EXPECT_LT(with.metrics.jobs_served, without.metrics.jobs_served + 1);

  // Injection replay is part of the determinism contract: identical
  // across thread counts and batch sizes.
  for (const int threads : {2, 8})
    expect_identical(with, run(faulty, threads, 256));
  for (const std::int64_t batch : {7, 1000})
    expect_identical(with, run(faulty, 1, batch));
}

TEST(SilentDoneReplay, EngineInjectionMatchesTraceInjection) {
  const Point p{1, 1};
  const CubePairing pairing(2, Point{0, 0}, 4);
  const Point home = pairing.primary(p);
  std::vector<Job> jobs;
  for (std::int64_t k = 0; k < 30; ++k) jobs.push_back(Job{p, k});

  // Direct engine API.
  StreamEngine engine(2, stream_config(2, 2, 64, 12.0));
  engine.inject_silent_done(home);
  engine.ingest(jobs);
  const StreamResult direct = engine.finish();

  // The same injection carried by a trace.
  const std::string path = temp_path("inject_api.trace");
  {
    TraceWriter writer(path, 2, kTraceVersionV2);
    writer.append_event(silent_done_event(home));
    writer.append(jobs.data(), jobs.size());
    writer.close();
  }
  TraceReader reader(path);
  TraceReplayer replayer(2, stream_config(2, 2, 64, 12.0));
  expect_identical(direct, replayer.replay(reader));
}

TEST(SilentDoneReplay, AuditTrailOfInjectedRunCarriesTheInjection) {
  // Recording a failure-injected replay must capture the injections too
  // (StreamObserver::on_inject), so the audit trail reproduces the run.
  const Point p{1, 1};
  const CubePairing pairing(2, Point{0, 0}, 4);
  const Point home = pairing.primary(p);
  const std::string faulty = temp_path("audit_faulty_src.trace");
  {
    TraceWriter writer(faulty, 2, kTraceVersionV2);
    writer.append_event(silent_done_event(home));
    for (std::int64_t k = 0; k < 40; ++k) writer.append(Job{p, k});
    writer.close();
  }
  const std::string audit = temp_path("audit_faulty.trace");
  StreamResult original;
  {
    TraceReader reader(faulty);
    TraceReplayer replayer(2, stream_config(2, 2, 64, 12.0));
    OutcomeRecorder recorder(audit, 2);
    replayer.set_observer(&recorder);
    original = replayer.replay(reader);
    recorder.close();
  }
  ASSERT_GT(original.metrics.monitor_initiations, 0u);  // injection bit

  TraceReader trail(audit);
  EXPECT_TRUE(trail.has_outcomes());
  EXPECT_TRUE(trail.has_failure_events());
  TraceReplayer replayer(2, stream_config(2, 2, 64, 12.0));
  expect_identical(original, replayer.replay(trail));
}

TEST(SilentDoneReplay, CountersAndSpansSurviveRecordedReplayBitIdentical) {
  // A counters-on (and spans-on) run with a mid-stream injection must be
  // bit-identical to replaying its own audit trail: expect_identical
  // covers CubeCounters (Tier-A counts plus the Tier-C span totals), and
  // the exported span spool must match byte for byte — the injection
  // lands between the same two arrivals of its cube's subsequence on
  // both sides.
  // Point burst (the MarkerForcesRingRecovery setup): the serving
  // vehicle is still alive when the marker lands mid-stream, then
  // exhausts silently, so only the ring can recover it.
  const Point p{1, 1};
  const Point home = CubePairing(2, Point{0, 0}, 4).primary(p);
  std::vector<Job> jobs;
  for (std::int64_t k = 0; k < 60; ++k) jobs.push_back(Job{p, k});
  StreamConfig cfg = stream_config(2, 2, 16, /*capacity=*/12.0);
  cfg.online.obs.counters = true;
  cfg.online.obs.spans = true;

  const std::string audit = temp_path("counters_inject.trace");
  StreamResult original;
  std::string original_spool;
  {
    StreamEngine engine(2, cfg);
    OutcomeRecorder recorder(audit, 2);
    engine.set_observer(&recorder);
    // Inject mid-stream but before the primary exhausts, so the marker
    // hits the vehicle that is still serving.
    engine.ingest(jobs.data(), 4);
    engine.inject_silent_done(home);
    engine.ingest(jobs.data() + 4, jobs.size() - 4);
    original = engine.finish();
    recorder.close();
    std::ostringstream spool;
    write_span_spool(spool, 2, engine.span_sources());
    original_spool = spool.str();
  }
  ASSERT_GT(original.counters.replacements, 0u);
  ASSERT_GT(original.counters.spans_emitted, 0u);
  ASSERT_GT(original.metrics.monitor_initiations, 0u);  // injection bit

  TraceReader trail(audit);
  TraceReplayer replayer(2, cfg);
  const StreamResult replayed = replayer.replay(trail);
  expect_identical(original, replayed);
  std::ostringstream replay_spool;
  write_span_spool(replay_spool, 2, replayer.engine().span_sources());
  EXPECT_EQ(original_spool, replay_spool.str());
}

// --- amortized monitoring: the stride contract ------------------------------

TEST(MonitorStride, OutcomePreservedAndHeartbeatsAmortized) {
  const auto jobs = hotspot_jobs(1500);
  const StreamResult per_arrival =
      serve_stream(2, stream_config(2, 1, 256, 24.0, /*stride=*/1), jobs);
  const StreamResult amortized =
      serve_stream(2, stream_config(2, 1, 256, 24.0, /*stride=*/16), jobs);
  // Service outcome is stride-invariant on failure-free monitoring
  // (heartbeats are protocol no-ops)...
  EXPECT_EQ(per_arrival.served_jobs, amortized.served_jobs);
  EXPECT_EQ(per_arrival.failed_jobs, amortized.failed_jobs);
  // ...while the ring traffic drops by roughly the stride.
  EXPECT_LT(amortized.metrics.network.heartbeats * 4,
            per_arrival.metrics.network.heartbeats);
}

TEST(MonitorStride, BitIdenticalAcrossThreadsAndBatchesAtAnyStride) {
  const auto jobs = hotspot_jobs(1200);
  for (const std::int64_t stride : {4, 16}) {
    const StreamResult reference =
        serve_stream(2, stream_config(2, 1, 256, 24.0, stride), jobs);
    for (const int threads : {2, 8})
      expect_identical(reference, serve_stream(
          2, stream_config(2, threads, 256, 24.0, stride), jobs));
    for (const std::int64_t batch : {33, 1000})
      expect_identical(reference, serve_stream(
          2, stream_config(2, 2, batch, 24.0, stride), jobs));
  }
}

TEST(MonitorStride, InvalidStrideRejected) {
  const std::vector<Job> jobs = {Job{Point{1, 1}, 0}};
  StreamConfig cfg = stream_config(2, 1);
  cfg.online.monitor_stride = 0;
  EXPECT_THROW(serve_stream(2, cfg, jobs), check_error);
}

}  // namespace
}  // namespace cmvrp
