// Out-of-core trace subsystem: the cmvrp-trace-v1 byte layout (golden
// bytes), writer/reader round trips, corrupt-input diagnostics, and the
// replay-equivalence contract — TraceReplayer over a trace is
// bit-identical to in-memory serve_stream at every thread count.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "stream/engine.h"
#include "trace/format.h"
#include "trace/mapped_file.h"
#include "trace/reader.h"
#include "trace/replay.h"
#include "trace/writer.h"
#include "util/check.h"
#include "util/rng.h"
#include "workload/generators.h"
#include "workload/stream_gen.h"

#include "stream_checks.h"

namespace cmvrp {
namespace {

std::string temp_path(const std::string& name) {
  return testing::TempDir() + "cmvrp_" + name;
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

// Opens a trace expected to be malformed; asserts the error message
// carries the given fragments (byte offsets, field names).
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

// --- golden bytes: the v1 layout is pinned ----------------------------------

TEST(TraceFormat, GoldenBytes) {
  const std::string path = temp_path("golden.trace");
  {
    TraceWriter writer(path, 2);
    writer.append(Job{Point{3, -1}, 0});
    writer.append(Job{Point{260, 7}, 1});
    writer.close();
  }
  const std::vector<unsigned char> expected = {
      // header: magic, version=1, dim=2, count=2, flags=0
      'c', 'm', 'v', 'r', 'p', 't', 'r', 'c',        // magic
      1, 0, 0, 0,                                    // version
      2, 0, 0, 0,                                    // dim
      2, 0, 0, 0, 0, 0, 0, 0,                        // job_count
      0, 0, 0, 0, 0, 0, 0, 0,                        // flags
      // record 0: (3, -1), index 0
      3, 0, 0, 0, 0, 0, 0, 0,                        // x = 3
      0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff,  // y = -1
      0, 0, 0, 0, 0, 0, 0, 0,                        // index = 0
      // record 1: (260, 7), index 1
      4, 1, 0, 0, 0, 0, 0, 0,                        // x = 260 = 0x104
      7, 0, 0, 0, 0, 0, 0, 0,                        // y = 7
      1, 0, 0, 0, 0, 0, 0, 0,                        // index = 1
  };
  EXPECT_EQ(read_bytes(path), expected);
}

TEST(TraceFormat, RecordSizeTracksDim) {
  EXPECT_EQ(trace_record_size(1), 16u);
  EXPECT_EQ(trace_record_size(2), 24u);
  EXPECT_EQ(trace_record_size(3), 32u);
  EXPECT_EQ(trace_record_size(4), 40u);
}

// --- writer/reader round trips ----------------------------------------------

TEST(TraceRoundTrip, AllDimensions) {
  for (const int dim : {1, 2, 3, 4}) {
    const std::string path =
        temp_path("rt" + std::to_string(dim) + ".trace");
    Rng rng(static_cast<std::uint64_t>(dim) * 7 + 1);
    std::vector<Job> jobs;
    for (std::int64_t k = 0; k < 137; ++k) {
      Point p = Point::origin(dim);
      for (int i = 0; i < dim; ++i) p[i] = rng.next_int(-1000, 1000);
      jobs.push_back(Job{p, k});
    }
    {
      TraceWriter writer(path, dim);
      writer.append(jobs.data(), jobs.size());
      EXPECT_EQ(writer.jobs_written(), jobs.size());
      writer.close();
    }
    TraceReader reader(path);
    EXPECT_EQ(reader.dim(), dim);
    EXPECT_EQ(reader.job_count(), jobs.size());
    const auto back = reader.read_all();
    ASSERT_EQ(back.size(), jobs.size());
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      EXPECT_EQ(back[i].position, jobs[i].position);
      EXPECT_EQ(back[i].index, jobs[i].index);
    }
  }
}

TEST(TraceRoundTrip, BoundedBatchIterationMatchesReadAll) {
  const std::string path = temp_path("chunks.trace");
  {
    TraceWriter writer(path, 2);
    for (std::int64_t k = 0; k < 100; ++k)
      writer.append(Job{Point{k, -k}, k});
    writer.close();
  }
  TraceReader reader(path);
  std::vector<Job> chunked;
  std::vector<Job> buffer(7);  // deliberately not a divisor of 100
  std::size_t n = 0;
  while ((n = reader.next_batch(buffer.data(), buffer.size())) > 0) {
    EXPECT_LE(n, buffer.size());
    chunked.insert(chunked.end(), buffer.begin(),
                   buffer.begin() + static_cast<long>(n));
  }
  EXPECT_EQ(reader.remaining(), 0u);
  EXPECT_EQ(reader.next_batch(buffer.data(), buffer.size()), 0u);
  const auto all = reader.read_all();  // read_all rewinds
  ASSERT_EQ(chunked.size(), all.size());
  for (std::size_t i = 0; i < all.size(); ++i) {
    EXPECT_EQ(chunked[i].position, all[i].position);
    EXPECT_EQ(chunked[i].index, all[i].index);
  }
}

TEST(TraceRoundTrip, EmptyTrace) {
  const std::string path = temp_path("empty.trace");
  {
    TraceWriter writer(path, 3);
    writer.close();
  }
  TraceReader reader(path);
  EXPECT_EQ(reader.job_count(), 0u);
  Job buffer;
  EXPECT_EQ(reader.next_batch(&buffer, 1), 0u);
  EXPECT_TRUE(reader.read_all().empty());
}

TEST(TraceRoundTrip, TraceDemandMatchesStreamDemand) {
  const std::string path = temp_path("demand.trace");
  Rng rng(91);
  const auto jobs = collect_jobs([&rng](const JobSink& sink) {
    bursty_hotspot_stream(2, 4, 4, 300, 20, rng, sink);
  });
  {
    TraceWriter writer(path, 2);
    writer.append(jobs.data(), jobs.size());
    writer.close();
  }
  TraceReader reader(path);
  const DemandMap induced = trace_demand(reader);
  const DemandMap expected = demand_of_stream(jobs, 2);
  EXPECT_EQ(induced.support_size(), expected.support_size());
  for (const auto& p : expected.support())
    EXPECT_DOUBLE_EQ(induced.at(p), expected.at(p)) << p.to_string();
  EXPECT_EQ(reader.remaining(), reader.job_count());  // cursor rewound
  // The same (point, demand) sequence as one add() per job, in the
  // order the points first arrive.
  DemandMap by_adds(2);
  for (const Job& job : jobs) by_adds.add(job.position, 1.0);
  const auto items = [](const DemandMap& d) {
    std::vector<std::pair<Point, double>> out;
    for (const auto& [p, v] : d) out.emplace_back(p, v);
    return out;
  };
  EXPECT_EQ(items(induced), items(by_adds));
  EXPECT_EQ(items(expected), items(by_adds));
}

// --- writer error handling --------------------------------------------------

TEST(TraceWriter, RejectsBadPathDimAndMisuse) {
  EXPECT_THROW(TraceWriter("/nonexistent-dir/cmvrp.trace", 2), check_error);
  EXPECT_THROW(TraceWriter(temp_path("bad.trace"), 0), check_error);
  EXPECT_THROW(TraceWriter(temp_path("bad.trace"), 5), check_error);

  // A rejected dim must not truncate an existing file at that path.
  const std::string keep = temp_path("keep.trace");
  write_bytes(keep, {9, 9, 9});
  EXPECT_THROW(TraceWriter(keep, 0), check_error);
  EXPECT_EQ(read_bytes(keep).size(), 3u);

  const std::string path = temp_path("misuse.trace");
  TraceWriter writer(path, 2);
  EXPECT_THROW(writer.append(Job{Point{0, 0, 0}, 0}), check_error);  // dim 3
  writer.close();
  EXPECT_THROW(writer.append(Job{Point{0, 0}, 0}), check_error);
  EXPECT_THROW(writer.close(), check_error);  // double close
}

#ifdef __linux__
TEST(TraceWriter, FullDiskRaisesInsteadOfTruncating) {
  // /dev/full accepts opens and fails writes with ENOSPC.
  std::ifstream probe("/dev/full");
  if (!probe.good()) GTEST_SKIP() << "/dev/full not available";
  try {
    TraceWriter writer("/dev/full", 2);
    for (int k = 0; k < 100000; ++k)  // enough to force a flush
      writer.append(Job{Point{k, k}, k});
    writer.close();
    FAIL() << "expected check_error on a full disk";
  } catch (const check_error& e) {
    EXPECT_NE(std::string(e.what()).find("disk full"), std::string::npos)
        << e.what();
  }
}
#endif

// --- corrupt-input diagnostics ----------------------------------------------

std::vector<unsigned char> valid_trace_bytes() {
  const std::string path = temp_path("template.trace");
  TraceWriter writer(path, 2);
  writer.append(Job{Point{1, 2}, 0});
  writer.append(Job{Point{3, 4}, 1});
  writer.close();
  return read_bytes(path);
}

TEST(TraceReaderErrors, FileShorterThanHeader) {
  const std::string path = temp_path("short.trace");
  write_bytes(path, {'c', 'm', 'v'});
  expect_open_error(path, {"too short", "3 bytes"});
}

TEST(TraceReaderErrors, BadMagic) {
  auto bytes = valid_trace_bytes();
  bytes[4] = 'X';
  const std::string path = temp_path("magic.trace");
  write_bytes(path, bytes);
  expect_open_error(path, {"magic", "byte offset 4"});
}

TEST(TraceReaderErrors, UnsupportedVersion) {
  auto bytes = valid_trace_bytes();
  store_le32(bytes.data() + kTraceVersionOffset, 9);
  const std::string path = temp_path("version.trace");
  write_bytes(path, bytes);
  expect_open_error(path, {"version 9", "byte offset 8"});
}

TEST(TraceReaderErrors, DimOutOfRange) {
  auto bytes = valid_trace_bytes();
  store_le32(bytes.data() + kTraceDimOffset, 7);
  const std::string path = temp_path("dim.trace");
  write_bytes(path, bytes);
  expect_open_error(path, {"dim 7", "byte offset 12"});
}

TEST(TraceReaderErrors, NonzeroFlags) {
  auto bytes = valid_trace_bytes();
  store_le64(bytes.data() + kTraceFlagsOffset, 0x80);
  const std::string path = temp_path("flags.trace");
  write_bytes(path, bytes);
  expect_open_error(path, {"flags", "byte offset 24"});
}

TEST(TraceReaderErrors, TruncatedRecord) {
  auto bytes = valid_trace_bytes();
  bytes.resize(bytes.size() - 5);  // tear the tail off record 1
  const std::string path = temp_path("torn.trace");
  write_bytes(path, bytes);
  // Record 1 starts at 32 + 24 = 56 and is incomplete.
  expect_open_error(path, {"truncated", "record 1", "byte offset 56"});
}

TEST(TraceReaderErrors, CountSizeDisagreement) {
  auto bytes = valid_trace_bytes();
  store_le64(bytes.data() + kTraceCountOffset, 3);  // claims one extra
  const std::string path = temp_path("count.trace");
  write_bytes(path, bytes);
  expect_open_error(path, {"count/size disagreement", "claims 3", "hold 2"});
}

TEST(TraceReaderErrors, MissingFile) {
  EXPECT_THROW(TraceReader("/nonexistent/cmvrp.trace"), check_error);
}

// --- mapped file -------------------------------------------------------------

TEST(MappedFileTest, MapsRealFilesOnThisPlatform) {
  const std::string path = temp_path("mapped.bin");
  write_bytes(path, {1, 2, 3, 4, 5});
  MappedFile file(path);
  ASSERT_EQ(file.size(), 5u);
#if defined(__unix__) || defined(__APPLE__)
  EXPECT_TRUE(file.mapped());
#endif
  EXPECT_EQ(file.data()[0], 1);
  EXPECT_EQ(file.data()[4], 5);

  MappedFile moved(std::move(file));
  EXPECT_EQ(moved.size(), 5u);
  EXPECT_EQ(moved.data()[2], 3);
  EXPECT_EQ(file.size(), 0u);  // NOLINT(bugprone-use-after-move): spec'd
}

TEST(MappedFileTest, ConstructorToggleForcesReadFallback) {
  const std::string path = temp_path("fallback.bin");
  write_bytes(path, {9, 8, 7, 6});
  MappedFile file(path, /*allow_mmap=*/false);
  EXPECT_FALSE(file.mapped());
  ASSERT_EQ(file.size(), 4u);
  EXPECT_EQ(file.data()[0], 9);
  EXPECT_EQ(file.data()[3], 6);

  // Moves keep the fallback buffer's bytes reachable.
  MappedFile moved(std::move(file));
  EXPECT_FALSE(moved.mapped());
  ASSERT_EQ(moved.size(), 4u);
  EXPECT_EQ(moved.data()[1], 8);

  EXPECT_THROW(MappedFile("/nonexistent/cmvrp.bin", false), check_error);
}

#if defined(__unix__) || defined(__APPLE__)
TEST(MappedFileTest, EnvironmentToggleForcesReadFallbackEndToEnd) {
  // CMVRP_NO_MMAP pins the whole reader stack to the fallback path; the
  // decode (and therefore replay) must be byte-identical either way.
  const std::string path = temp_path("env_fallback.trace");
  {
    TraceWriter writer(path, 2);
    Rng rng(623);
    bursty_hotspot_stream(2, 4, 4, 300, 16, rng,
                          [&writer](const Job& j) { writer.append(j); });
    writer.close();
  }
  TraceReader mapped(path);
  EXPECT_TRUE(mapped.mapped());
  const auto expected = mapped.read_all();

  ASSERT_EQ(setenv("CMVRP_NO_MMAP", "1", 1), 0);
  EXPECT_TRUE(MappedFile::mmap_disabled_by_env());
  {
    TraceReader fallback(path);
    EXPECT_FALSE(fallback.mapped());
    const auto jobs = fallback.read_all();
    ASSERT_EQ(jobs.size(), expected.size());
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      EXPECT_EQ(jobs[i].position, expected[i].position);
      EXPECT_EQ(jobs[i].index, expected[i].index);
    }
  }
  ASSERT_EQ(unsetenv("CMVRP_NO_MMAP"), 0);
  EXPECT_FALSE(MappedFile::mmap_disabled_by_env());
  // "0" (and empty) keep mmap enabled.
  ASSERT_EQ(setenv("CMVRP_NO_MMAP", "0", 1), 0);
  EXPECT_FALSE(MappedFile::mmap_disabled_by_env());
  ASSERT_EQ(unsetenv("CMVRP_NO_MMAP"), 0);
}
#endif

// --- replay equivalence: the acceptance contract -----------------------------

StreamConfig replay_config(int dim, int threads, std::int64_t batch) {
  StreamConfig cfg;
  cfg.online.capacity = 24.0;
  cfg.online.cube_side = 4;
  cfg.online.anchor = Point::origin(dim);
  cfg.online.seed = 7;
  cfg.threads = threads;
  cfg.batch_size = batch;
  return cfg;
}

TEST(TraceReplay, BitIdenticalToInMemoryServingAcrossThreadCounts) {
  const std::string path = temp_path("replay.trace");
  // Producer: streaming generator -> writer, one record at a time.
  {
    TraceWriter writer(path, 2);
    Rng rng(611);
    bursty_hotspot_stream(2, 4, 8, 2000, 64, rng,
                          [&writer](const Job& j) { writer.append(j); });
    writer.close();
  }
  // In-memory reference on the identical stream.
  Rng rng(611);
  const auto jobs = collect_jobs([&rng](const JobSink& sink) {
    bursty_hotspot_stream(2, 4, 8, 2000, 64, rng, sink);
  });
  const StreamResult memory =
      serve_stream(2, replay_config(2, 1, 256), jobs);
  ASSERT_EQ(memory.jobs_ingested, 2000u);

  for (const int threads : {1, 2, 8}) {
    TraceReader reader(path);
    TraceReplayer replayer(2, replay_config(2, threads, 256));
    const StreamResult replayed = replayer.replay(reader);
    expect_identical(memory, replayed);
  }
}

TEST(TraceReplay, CountersOnReplayMatchesInMemoryServing) {
  // The Tier-A counter registry (src/obs/) must survive the trace
  // boundary: replaying a recorded stream with counters on folds to the
  // same registry as serving the jobs from memory, at every thread
  // count. Undersized capacity so Phase I floods and cascades occur.
  const std::string path = temp_path("replay_obs.trace");
  {
    TraceWriter writer(path, 2);
    Rng rng(619);
    bursty_hotspot_stream(2, 4, 8, 2000, 64, rng,
                          [&writer](const Job& j) { writer.append(j); });
    writer.close();
  }
  Rng rng(619);
  const auto jobs = collect_jobs([&rng](const JobSink& sink) {
    bursty_hotspot_stream(2, 4, 8, 2000, 64, rng, sink);
  });
  StreamConfig cfg = replay_config(2, 1, 256);
  cfg.online.capacity = 8.0;
  cfg.online.obs.counters = true;
  const StreamResult memory = serve_stream(2, cfg, jobs);
  ASSERT_GT(memory.counters.replacements, 0u);
  ASSERT_GT(memory.counters.comps_finished, 0u);
  ASSERT_GT(memory.counters.max_queries_per_comp, 0u);

  for (const int threads : {1, 2, 8}) {
    StreamConfig c = cfg;
    c.threads = threads;
    TraceReader reader(path);
    TraceReplayer replayer(2, c);
    expect_identical(memory, replayer.replay(reader));
  }
}

TEST(TraceReplay, FlatSlotRoutingMatchesOverflowOnRecordedTraces) {
  // The same recorded trace served twice: once with a region (dense
  // cube-slot routing) and once without (pure corner-hashed overflow) —
  // the engine's outcome must not know which path routed it.
  const std::string path = temp_path("flat_replay.trace");
  {
    TraceWriter writer(path, 2);
    Rng rng(617);
    bursty_hotspot_stream(2, 4, 8, 2000, 64, rng,
                          [&writer](const Job& j) { writer.append(j); });
    writer.close();
  }
  const StreamConfig overflow = replay_config(2, 2, 256);
  StreamConfig flat = replay_config(2, 2, 256);
  flat.region = Box(Point{0, 0}, Point{31, 31});

  TraceReader r1(path);
  TraceReplayer rp1(2, overflow);
  const StreamResult a = rp1.replay(r1);
  TraceReader r2(path);
  TraceReplayer rp2(2, flat);
  const StreamResult b = rp2.replay(r2);
  EXPECT_EQ(a.cube_slots, 0u);
  EXPECT_GT(b.cube_slots, 0u);
  expect_identical(a, b);
}

TEST(TraceReplay, HigherDimensionTracesReplayIdentically) {
  for (const int dim : {3, 4}) {
    const std::string path =
        temp_path("replay" + std::to_string(dim) + ".trace");
    {
      TraceWriter writer(path, dim);
      Rng rng(613);
      bursty_hotspot_stream(dim, 2, 3, 600, 24, rng,
                            [&writer](const Job& j) { writer.append(j); });
      writer.close();
    }
    Rng rng(613);
    const auto jobs = collect_jobs([&rng, dim](const JobSink& sink) {
      bursty_hotspot_stream(dim, 2, 3, 600, 24, rng, sink);
    });
    StreamConfig cfg = replay_config(dim, 2, 128);
    cfg.online.cube_side = 2;
    const StreamResult memory = serve_stream(dim, cfg, jobs);
    TraceReader reader(path);
    TraceReplayer replayer(dim, cfg);
    expect_identical(memory, replayer.replay(reader));
  }
}

TEST(TraceReplay, BoundedMemoryPathHandlesStreamsFarBeyondOneBatch) {
  // Acceptance shape: stream length >= 10 x (batch x threads); the
  // producer streams into the writer and the replayer's only job buffer
  // is one engine batch, so neither side ever holds the job vector.
  const std::int64_t batch = 16;
  const int threads = 2;
  const std::int64_t count = 10 * batch * threads * 4;  // 1280 jobs
  const std::string path = temp_path("bounded.trace");
  {
    TraceWriter writer(path, 2);
    Rng rng(617);
    bursty_hotspot_stream(2, 4, 8, count, 32, rng,
                          [&writer](const Job& j) { writer.append(j); });
    writer.close();
  }
  TraceReader reader(path);
  ASSERT_EQ(reader.job_count(), static_cast<std::uint64_t>(count));
  TraceReplayer replayer(2, replay_config(2, threads, batch));
  EXPECT_EQ(replayer.chunk_jobs(), static_cast<std::size_t>(batch));
  const StreamResult replayed = replayer.replay(reader);
  EXPECT_EQ(replayed.jobs_ingested, static_cast<std::uint64_t>(count));

  Rng rng(617);
  const auto jobs = collect_jobs([&rng, count](const JobSink& sink) {
    bursty_hotspot_stream(2, 4, 8, count, 32, rng, sink);
  });
  expect_identical(serve_stream(2, replay_config(2, 1, 256), jobs), replayed);
}

TEST(TraceReplay, LatencyAndAdmissionReplayIdentically) {
  // Bounded replay must reproduce the in-memory latency histogram,
  // percentiles, timeseries, and shed sets byte for byte — for every
  // admission policy, including saturating runs that actually drop jobs.
  const std::string path = temp_path("latency.trace");
  {
    TraceWriter writer(path, 2);
    Rng rng(627);
    bursty_hotspot_stream(2, 4, 2, 1200, 64, rng,
                          [&writer](const Job& j) { writer.append(j); });
    writer.close();
  }
  Rng rng(627);
  const auto jobs = collect_jobs([&rng](const JobSink& sink) {
    bursty_hotspot_stream(2, 4, 2, 1200, 64, rng, sink);
  });
  for (const AdmissionPolicy policy :
       {AdmissionPolicy::kUnbounded, AdmissionPolicy::kReject,
        AdmissionPolicy::kShed}) {
    StreamConfig cfg = replay_config(2, 2, 128);
    cfg.online.capacity = 8.0;
    cfg.online.admission = policy;
    cfg.online.queue_limit = 4;
    cfg.online.service_ticks = 4;
    cfg.online.sample_stride = 8;
    const StreamResult memory = serve_stream(2, cfg, jobs);
    EXPECT_EQ(memory.latency.count(), memory.metrics.jobs_served);
    if (policy != AdmissionPolicy::kUnbounded) {
      EXPECT_GT(memory.jobs_shed + memory.jobs_rejected, 0u);
    }

    TraceReader reader(path);
    TraceReplayer replayer(2, cfg);
    const StreamResult replayed = replayer.replay(reader);
    expect_identical(memory, replayed);
    for (const double p : {50.0, 90.0, 99.0}) {
      EXPECT_EQ(memory.latency.percentile(p), replayed.latency.percentile(p));
    }
  }
}

TEST(TraceReplay, DimMismatchBetweenTraceAndEngineThrows) {
  const std::string path = temp_path("mismatch.trace");
  {
    TraceWriter writer(path, 3);
    writer.append(Job{Point{1, 1, 1}, 0});
    writer.close();
  }
  TraceReader reader(path);
  TraceReplayer replayer(2, replay_config(2, 1, 64));
  EXPECT_THROW(replayer.replay(reader), check_error);
}

TEST(TraceReplay, PointerIngestOverloadMatchesVectorIngest) {
  const std::string path = temp_path("incremental.trace");
  {
    TraceWriter writer(path, 2);
    Rng rng(619);
    bursty_hotspot_stream(2, 4, 4, 500, 20, rng,
                          [&writer](const Job& j) { writer.append(j); });
    writer.close();
  }
  TraceReader reader(path);
  const auto jobs = reader.read_all();

  StreamEngine by_vector(2, replay_config(2, 2, 64));
  by_vector.ingest(jobs);

  // The out-of-core entry point: raw segments through the pointer
  // overload, split at an arbitrary cut.
  StreamEngine by_pointer(2, replay_config(2, 2, 64));
  by_pointer.ingest(jobs.data(), 123);
  by_pointer.ingest(jobs.data() + 123, jobs.size() - 123);

  expect_identical(by_vector.finish(), by_pointer.finish());
}

TEST(TraceReplay, ReplayerIngestFinishMatchesReplay) {
  const std::string path = temp_path("two_phase.trace");
  {
    TraceWriter writer(path, 2);
    Rng rng(621);
    bursty_hotspot_stream(2, 4, 4, 400, 16, rng,
                          [&writer](const Job& j) { writer.append(j); });
    writer.close();
  }
  TraceReader whole(path);
  TraceReplayer one(2, replay_config(2, 2, 64));
  const StreamResult oneshot = one.replay(whole);

  TraceReader reader(path);
  TraceReplayer two(2, replay_config(2, 2, 64));
  two.ingest(reader);  // drains the trace in bounded chunks
  EXPECT_EQ(reader.remaining(), 0u);
  expect_identical(oneshot, two.finish());
}

}  // namespace
}  // namespace cmvrp
