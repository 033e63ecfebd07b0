// Protocol observability layer (src/obs/): the counter table behind
// merge, digest, == and the stats lines, Tier-A counter determinism
// across thread counts and batch sizes, the off-by-default fast path,
// the Lemma 3.3.1 per-computation query-flood bound, the JSONL stats
// snapshotter's schema + thread-invariance contract and its reader, and
// the Tier-C span layer: byte-identical exports across threads/batches,
// sampling and flight-ring semantics, spool round-trips, the Chrome and
// spool readers' agreement, and the prof analyzer's attribution
// contract.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <fstream>
#include <iterator>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "exp/compare.h"
#include "obs/counters.h"
#include "obs/prof.h"
#include "obs/snapshot.h"
#include "obs/span.h"
#include "obs/span_export.h"
#include "obs/stage_timer.h"
#include "stream/engine.h"
#include "util/check.h"
#include "util/digest.h"
#include "util/json.h"
#include "util/rng.h"
#include "workload/generators.h"
#include "workload/stream_gen.h"

namespace cmvrp {
namespace {

std::vector<Job> test_stream(std::int64_t box_side, std::int64_t count,
                             std::uint64_t seed) {
  Rng rng(seed);
  const Box box(Point{0, 0}, Point{box_side - 1, box_side - 1});
  const DemandMap d = uniform_demand(box, count, rng);
  Rng order(seed + 1);
  return stream_from_demand(d, ArrivalOrder::kShuffled, order);
}

// Undersized capacity: vehicles exhaust, so Phase I computations,
// replacement cascades, and query floods actually occur.
StreamConfig obs_config(int dim, int threads, std::int64_t batch,
                        bool counters) {
  StreamConfig cfg;
  cfg.online.capacity = 8.0;
  cfg.online.cube_side = 4;
  cfg.online.anchor = Point::origin(dim);
  cfg.online.seed = 7;
  cfg.online.obs.counters = counters;
  cfg.threads = threads;
  cfg.batch_size = batch;
  return cfg;
}

// --- unit: merge / digest / flood bound -------------------------------------

TEST(CubeCounters, MergeSumsCountsAndMaxesPeaks) {
  CubeCounters a, b;
  a.msg_queries = 10;
  a.max_queries_per_comp = 7;
  a.backlog_peak = 3;
  a.replacements = 2;
  a.cascade.add(1);
  b.msg_queries = 5;
  b.max_queries_per_comp = 9;
  b.backlog_peak = 1;
  b.replacements = 4;
  b.cascade.add(2);
  b.cascade.add(2);
  a.merge(b);
  EXPECT_EQ(a.msg_queries, 15u);
  EXPECT_EQ(a.max_queries_per_comp, 9u);  // peak, not sum
  EXPECT_EQ(a.backlog_peak, 3u);          // peak, not sum
  EXPECT_EQ(a.replacements, 6u);
  EXPECT_EQ(a.cascade.count(), 3u);
  EXPECT_EQ(a.cascade.observed_max(), 2);
}

TEST(CubeCounters, MergeIsCommutative) {
  CubeCounters a, b;
  a.msg_queries = 3;
  a.comps_started = 2;
  a.backlog_peak = 5;
  a.cascade.add(4);
  b.msg_replies = 8;
  b.max_queries_per_comp = 6;
  b.cascade.add(1);
  CubeCounters ab = a, ba = b;
  ab.merge(b);
  ba.merge(a);
  EXPECT_TRUE(ab == ba);
  EXPECT_EQ(ab.digest(), ba.digest());
}

TEST(CubeCounters, DigestIsPositional) {
  // 10 queries vs 10 replies are different protocol facts: the digest
  // mixes fields positionally, so swapping them must not collide.
  CubeCounters q, r;
  q.msg_queries = 10;
  r.msg_replies = 10;
  EXPECT_NE(q.digest(), r.digest());
  EXPECT_FALSE(q == r);
  CubeCounters empty;
  EXPECT_NE(q.digest(), empty.digest());
}

// --- the counter table ------------------------------------------------------

// A record whose every row holds a distinct value (and a non-empty
// cascade), so a dropped, duplicated or swapped row cannot pass unseen.
CubeCounters distinct_counters() {
  CubeCounters c;
  std::uint64_t v = 1000;
  for (const CounterField& f : kCounterFields) c.*f.member = v += 17;
  c.cascade.add(2);
  return c;
}

// Rows name distinct members in declaration order, which is the digest
// order the golden digests were recorded under, and distinct keys.
TEST(CounterTable, RowsCoverTheScalarsInDeclarationOrder) {
  const CubeCounters c;
  const char* base = reinterpret_cast<const char*>(&c);
  std::set<std::string> keys;
  for (std::size_t i = 0; i < std::size(kCounterFields); ++i) {
    const CounterField& f = kCounterFields[i];
    EXPECT_EQ(reinterpret_cast<const char*>(&(c.*f.member)) - base,
              static_cast<std::ptrdiff_t>(i * sizeof(std::uint64_t)))
        << f.key;
    EXPECT_TRUE(keys.insert(f.key).second) << "duplicate key " << f.key;
  }
}

TEST(CounterTable, EachRowSeparatesEqualityAndDigest) {
  const CubeCounters base = distinct_counters();
  for (const CounterField& f : kCounterFields) {
    CubeCounters other = base;
    other.*f.member += 1;
    EXPECT_FALSE(base == other) << f.key;
    EXPECT_TRUE(base != other) << f.key;
    EXPECT_NE(base.digest(), other.digest()) << f.key;
  }
  EXPECT_TRUE(base == distinct_counters());
  EXPECT_EQ(base.digest(), distinct_counters().digest());
}

TEST(CounterTable, MergeFoldsEachRowAsItsRowSays) {
  for (const CounterField& f : kCounterFields) {
    for (const bool larger_first : {true, false}) {
      CubeCounters a, b;
      a.*f.member = larger_first ? 5 : 3;
      b.*f.member = larger_first ? 3 : 5;
      a.merge(b);
      EXPECT_EQ(a.*f.member, f.fold == CounterFold::kSum ? 8u : 5u) << f.key;
      for (const CounterField& g : kCounterFields) {
        if (g.member == f.member) continue;
        EXPECT_EQ(a.*g.member, 0u) << g.key;
      }
    }
  }
}

// The stats writer and read_stats agree on every row: each value comes
// back under its row's key on the sample, cube and final lines.
TEST(CounterTable, SnapshotLinesCarryEveryRowUnderItsKey) {
  const CubeCounters c = distinct_counters();
  std::ostringstream out;
  StatsSnapshotter snap(out, 1);
  snap.write_header(2, 1, 64, 7, true);
  snap.write_sample(1, 64, c, StageTimes{});
  snap.write_cube(Point{4, 8}, c, LatencyHistogram{});
  snap.write_final(64, 1, c, StageTimes{});
  const StatsDoc doc = read_stats(out.str(), "rows");
  ASSERT_EQ(doc.samples.size(), 1u);
  ASSERT_EQ(doc.cubes.size(), 1u);
  for (const Json* line : {&doc.samples[0], &doc.cubes[0], &doc.final_line}) {
    for (const CounterField& f : kCounterFields)
      EXPECT_EQ(line->at(f.key).as_number(),
                static_cast<double>(c.*f.member))
          << f.key;
    EXPECT_EQ(line->at("msg_total").as_number(),
              static_cast<double>(c.messages_total()));
    EXPECT_EQ(line->at("counters_hash").as_string(), digest_hex(c.digest()));
  }
}

TEST(QueryFloodBound, MatchesLemma331ClosedForm) {
  // s^l * (2r+1)^l at the dimensions the engine serves.
  EXPECT_EQ(query_flood_bound(4, 2, 2), 400u);     // 16 * 25
  EXPECT_EQ(query_flood_bound(2, 2, 3), 1000u);    // 8 * 125
  EXPECT_EQ(query_flood_bound(2, 2, 4), 10000u);   // 16 * 625
  EXPECT_EQ(query_flood_bound(3, 1, 2), 81u);      // 9 * 9
}

// --- the determinism contract -----------------------------------------------

TEST(CounterDeterminism, BitIdenticalAcrossThreadsAndBatches) {
  const auto jobs = test_stream(32, 1500, 23);
  const StreamResult reference =
      serve_stream(2, obs_config(2, 1, 32, true), jobs);
  // The workload must actually exercise the obs-gated fields.
  ASSERT_GT(reference.counters.replacements, 0u);
  ASSERT_GT(reference.counters.comps_finished, 0u);
  ASSERT_GT(reference.counters.max_queries_per_comp, 0u);
  ASSERT_GT(reference.counters.cascade.count(), 0u);
  for (const int threads : {1, 2, 8}) {
    for (const std::int64_t batch : {32, 256}) {
      const StreamResult r =
          serve_stream(2, obs_config(2, threads, batch, true), jobs);
      EXPECT_TRUE(reference.counters == r.counters)
          << "threads=" << threads << " batch=" << batch;
      EXPECT_EQ(reference.counters.digest(), r.counters.digest());
    }
  }
}

TEST(CounterDeterminism, OffPathLeavesOutcomeAndGatedFieldsUntouched) {
  const auto jobs = test_stream(32, 1000, 29);
  const StreamResult off = serve_stream(2, obs_config(2, 2, 64, false), jobs);
  const StreamResult on = serve_stream(2, obs_config(2, 2, 64, true), jobs);
  // Serving outcome is identical with counters on.
  EXPECT_TRUE(off.metrics == on.metrics);
  EXPECT_EQ(off.served_jobs, on.served_jobs);
  EXPECT_EQ(off.failed_jobs, on.failed_jobs);
  EXPECT_TRUE(off.latency == on.latency);
  // Message counts come free from the always-on network stats.
  EXPECT_EQ(off.counters.messages_total(), on.counters.messages_total());
  EXPECT_EQ(off.counters.replacements, on.counters.replacements);
  // The obs-gated fields stay zero on the off path.
  EXPECT_EQ(off.counters.comps_finished, 0u);
  EXPECT_EQ(off.counters.max_queries_per_comp, 0u);
  EXPECT_EQ(off.counters.cascade.count(), 0u);
  EXPECT_EQ(off.counters.enqueued, 0u);
  EXPECT_EQ(off.counters.backlog_peak, 0u);
  // And are live on the on path.
  EXPECT_GT(on.counters.comps_finished, 0u);
  EXPECT_GT(on.counters.cascade.count(), 0u);
}

// --- Lemma 3.3.1: the per-computation query flood ---------------------------

TEST(FloodBound, HoldsAtEveryServedDimension) {
  for (const int dim : {2, 3, 4}) {
    Rng rng(601 + static_cast<std::uint64_t>(dim));
    const auto jobs = collect_jobs([&rng, dim](const JobSink& sink) {
      bursty_hotspot_stream(dim, 2, 3, 800, 24, rng, sink);
    });
    StreamConfig cfg = obs_config(dim, 2, 128, true);
    cfg.online.capacity = 6.0;
    cfg.online.cube_side = 2;
    const StreamResult r = serve_stream(dim, cfg, jobs);
    ASSERT_GT(r.counters.comps_finished, 0u) << "dim=" << dim;
    ASSERT_GT(r.counters.max_queries_per_comp, 0u) << "dim=" << dim;
    const std::uint64_t bound = query_flood_bound(
        cfg.online.cube_side, cfg.online.neighbor_radius, dim);
    EXPECT_LE(r.counters.max_queries_per_comp, bound) << "dim=" << dim;
  }
}

TEST(Cascade, OneSamplePerServedJobBoundedByReplacements) {
  const auto jobs = test_stream(32, 1200, 31);
  const StreamResult r = serve_stream(2, obs_config(2, 2, 64, true), jobs);
  ASSERT_GT(r.counters.replacements, 0u);
  // Exactly one cascade sample per served job...
  EXPECT_EQ(r.counters.cascade.count(), r.metrics.jobs_served);
  // ...and no single job's cascade can exceed the run's replacements.
  EXPECT_LE(static_cast<std::uint64_t>(r.counters.cascade.observed_max()),
            r.counters.replacements);
  EXPECT_EQ(r.counters.cascade.overflow_count(), 0u);
}

// --- the JSONL snapshotter --------------------------------------------------

std::vector<std::string> split_lines(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line))
    if (!line.empty()) lines.push_back(line);
  return lines;
}

// A sample/final line up to (excluding) its wall block — stats_fields
// declares the stage times and wall_rss_kb wall, and the writer emits
// them last, so cutting at `,"stage_` leaves exactly the Tier-A prefix.
std::string tier_a_prefix(const std::string& line) {
  const std::size_t cut = line.find(",\"stage_");
  return cut == std::string::npos ? line : line.substr(0, cut);
}

std::string snapshot_run(const std::vector<Job>& jobs, int threads,
                         std::int64_t stride) {
  std::ostringstream out;
  StatsSnapshotter snap(out, stride);
  StreamEngine engine(2, obs_config(2, threads, 64, true));
  engine.set_snapshotter(&snap);
  engine.ingest(jobs);
  engine.finish();
  return out.str();
}

// Each sample line must carry every key the writer emits: a stream whose
// samples lost their `jobs` key is rejected naming the file and the byte
// offset (the comparator matches samples by that key), and a copy that
// keeps its keys but raises one heartbeat count is exactly one drift.
TEST(Snapshotter, SampleLinesNeedEveryKeyTheWriterEmits) {
  const std::string text = snapshot_run(test_stream(32, 4700, 41), 1, 8);
  std::string stripped, bumped;
  std::size_t samples = 0;
  std::size_t first_sample_at = std::string::npos;
  for (const std::string& line : split_lines(text)) {
    std::string cut = line, raised = line;
    if (line.find("\"kind\":\"sample\"") != std::string::npos) {
      if (samples++ == 0) first_sample_at = stripped.size();
      const std::size_t jobs = cut.find("\"jobs\":");
      ASSERT_NE(jobs, std::string::npos) << line;
      cut.erase(jobs, cut.find(',', jobs) + 1 - jobs);
      if (samples == 5) {  // one heartbeat more in one sample
        const std::string key = "\"msg_heartbeats\":";
        const std::size_t at = raised.find(key) + key.size();
        const std::size_t end = raised.find(',', at);
        raised.replace(at, end - at,
                       std::to_string(std::stoull(raised.substr(at)) + 1));
      }
    }
    stripped += cut + "\n";
    bumped += raised + "\n";
  }
  ASSERT_EQ(samples, 9u);
  try {
    read_stats(stripped, "stripped.jsonl");
    FAIL() << "a sample line without \"jobs\" was accepted";
  } catch (const check_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("stripped.jsonl"), std::string::npos) << what;
    EXPECT_NE(what.find("at byte " + std::to_string(first_sample_at)),
              std::string::npos)
        << what;
    EXPECT_NE(what.find("no \"jobs\" key"), std::string::npos) << what;
  }
  const CompareReport rep =
      compare_stats_streams(text, bumped, CompareOptions{});
  EXPECT_EQ(rep.drift, 1u);
  EXPECT_EQ(rep.exit_code(), 1);
}

TEST(Snapshotter, EmitsWellFormedSchemaStream) {
  const auto jobs = test_stream(16, 600, 37);
  std::ostringstream out;
  StatsSnapshotter snap(out, 2);
  StreamEngine engine(2, obs_config(2, 2, 64, true));
  engine.set_snapshotter(&snap);
  engine.ingest(jobs);
  const StreamResult r = engine.finish();
  const auto lines = split_lines(out.str());
  ASSERT_EQ(lines.size(), snap.lines_written());
  // header first, final last, every line a JSON object.
  EXPECT_NE(lines.front().find("\"kind\":\"header\""), std::string::npos);
  EXPECT_NE(lines.front().find(kStatsSchema), std::string::npos);
  EXPECT_NE(lines.back().find("\"kind\":\"final\""), std::string::npos);
  std::size_t cube_lines = 0;
  for (const auto& line : lines) {
    EXPECT_EQ(line.front(), '{');
    EXPECT_EQ(line.back(), '}');
    if (line.find("\"kind\":\"cube\"") != std::string::npos) ++cube_lines;
  }
  EXPECT_EQ(cube_lines, r.cubes);
  // Ingesting 600 jobs at batch 64 = 10 batches; stride 2 -> 5 samples.
  std::size_t samples = 0;
  for (const auto& line : lines)
    if (line.find("\"kind\":\"sample\"") != std::string::npos) ++samples;
  EXPECT_EQ(samples, 5u);
}

TEST(Snapshotter, TierALinesAreThreadCountInvariant) {
  const auto jobs = test_stream(16, 600, 41);
  const auto one = split_lines(snapshot_run(jobs, 1, 2));
  const auto two = split_lines(snapshot_run(jobs, 2, 2));
  ASSERT_EQ(one.size(), two.size());
  // Skip the header (it names the thread count by design); compare
  // every other line with its wall block stripped.
  for (std::size_t i = 1; i < one.size(); ++i)
    EXPECT_EQ(tier_a_prefix(one[i]), tier_a_prefix(two[i])) << "line " << i;
}

// read_stats gives back what an engine run wrote: one cube line per
// cube in the writer's ascending-corner order, every sample, and final
// totals equal to the run's own counters.
TEST(Snapshotter, ReadStatsReturnsTheRunInFileOrder) {
  const auto jobs = test_stream(16, 600, 37);
  std::ostringstream out;
  StatsSnapshotter snap(out, 2);
  StreamEngine engine(2, obs_config(2, 2, 64, true));
  engine.set_snapshotter(&snap);
  engine.ingest(jobs);
  const StreamResult r = engine.finish();
  const StatsDoc doc = read_stats(out.str(), "run");
  EXPECT_EQ(doc.header.at("schema").as_string(), kStatsSchema);
  EXPECT_EQ(doc.samples.size(), 5u);
  ASSERT_EQ(doc.cubes.size(), r.cubes);
  const auto per_cube = engine.per_cube_metrics();
  ASSERT_EQ(per_cube.size(), doc.cubes.size());
  for (std::size_t i = 0; i < doc.cubes.size(); ++i) {
    const Json& corner = doc.cubes[i].at("corner");
    EXPECT_EQ(corner.at(0).as_number(),
              static_cast<double>(per_cube[i].first[0]));
    EXPECT_EQ(corner.at(1).as_number(),
              static_cast<double>(per_cube[i].first[1]));
  }
  for (const CounterField& f : kCounterFields)
    EXPECT_EQ(doc.final_line.at(f.key).as_number(),
              static_cast<double>(r.counters.*f.member))
        << f.key;
}

// A header, cube or final line without a key the writer puts on it is
// rejected, naming the stream, the line's byte offset and the key: each
// key of one written line of each kind is dropped in turn. (A header
// without its schema is an unsupported schema, covered in
// obs_compare_test.)
TEST(Snapshotter, ReadStatsNamesEveryMissingHeaderCubeAndFinalKey) {
  std::ostringstream out;
  StatsSnapshotter snap(out, 1);
  snap.write_header(2, 1, 64, 7, true);
  snap.write_cube(Point{4, 8}, distinct_counters(), LatencyHistogram{});
  snap.write_final(64, 1, distinct_counters(), StageTimes{});
  const std::vector<std::string> lines = split_lines(out.str());
  ASSERT_EQ(lines.size(), 3u);
  std::size_t at = 0;  // byte offset of lines[i]
  for (std::size_t i = 0; i < lines.size(); ++i) {
    const Json line = Json::parse(lines[i]);
    const std::string kind = line.at("kind").as_string();
    for (const auto& [key, value] : line.items()) {
      if (key == "kind" || key == "schema") continue;
      Json without = Json::object();
      for (const auto& [k, v] : line.items())
        if (k != key) without.set(k, v);
      std::string text;
      for (std::size_t j = 0; j < lines.size(); ++j)
        text += (j == i ? without.dump() : lines[j]) + "\n";
      try {
        read_stats(text, "s.jsonl");
        ADD_FAILURE() << kind << " line accepted without \"" << key << "\"";
      } catch (const check_error& e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("s.jsonl at byte " + std::to_string(at)),
                  std::string::npos)
            << what;
        EXPECT_NE(what.find(kind + " line has no \"" + key + "\" key"),
                  std::string::npos)
            << what;
      }
    }
    at += lines[i].size() + 1;
  }
}

TEST(Snapshotter, StrideMustBePositive) {
  std::ostringstream out;
  EXPECT_THROW(StatsSnapshotter(out, 0), check_error);
  EXPECT_THROW(StatsSnapshotter(out, -3), check_error);
}

// --- Tier-C spans -----------------------------------------------------------

struct SpanRun {
  StreamResult result;
  std::string spool;   // binary spool bytes
  std::string chrome;  // Chrome trace-event JSON (wall_ms pinned to 0)
};

SpanRun span_run(const std::vector<Job>& jobs, int threads,
                 std::int64_t batch, std::int64_t sample,
                 std::int64_t flight) {
  StreamConfig cfg = obs_config(2, threads, batch, true);
  cfg.online.obs.spans = true;
  cfg.online.obs.span_sample = sample;
  cfg.online.obs.flight = flight;
  StreamEngine engine(2, cfg);
  engine.ingest(jobs);
  SpanRun run;
  run.result = engine.finish();
  std::ostringstream spool, chrome;
  write_span_spool(spool, 2, engine.span_sources());
  export_chrome_trace(chrome, 2, engine.span_sources(), 0.0);
  run.spool = spool.str();
  run.chrome = chrome.str();
  return run;
}

std::string span_temp_file(const char* name, const std::string& bytes) {
  const std::string path = testing::TempDir() + name;
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << bytes;
  return path;
}

// The PR's acceptance bar: a saturating scenario's exported trace —
// spool AND Chrome JSON — is byte-identical across thread counts {1,2,8}
// and batch sizes {32,256}. wall_ms is pinned to 0 here; the CLI-level
// guard skips the wall line instead (exp/compare.h, kind=spans).
TEST(SpanDeterminism, ExportsBitIdenticalAcrossThreadsAndBatches) {
  const auto jobs = test_stream(32, 1500, 23);
  const SpanRun ref = span_run(jobs, 1, 32, 1, 0);
  ASSERT_GT(ref.result.counters.spans_emitted, 0u);
  ASSERT_GT(ref.result.counters.replacements, 0u);  // saturating
  for (const int threads : {1, 2, 8}) {
    for (const std::int64_t batch : {32, 256}) {
      const SpanRun r = span_run(jobs, threads, batch, 1, 0);
      EXPECT_EQ(ref.spool, r.spool)
          << "threads=" << threads << " batch=" << batch;
      EXPECT_EQ(ref.chrome, r.chrome)
          << "threads=" << threads << " batch=" << batch;
    }
  }
}

TEST(SpanSampling, DeterministicSkipsEveryKthComputation) {
  const auto jobs = test_stream(32, 1500, 23);
  const SpanRun full = span_run(jobs, 2, 64, 1, 0);
  const SpanRun a = span_run(jobs, 1, 256, 4, 0);
  const SpanRun b = span_run(jobs, 8, 32, 4, 0);
  // Sampling is per-cube-deterministic, so the sampled trace is still
  // bit-identical across threads and batches.
  EXPECT_EQ(a.spool, b.spool);
  EXPECT_EQ(a.chrome, b.chrome);
  EXPECT_GT(a.result.counters.spans_sampled_out, 0u);
  EXPECT_LT(a.result.counters.spans_emitted,
            full.result.counters.spans_emitted);
  // Sampling never changes serving outcomes.
  EXPECT_TRUE(full.result.metrics == a.result.metrics);
  EXPECT_EQ(full.result.served_jobs, a.result.served_jobs);
}

TEST(SpanFlightRing, BoundsPerCubeStorageAndCountsEvictions) {
  const auto jobs = test_stream(32, 1500, 23);
  const SpanRun r = span_run(jobs, 2, 64, 1, 16);
  EXPECT_GT(r.result.counters.spans_ring_evicted, 0u);
  const std::string path = span_temp_file("obs_flight.bin", r.spool);
  const SpanSpool spool = read_span_spool(path);
  for (const CubeSpans& cube : spool.cubes) {
    EXPECT_LE(cube.events.size(), 16u);
    // emitted counts pre-eviction appends; the ring never holds more
    // than emitted - evicted.
    EXPECT_EQ(cube.events.size(),
              cube.totals.emitted - cube.totals.ring_evicted);
  }
  EXPECT_EQ(spool.totals.emitted, r.result.counters.spans_emitted);
  EXPECT_EQ(spool.totals.ring_evicted,
            r.result.counters.spans_ring_evicted);
}

TEST(SpanOffPath, OutcomeInvariantAndSourcesEmpty) {
  const auto jobs = test_stream(32, 1000, 29);
  StreamEngine off_engine(2, obs_config(2, 2, 64, true));
  off_engine.ingest(jobs);
  const StreamResult off = off_engine.finish();
  EXPECT_TRUE(off_engine.span_sources().empty());
  EXPECT_EQ(off.counters.spans_emitted, 0u);
  EXPECT_EQ(off.counters.spans_sampled_out, 0u);
  EXPECT_EQ(off.counters.spans_ring_evicted, 0u);
  // Turning spans on cannot change serving outcomes.
  const SpanRun on = span_run(jobs, 2, 64, 1, 0);
  EXPECT_TRUE(off.metrics == on.result.metrics);
  EXPECT_EQ(off.served_jobs, on.result.served_jobs);
  EXPECT_EQ(off.failed_jobs, on.result.failed_jobs);
  EXPECT_TRUE(off.latency == on.result.latency);
}

TEST(SpanSpoolReader, RoundTripsEventsRegistryAndTotals) {
  const auto jobs = test_stream(16, 600, 37);
  StreamConfig cfg = obs_config(2, 2, 64, true);
  cfg.online.obs.spans = true;
  StreamEngine engine(2, cfg);
  engine.ingest(jobs);
  engine.finish();
  const auto sources = engine.span_sources();
  ASSERT_FALSE(sources.empty());
  std::ostringstream out;
  write_span_spool(out, 2, sources);
  const std::string path = span_temp_file("obs_roundtrip.bin", out.str());
  const SpanSpool spool = read_span_spool(path);
  ASSERT_EQ(spool.cubes.size(), sources.size());
  EXPECT_EQ(spool.dim, 2);
  for (std::size_t i = 0; i < sources.size(); ++i) {
    const CubeSpans& cube = spool.cubes[i];
    const SpanRecorder& rec = *sources[i].recorder;
    EXPECT_EQ(cube.corner, sources[i].corner);
    EXPECT_EQ(cube.pid, sources[i].pid);
    EXPECT_EQ(cube.events, rec.snapshot());
    ASSERT_EQ(cube.pair_of.size(), rec.vehicle_count());
    for (std::size_t v = 0; v < cube.pair_of.size(); ++v)
      EXPECT_EQ(cube.pair_of[v],
                rec.pair_of(static_cast<std::uint32_t>(v)));
  }
}

TEST(SpanSpoolReader, RejectsTruncationNamingTheByteOffset) {
  const auto jobs = test_stream(16, 400, 43);
  const SpanRun r = span_run(jobs, 1, 64, 1, 0);
  const std::string half = r.spool.substr(0, r.spool.size() / 2);
  const std::string path = span_temp_file("obs_truncated.bin", half);
  try {
    read_span_spool(path);
    FAIL() << "truncated spool was accepted";
  } catch (const check_error& e) {
    EXPECT_NE(std::string(e.what()).find("truncated at byte"),
              std::string::npos)
        << e.what();
  }
  // A wrong magic byte is named too.
  std::string bad = r.spool;
  bad[0] = 'X';
  const std::string bad_path = span_temp_file("obs_badmagic.bin", bad);
  EXPECT_THROW(read_span_spool(bad_path), check_error);
}

std::map<std::uint64_t, std::vector<SpanEvent>> events_by_pid(
    const SpanSpool& spool) {
  std::map<std::uint64_t, std::vector<SpanEvent>> out;
  for (const CubeSpans& cube : spool.cubes) out[cube.pid] = cube.events;
  return out;
}

// One run exported both ways reads back the same: events per pid, the
// run's dim and totals, and every number prof derives from them — so
// `prof` reports the same on either file.
TEST(SpanReaders, ChromeAndSpoolReadBackTheSameRun) {
  const auto jobs = test_stream(32, 1500, 23);
  for (const std::int64_t sample : {1, 4}) {
    const SpanRun run = span_run(jobs, 2, 64, sample, sample == 1 ? 0 : 16);
    const SpanSpool spool =
        read_span_spool(span_temp_file("obs_formats.bin", run.spool));
    const SpanSpool chrome =
        read_chrome_trace(span_temp_file("obs_formats.json", run.chrome));
    ASSERT_FALSE(spool.cubes.empty());
    EXPECT_EQ(chrome.dim, spool.dim);
    EXPECT_EQ(chrome.totals.emitted, spool.totals.emitted);
    EXPECT_EQ(chrome.totals.sampled_out, spool.totals.sampled_out);
    EXPECT_EQ(chrome.totals.ring_evicted, spool.totals.ring_evicted);
    EXPECT_EQ(spool.totals.emitted, run.result.counters.spans_emitted);
    EXPECT_TRUE(events_by_pid(chrome) == events_by_pid(spool))
        << "sample=" << sample;

    const ProfReport a = profile_spans(spool.cubes, 5);
    const ProfReport b = profile_spans(chrome.cubes, 5);
    EXPECT_EQ(a.cubes, b.cubes);
    EXPECT_EQ(a.events, b.events);
    EXPECT_EQ(a.comps, b.comps);
    EXPECT_EQ(a.comps_finished, b.comps_finished);
    EXPECT_EQ(a.comps_found, b.comps_found);
    EXPECT_EQ(a.query_sends, b.query_sends);
    EXPECT_EQ(a.attributed_queries, b.attributed_queries);
    EXPECT_EQ(a.replacements, b.replacements);
    EXPECT_EQ(a.breadth_by_hop, b.breadth_by_hop);
    EXPECT_TRUE(a.depth == b.depth);
    EXPECT_TRUE(a.critical == b.critical);
    EXPECT_TRUE(a.flood_width == b.flood_width);
    ASSERT_EQ(a.widest.size(), b.widest.size());
    for (std::size_t i = 0; i < a.widest.size(); ++i) {
      EXPECT_EQ(a.widest[i].pid, b.widest[i].pid);
      EXPECT_EQ(a.widest[i].comp, b.widest[i].comp);
      EXPECT_EQ(a.widest[i].queries, b.widest[i].queries);
      EXPECT_EQ(a.widest[i].relays, b.widest[i].relays);
      EXPECT_EQ(a.widest[i].depth, b.widest[i].depth);
      EXPECT_EQ(a.widest[i].critical_path, b.widest[i].critical_path);
      EXPECT_EQ(a.widest[i].finished, b.widest[i].finished);
      EXPECT_EQ(a.widest[i].found, b.widest[i].found);
    }
  }
}

TEST(SpanReaders, ChromeReaderRejectsAnExportWithoutItsTrailer) {
  const std::string path =
      span_temp_file("obs_no_trailer.json", "[\n{\"ph\":\"M\",\"pid\":0,"
                                            "\"name\":\"wall_ms\",\"args\":"
                                            "{\"wall_ms\":1.0}}\n]\n");
  try {
    read_chrome_trace(path);
    FAIL() << "an export without its totals trailer was accepted";
  } catch (const check_error& e) {
    EXPECT_NE(std::string(e.what()).find(path), std::string::npos)
        << e.what();
  }
  EXPECT_THROW(read_chrome_trace(span_temp_file("obs_cut.json", "[\n{\"ph\"")),
               check_error);
}

// The prof acceptance bar: at sampling K=1, >= 95% of counted Phase I
// queries (CubeCounters::msg_queries) attribute to a computation tree —
// in fact 100%, because the span hook and the counter hook sit at the
// same send site and every query carries its InitTag.
TEST(Prof, AttributesQueriesAndMeasuresCriticalPaths) {
  const auto jobs = test_stream(32, 1500, 23);
  const SpanRun run = span_run(jobs, 2, 64, 1, 0);
  const std::string path = span_temp_file("obs_prof.bin", run.spool);
  const SpanSpool spool = read_span_spool(path);
  const ProfReport rep = profile_spans(spool.cubes, 3);
  ASSERT_GT(rep.comps, 0u);
  EXPECT_EQ(rep.query_sends, run.result.counters.msg_queries);
  EXPECT_EQ(rep.attributed_queries, rep.query_sends);
  EXPECT_GE(rep.attribution_ratio(), 0.95);
  EXPECT_EQ(rep.comps, run.result.counters.comps_started);
  EXPECT_EQ(rep.comps_finished, run.result.counters.comps_finished);
  EXPECT_EQ(rep.replacements, run.result.counters.replacements);
  // Per-replacement critical paths on the protocol clock.
  EXPECT_EQ(rep.critical.count(), rep.comps_finished);
  EXPECT_GT(rep.critical.observed_max(), 0);
  EXPECT_GT(rep.depth.observed_max(), 0);
  // Fan-out breadth by hop partitions the attributed query sends.
  std::uint64_t hop_sum = 0;
  for (const std::uint64_t b : rep.breadth_by_hop) hop_sum += b;
  EXPECT_EQ(hop_sum, rep.attributed_queries);
  // Widest floods are sorted by query count, descending.
  ASSERT_EQ(rep.widest.size(), 3u);
  EXPECT_GE(rep.widest[0].queries, rep.widest[1].queries);
  EXPECT_GE(rep.widest[1].queries, rep.widest[2].queries);
  EXPECT_EQ(static_cast<std::uint64_t>(rep.flood_width.observed_max()),
            rep.widest[0].queries);
}

TEST(SpanRecorder, GuardsConstructionParameters) {
  EXPECT_THROW(SpanRecorder(0, 0), check_error);
  EXPECT_THROW(SpanRecorder(-2, 0), check_error);
  EXPECT_THROW(SpanRecorder(1, -1), check_error);
}

}  // namespace
}  // namespace cmvrp
