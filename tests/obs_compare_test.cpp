#include <gtest/gtest.h>

#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "exp/compare.h"
#include "grid/point.h"
#include "metrics/latency_histogram.h"
#include "obs/counters.h"
#include "obs/snapshot.h"
#include "obs/span_export.h"
#include "obs/stage_timer.h"
#include "stream/engine.h"
#include "stream/report.h"
#include "util/check.h"
#include "util/json.h"
#include "util/rng.h"
#include "workload/generators.h"
#include "workload/stream_gen.h"

namespace cmvrp {
namespace {

// Minimal cmvrp-stream-v6-shaped report: the comparator walks whatever
// keys exist, so a handful of fields per class is a full exercise.
Json stream_report(std::int64_t threads, std::uint64_t msg_queries,
                   double wall_ms, double jobs_per_sec) {
  Json doc = Json::object();
  doc.set("schema", kStreamSchema);
  doc.set("seed", std::uint64_t{7});
  doc.set("threads", threads);
  doc.set("served", std::uint64_t{20000});
  doc.set("served_hash", "15f19771ff7ce3f5");
  doc.set("msg_queries", msg_queries);
  doc.set("wall_ms", wall_ms);
  doc.set("jobs_per_sec", jobs_per_sec);
  return doc;
}

CompareOptions defaults() { return CompareOptions{}; }

TEST(StreamCompare, IdenticalReportsCompareClean) {
  const Json a = stream_report(1, 100, 10.0, 2000.0);
  const CompareReport rep = compare_stream_reports(a, a, defaults());
  EXPECT_TRUE(rep.clean());
  EXPECT_EQ(rep.exit_code(), 0);
  EXPECT_EQ(rep.drift, 0u);
  EXPECT_GT(rep.fields_compared, 0u);
}

// The acceptance-criterion shape: threads differ (context), wall fields
// differ wildly (warn-only) — still exit 0.
TEST(StreamCompare, ThreadCountAndWallTimeNeverFail) {
  const Json a = stream_report(1, 100, 10.0, 2000.0);
  const Json b = stream_report(8, 100, 30.0, 700.0);
  const CompareReport rep = compare_stream_reports(a, b, defaults());
  EXPECT_TRUE(rep.clean());
  EXPECT_EQ(rep.exit_code(), 0);
  EXPECT_GE(rep.context_diffs, 1u);  // threads
  EXPECT_GE(rep.warns, 1u);          // 3x wall regression warns
  EXPECT_EQ(rep.wall_fails, 0u);     // fail_ratio 0: wall never fails
  EXPECT_EQ(rep.worst_wall_field, "wall_ms");
  EXPECT_NEAR(rep.worst_wall_ratio, 3.0, 1e-9);
}

TEST(StreamCompare, DeterministicCounterDriftExitsOne) {
  const Json a = stream_report(1, 100, 10.0, 2000.0);
  const Json b = stream_report(1, 101, 10.0, 2000.0);
  const CompareReport rep = compare_stream_reports(a, b, defaults());
  EXPECT_FALSE(rep.clean());
  EXPECT_EQ(rep.exit_code(), 1);
  EXPECT_EQ(rep.drift, 1u);
  ASSERT_EQ(rep.diffs.size(), 1u);
  EXPECT_EQ(rep.diffs[0].path, "msg_queries");
  EXPECT_EQ(rep.diffs[0].cls, FieldClass::kDeterministic);
  EXPECT_EQ(rep.diffs[0].verdict, FieldVerdict::kFail);
}

// Every counter row is a deterministic field of the stream report, so a
// drift in any one fails.
TEST(StreamCompare, EveryCounterRowIsDeterministic) {
  for (const CounterField& f : kCounterFields) {
    Json a = stream_report(1, 100, 10.0, 2000.0);
    Json b = stream_report(1, 100, 10.0, 2000.0);
    a.set(f.key, std::uint64_t{5});
    b.set(f.key, std::uint64_t{6});
    const CompareReport rep = compare_stream_reports(a, b, defaults());
    EXPECT_EQ(rep.exit_code(), 1) << f.key;
    EXPECT_EQ(rep.drift, 1u) << f.key;
    ASSERT_EQ(rep.diffs.size(), 1u) << f.key;
    EXPECT_EQ(rep.diffs[0].path, f.key);
    EXPECT_EQ(rep.diffs[0].cls, FieldClass::kDeterministic) << f.key;
  }
}

TEST(StreamCompare, DigestDriftExitsOne) {
  const Json a = stream_report(1, 100, 10.0, 2000.0);
  Json b = stream_report(1, 100, 10.0, 2000.0);
  b.set("served_hash", "deadbeefdeadbeef");
  const CompareReport rep = compare_stream_reports(a, b, defaults());
  EXPECT_EQ(rep.exit_code(), 1);
  ASSERT_EQ(rep.diffs.size(), 1u);
  EXPECT_EQ(rep.diffs[0].path, "served_hash");
}

TEST(StreamCompare, SchemaMismatchAborts) {
  const Json a = stream_report(1, 100, 10.0, 2000.0);
  Json b = stream_report(1, 100, 10.0, 2000.0);
  b.set("schema", "cmvrp-stream-v2");
  EXPECT_THROW(compare_stream_reports(a, b, defaults()), check_error);
}

TEST(StreamCompare, SeedMismatchAborts) {
  const Json a = stream_report(1, 100, 10.0, 2000.0);
  Json b = stream_report(1, 100, 10.0, 2000.0);
  b.set("seed", std::uint64_t{8});
  EXPECT_THROW(compare_stream_reports(a, b, defaults()), check_error);
}

TEST(StreamCompare, MissingAndExtraDeterministicKeysAreDrift) {
  Json a = stream_report(1, 100, 10.0, 2000.0);
  Json b = stream_report(1, 100, 10.0, 2000.0);
  a.set("only_in_a", std::uint64_t{1});
  b.set("only_in_b", std::uint64_t{2});
  const CompareReport rep = compare_stream_reports(a, b, defaults());
  EXPECT_EQ(rep.drift, 2u);
  EXPECT_EQ(rep.exit_code(), 1);
}

TEST(StreamCompare, IgnoreListSuppressesAField) {
  const Json a = stream_report(1, 100, 10.0, 2000.0);
  const Json b = stream_report(1, 101, 10.0, 2000.0);
  CompareOptions opt;
  opt.ignore = {"msg_queries"};
  const CompareReport rep = compare_stream_reports(a, b, opt);
  EXPECT_TRUE(rep.clean());
  EXPECT_EQ(rep.exit_code(), 0);
}

// --- wall-field semantics ----------------------------------------------------

TEST(WallCompare, WarnBoundaryIsExclusive) {
  const Json a = stream_report(1, 100, 100.0, 2000.0);
  // Exactly kWallWarnRatio: not a warning (strictly-greater comparison).
  const CompareReport at = compare_stream_reports(
      a, stream_report(1, 100, 125.0, 2000.0), defaults());
  EXPECT_EQ(at.warns, 0u);
  const CompareReport past = compare_stream_reports(
      a, stream_report(1, 100, 126.0, 2000.0), defaults());
  EXPECT_EQ(past.warns, 1u);
  EXPECT_EQ(past.exit_code(), 0);  // warn-only by default
}

TEST(WallCompare, FailRatioGatesWallRegressions) {
  CompareOptions opt;
  opt.fail_ratio = 1.5;
  const Json a = stream_report(1, 100, 100.0, 2000.0);
  const CompareReport under = compare_stream_reports(
      a, stream_report(1, 100, 149.0, 2000.0), opt);
  EXPECT_EQ(under.wall_fails, 0u);
  EXPECT_EQ(under.warns, 1u);  // past kWallWarnRatio, under fail_ratio
  const CompareReport over = compare_stream_reports(
      a, stream_report(1, 100, 160.0, 2000.0), opt);
  EXPECT_EQ(over.wall_fails, 1u);
  EXPECT_EQ(over.exit_code(), 1);
}

TEST(WallCompare, ImprovementIsNeverFlagged) {
  const Json a = stream_report(1, 100, 100.0, 1000.0);
  // Faster wall time AND higher rate: clean either direction.
  const CompareReport rep = compare_stream_reports(
      a, stream_report(1, 100, 40.0, 2500.0), defaults());
  EXPECT_EQ(rep.warns, 0u);
  EXPECT_DOUBLE_EQ(rep.worst_wall_ratio, 1.0);
}

TEST(WallCompare, RateRowsRegressDownward) {
  const Json a = stream_report(1, 100, 100.0, 1000.0);
  // Same wall time, rate dropped to 40%: a 2.5x regression on the rate.
  const CompareReport rep = compare_stream_reports(
      a, stream_report(1, 100, 100.0, 400.0), defaults());
  EXPECT_EQ(rep.warns, 1u);
  EXPECT_EQ(rep.worst_wall_field, "jobs_per_sec");
  EXPECT_NEAR(rep.worst_wall_ratio, 2.5, 1e-9);
}

TEST(WallCompare, SubFloorTimingsAreNoise) {
  CompareOptions opt;  // wall_ms is a millisecond row; kMinWallMs = 5
  const Json a = stream_report(1, 100, 0.5, 0.0);
  // 8x apart but both under the floor: scheduler noise, clean.
  const CompareReport rep =
      compare_stream_reports(a, stream_report(1, 100, 4.0, 0.0), opt);
  EXPECT_EQ(rep.warns, 0u);
  // One side above the floor: compared normally.
  const CompareReport loud =
      compare_stream_reports(a, stream_report(1, 100, 6.0, 0.0), opt);
  EXPECT_EQ(loud.warns, 1u);
}

// --- kind detection and artifact-level entry ---------------------------------

TEST(KindDetection, RecognizesEveryArtifactSchema) {
  EXPECT_EQ(detect_compare_kind(stream_report(1, 1, 1.0, 1.0).dump(), "A"),
            CompareKind::kStream);
  // Any version, so an older report compares under --ignore schema,...
  Json v5 = stream_report(1, 1, 1.0, 1.0);
  v5.set("schema", "cmvrp-stream-v5");
  EXPECT_EQ(detect_compare_kind(v5.dump(), "A"), CompareKind::kStream);
  Json bench = Json::object();
  bench.set("schema", "cmvrp-bench-v1");
  bench.set("suite", "s");
  EXPECT_EQ(detect_compare_kind(bench.dump(), "A"), CompareKind::kBench);
  EXPECT_EQ(detect_compare_kind("[]", "A"), CompareKind::kSpans);
  const std::string stats =
      "{\"kind\":\"header\",\"schema\":\"cmvrp-stats-v1\",\"dim\":2}\n"
      "{\"kind\":\"final\",\"jobs\":10}\n";
  EXPECT_EQ(detect_compare_kind(stats, "A"), CompareKind::kStats);
}

TEST(KindDetection, EmptyInputThrowsNamingTheLabel) {
  try {
    detect_compare_kind("", "empty.json");
    FAIL() << "expected check_error";
  } catch (const check_error& e) {
    EXPECT_NE(std::string(e.what()).find("empty.json"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("empty"), std::string::npos);
  }
}

TEST(KindDetection, TruncatedJsonThrowsNamingTheOffset) {
  try {
    detect_compare_kind("{\"schema\":\"cmvrp-stream-v6\",\"served\":", "t");
    FAIL() << "expected check_error";
  } catch (const check_error& e) {
    EXPECT_NE(std::string(e.what()).find("offset"), std::string::npos);
  }
}

TEST(KindDetection, MismatchedKindsAbort) {
  const std::string stream = stream_report(1, 1, 1.0, 1.0).dump();
  EXPECT_THROW(
      compare_artifacts(stream, "[]", CompareKind::kAuto, defaults()),
      check_error);
}

TEST(ParseCompareKind, NamesRoundTripAndBadNamesAreUsageErrors) {
  for (const CompareKind k :
       {CompareKind::kAuto, CompareKind::kStream, CompareKind::kStats,
        CompareKind::kBench, CompareKind::kSpans})
    EXPECT_EQ(parse_compare_kind(compare_kind_name(k)), k);
  EXPECT_THROW(parse_compare_kind("bogus"), usage_error);
  // usage_error subclasses check_error so "failed at all" call sites work.
  EXPECT_THROW(parse_compare_kind("bogus"), check_error);
}

// --- bench runs --------------------------------------------------------------

Json bench_case(const std::string& name, double mean, double stddev,
                std::uint64_t served, double rate) {
  Json c = Json::object();
  c.set("name", name);
  Json t = Json::object();
  t.set("reps", 3);
  t.set("mean", mean);
  t.set("stddev", stddev);
  t.set("min", mean - stddev);
  t.set("max", mean + stddev);
  c.set("time_ms", t);
  Json m = Json::object();
  m.set("served", served);
  m.set("jobs/sec", rate);
  m.set("hw threads", std::int64_t{8});
  c.set("metrics", m);
  return c;
}

Json bench_run(double mean, double stddev, std::uint64_t served,
               double rate) {
  Json doc = Json::object();
  doc.set("schema", "cmvrp-bench-v1");
  doc.set("suite", "stream_scaling");
  Json options = Json::object();
  options.set("reps", 3);
  doc.set("options", options);
  doc.set("failed", false);
  Json cases = Json::array();
  cases.push_back(bench_case("threads=1", mean, stddev, served, rate));
  Json section = Json::object();
  section.set("name", "threads");
  section.set("cases", cases);
  Json sections = Json::array();
  sections.push_back(section);
  doc.set("sections", sections);
  return doc;
}

TEST(BenchCompare, MeanShiftWithinSigmaMarginIsNoise) {
  const Json a = bench_run(100.0, 10.0, 20000, 1000.0);
  // +25 ms is a 1.25x ratio but within 3 sigma of stddev 10: clean.
  const Json b = bench_run(125.0, 10.0, 20000, 1000.0);
  const CompareReport rep = compare_bench_runs(a, b, defaults());
  EXPECT_TRUE(rep.clean());
  EXPECT_EQ(rep.warns, 0u);
}

TEST(BenchCompare, MeanShiftPastSigmaAndRatioWarns) {
  const Json a = bench_run(100.0, 1.0, 20000, 1000.0);
  const Json b = bench_run(200.0, 1.0, 20000, 1000.0);
  const CompareReport rep = compare_bench_runs(a, b, defaults());
  EXPECT_TRUE(rep.clean());  // warn-only without --fail-ratio
  EXPECT_EQ(rep.warns, 1u);
  EXPECT_EQ(rep.worst_wall_field, "sections[threads].cases[threads=1].time_ms");
}

TEST(BenchCompare, DeterministicMetricDriftFails) {
  const Json a = bench_run(100.0, 10.0, 20000, 1000.0);
  const Json b = bench_run(100.0, 10.0, 19999, 1000.0);
  const CompareReport rep = compare_bench_runs(a, b, defaults());
  EXPECT_EQ(rep.exit_code(), 1);
  ASSERT_EQ(rep.diffs.size(), 1u);
  EXPECT_EQ(rep.diffs[0].path,
            "sections[threads].cases[threads=1].metrics.served");
}

TEST(BenchCompare, MissingCaseIsDriftAndContextFieldsAreNot) {
  const Json a = bench_run(100.0, 10.0, 20000, 1000.0);
  Json b = bench_run(100.0, 10.0, 20000, 1000.0);
  // Drop B's only case; also note "hw threads" is declared context —
  // checked implicitly since a/b carry it and identical runs are clean.
  Json empty_cases = Json::array();
  Json section = Json::object();
  section.set("name", "threads");
  section.set("cases", empty_cases);
  Json sections = Json::array();
  sections.push_back(section);
  b.set("sections", sections);
  const CompareReport rep = compare_bench_runs(a, b, defaults());
  EXPECT_EQ(rep.exit_code(), 1);
  EXPECT_GE(rep.drift, 1u);
}

// A `substrates`-shaped run: one looped case (us/iter) and one layer
// case (ns/op), each with the deterministic `value` it computed.
// `time_stddev` is each case's time_ms spread around its 40-ms mean.
Json substrates_run(double us_per_iter, double ns_per_op, double value,
                    double time_stddev = 0.0) {
  const auto timed_case = [time_stddev](const std::string& name,
                                        const char* count_key,
                                        const char* timing_key, double timing,
                                        double v) {
    Json c = Json::object();
    c.set("name", name);
    Json t = Json::object();
    t.set("reps", time_stddev > 0.0 ? 3 : 1);
    t.set("mean", 40.0);
    t.set("stddev", time_stddev);
    t.set("min", 40.0);
    t.set("max", 40.0);
    c.set("time_ms", t);
    Json m = Json::object();
    m.set(count_key, std::int64_t{2000000});
    m.set(timing_key, timing);
    m.set("value", v);
    c.set("metrics", m);
    return c;
  };
  Json cases = Json::array();
  cases.push_back(timed_case("snake_index_round_trip/s=64", "iters", "us/iter",
                             us_per_iter, 32.0));
  cases.push_back(timed_case("network_send/heartbeat", "ops", "ns/op",
                             ns_per_op, value));
  Json section = Json::object();
  section.set("name", "main");
  section.set("cases", cases);
  Json sections = Json::array();
  sections.push_back(section);
  Json doc = Json::object();
  doc.set("schema", "cmvrp-bench-v1");
  doc.set("suite", "substrates");
  doc.set("failed", false);
  doc.set("sections", sections);
  return doc;
}

TEST(BenchCompare, PerIterationTimingsAreWallFields) {
  const Json a = substrates_run(0.035, 19.5, 2000000.0);
  // Slower and faster per-iteration timings: a speed change, not drift.
  const CompareReport rep =
      compare_bench_runs(a, substrates_run(0.050, 12.0, 2000000.0), defaults());
  EXPECT_EQ(rep.exit_code(), 0);
  EXPECT_EQ(rep.drift, 0u);
  EXPECT_EQ(rep.wall_fields, 4u);  // two time_ms blocks, us/iter, ns/op
  // A moved `value` still fails.
  const CompareReport drifted =
      compare_bench_runs(a, substrates_run(0.035, 19.5, 1999999.0), defaults());
  EXPECT_EQ(drifted.exit_code(), 1);
  ASSERT_EQ(drifted.diffs.size(), 1u);
  EXPECT_EQ(drifted.diffs[0].path,
            "sections[main].cases[network_send/heartbeat].metrics.value");
}

TEST(BenchCompare, PerIterationTimingsIgnoreTheMillisecondFloor) {
  // 0.035 and 3.5 us/iter are both under kMinWallMs (5), but us/iter is
  // a per-iteration row, not a millisecond one: a 100x slower loop must
  // still warn.
  const Json a = substrates_run(0.035, 19.5, 2000000.0);
  const Json b = substrates_run(3.5, 19.5, 2000000.0);
  const CompareReport rep = compare_bench_runs(a, b, defaults());
  EXPECT_EQ(rep.warns, 1u);
  EXPECT_EQ(rep.worst_wall_field,
            "sections[main].cases[snake_index_round_trip/s=64].metrics."
            "us/iter");
  EXPECT_EQ(rep.exit_code(), 0);  // warn-only by default
  CompareOptions gated;
  gated.fail_ratio = 2.0;
  EXPECT_EQ(compare_bench_runs(a, b, gated).exit_code(), 1);
  // A measured spread does not hide a 100x slowdown either.
  const Json noisy_a = substrates_run(0.035, 19.5, 2000000.0, 6.0);
  const Json noisy_b = substrates_run(3.5, 19.5, 2000000.0, 6.0);
  EXPECT_EQ(compare_bench_runs(noisy_a, noisy_b, defaults()).warns, 1u);
  EXPECT_EQ(compare_bench_runs(noisy_a, noisy_b, gated).exit_code(), 1);
}

TEST(BenchCompare, PerIterationShiftInsideTheCaseSpreadIsClean) {
  // Both timings 1.4x slower: past the 1.25 warn ratio, but inside
  // 3 sigmas of a case whose time_ms spreads 15% (6 ms of 40).
  const Json a = substrates_run(0.035, 19.5, 2000000.0, 6.0);
  const Json b = substrates_run(0.049, 27.3, 2000000.0, 6.0);
  const CompareReport rep = compare_bench_runs(a, b, defaults());
  EXPECT_TRUE(rep.clean());
  EXPECT_EQ(rep.warns, 0u);
  // Without a spread (one rep) the same shift warns on both readings.
  const Json one_a = substrates_run(0.035, 19.5, 2000000.0);
  const Json one_b = substrates_run(0.049, 27.3, 2000000.0);
  EXPECT_EQ(compare_bench_runs(one_a, one_b, defaults()).warns, 2u);
  // The larger side's spread counts: B alone measured the noise.
  EXPECT_EQ(compare_bench_runs(one_a, b, defaults()).warns, 0u);
}

TEST(BenchCompare, SuiteMismatchAborts) {
  const Json a = bench_run(100.0, 10.0, 20000, 1000.0);
  Json b = bench_run(100.0, 10.0, 20000, 1000.0);
  b.set("suite", "other_suite");
  EXPECT_THROW(compare_bench_runs(a, b, defaults()), check_error);
}

// --- stats JSONL -------------------------------------------------------------

// `line`, one line of a stats stream, with each key the writer puts on
// a line of its kind and `line` lacks, valued as in an empty run's
// stream, and a newline: fixtures state the fields a test is about, and
// read_stats requires the rest.
std::string complete(const std::string& line) {
  static const std::map<std::string, Json> written = [] {
    std::ostringstream out;
    StatsSnapshotter snap(out, 1);
    snap.write_header(2, 1, 1, 0, false);
    snap.write_sample(0, 0, CubeCounters{}, StageTimes{});
    snap.write_cube(Point{0, 0}, CubeCounters{}, LatencyHistogram{});
    snap.write_final(0, 0, CubeCounters{}, StageTimes{});
    std::map<std::string, Json> by_kind;
    std::istringstream in(out.str());
    for (std::string text; std::getline(in, text);) {
      Json j = Json::parse(text);
      by_kind.emplace(j.at("kind").as_string(), std::move(j));
    }
    return by_kind;
  }();
  Json j = Json::parse(line);
  const auto it = written.find(j.at("kind").as_string());
  if (it != written.end())
    for (const auto& [key, value] : it->second.items())
      if (!j.contains(key)) j.set(key, value);
  return j.dump() + "\n";
}

std::string stats_stream(std::int64_t batch_size, std::int64_t stride,
                         std::uint64_t jobs_at_sample,
                         std::uint64_t queries_at_sample,
                         std::uint64_t final_queries) {
  std::string s;
  s += complete("{\"kind\":\"header\",\"schema\":\"cmvrp-stats-v1\",\"dim\":2,"
                "\"threads\":1,\"batch_size\":" +
                std::to_string(batch_size) + ",\"seed\":7,\"stride\":" +
                std::to_string(stride) + ",\"counters\":true}");
  s += complete("{\"kind\":\"sample\",\"batch\":1,\"jobs\":" +
                std::to_string(jobs_at_sample) + ",\"msg_queries\":" +
                std::to_string(queries_at_sample) +
                ",\"stage_route_ms\":1.5}");
  s += complete("{\"kind\":\"cube\",\"corner\":[0,0],\"arrivals\":10}");
  s += complete("{\"kind\":\"final\",\"jobs\":100,\"msg_queries\":" +
                std::to_string(final_queries) + ",\"stage_route_ms\":2.5}");
  return s;
}

TEST(StatsCompare, IdenticalStreamsCompareClean) {
  const std::string a = stats_stream(256, 8, 2048, 50, 99);
  const CompareReport rep = compare_stats_streams(a, a, defaults());
  EXPECT_TRUE(rep.clean());
}

TEST(StatsCompare, SampleAndFinalDriftFails) {
  const std::string a = stats_stream(256, 8, 2048, 50, 99);
  const std::string b = stats_stream(256, 8, 2048, 51, 98);
  const CompareReport rep = compare_stats_streams(a, b, defaults());
  EXPECT_EQ(rep.exit_code(), 1);
  EXPECT_EQ(rep.drift, 2u);  // the sample's msg_queries and the final's
}

// Samples match by `jobs` prefix: a different batch size snapshots
// different prefixes, so unshared samples are skipped, shared prefixes
// must still agree, and the headers' cadence fields are context.
TEST(StatsCompare, DifferentCadenceComparesSharedPrefixesOnly) {
  const std::string a = stats_stream(256, 8, 2048, 50, 99);
  const std::string b = stats_stream(64, 8, 512, 12, 99);  // no shared sample
  const CompareReport clean = compare_stats_streams(a, b, defaults());
  EXPECT_TRUE(clean.clean());
  // Shared prefix with a disagreeing counter still fails.
  const std::string b2 = stats_stream(64, 8, 2048, 51, 99);
  const CompareReport drift = compare_stats_streams(a, b2, defaults());
  EXPECT_EQ(drift.exit_code(), 1);
}

TEST(StatsCompare, SameCadenceMissingSampleIsDrift) {
  const std::string a = stats_stream(256, 8, 2048, 50, 99);
  const std::string b = stats_stream(256, 8, 4096, 50, 99);
  const CompareReport rep = compare_stats_streams(a, b, defaults());
  EXPECT_EQ(rep.exit_code(), 1);
  EXPECT_GE(rep.drift, 2u);  // 2048 missing in B, 4096 extra in B
}

TEST(StatsCompare, TruncatedStreamFailsNamingBytesAndLines) {
  const std::string a = stats_stream(256, 8, 2048, 50, 99);
  const std::string truncated =
      complete("{\"kind\":\"header\",\"schema\":\"cmvrp-stats-v1\",\"dim\":2,"
               "\"batch_size\":256,\"stride\":8}");
  try {
    compare_stats_streams(a, truncated, defaults(), "A", "B");
    FAIL() << "expected check_error";
  } catch (const check_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("no final line"), std::string::npos) << what;
    EXPECT_NE(what.find("bytes"), std::string::npos) << what;
    EXPECT_NE(what.find("B"), std::string::npos) << what;
  }
  EXPECT_THROW(compare_stats_streams("", a, defaults()), check_error);
  // A malformed line reports its line number and byte offset.
  try {
    compare_stats_streams(a, a + "{truncated", defaults(), "A", "B");
    FAIL() << "expected check_error";
  } catch (const check_error& e) {
    EXPECT_NE(std::string(e.what()).find("byte"), std::string::npos);
  }
}

// read_stats rejects what is not a whole cmvrp-stats-v1 stream, naming
// the stream and the byte offset of the problem.
void expect_stats_error(const std::string& text, std::size_t at,
                        const std::string& problem) {
  try {
    read_stats(text, "s.jsonl");
    FAIL() << "accepted: " << text;
  } catch (const check_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("s.jsonl"), std::string::npos) << what;
    EXPECT_NE(what.find("at byte " + std::to_string(at)), std::string::npos)
        << what;
    EXPECT_NE(what.find(problem), std::string::npos) << what;
  }
}

TEST(ReadStats, ErrorsNameTheStreamAndTheByteOffset) {
  const std::string header =
      complete("{\"kind\":\"header\",\"schema\":\"cmvrp-stats-v1\"}");
  const std::string final_line = complete("{\"kind\":\"final\",\"jobs\":1}");
  ASSERT_NO_THROW(read_stats(header + final_line, "s.jsonl"));
  expect_stats_error("", 0, "empty");
  expect_stats_error(header + "{not json\n" + final_line, header.size(),
                     "does not parse");
  expect_stats_error(final_line, final_line.size(), "no header line");
  expect_stats_error(header, header.size(), "no final line");
  expect_stats_error(
      final_line + "{\"kind\":\"header\",\"schema\":\"cmvrp-stats-v9\"}\n",
      final_line.size(), "unsupported schema");
}

TEST(ReadStats, KeepsEachKindInFileOrderAndSkipsBlankLines) {
  std::string text =
      complete("{\"kind\":\"header\",\"schema\":\"cmvrp-stats-v1\"}") +
      "\n" + complete("{\"kind\":\"cube\",\"corner\":[4,0]}") +
      complete("{\"kind\":\"sample\",\"jobs\":8}") +
      complete("{\"kind\":\"cube\",\"corner\":[0,0]}") +
      "{\"kind\":\"later\"}\n" +
      complete("{\"kind\":\"final\",\"jobs\":9}");
  text.pop_back();  // no newline after the last line
  const StatsDoc doc = read_stats(text, "s.jsonl");
  ASSERT_EQ(doc.cubes.size(), 2u);
  EXPECT_EQ(doc.cubes[0].at("corner").dump(), "[4,0]");
  EXPECT_EQ(doc.cubes[1].at("corner").dump(), "[0,0]");
  ASSERT_EQ(doc.samples.size(), 1u);
  EXPECT_EQ(doc.final_line.at("jobs").as_number(), 9.0);
}

// --- span traces -------------------------------------------------------------

std::string span_trace(double wall_ms, std::int64_t ts) {
  Json events = Json::array();
  Json meta = Json::object();
  meta.set("name", "wall_ms");
  meta.set("ph", "M");
  Json margs = Json::object();
  margs.set("value", wall_ms);
  meta.set("args", margs);
  events.push_back(meta);
  Json ev = Json::object();
  ev.set("name", "comp");
  ev.set("ph", "b");
  ev.set("pid", 3);
  ev.set("ts", ts);  // protocol clock: deterministic
  events.push_back(ev);
  return events.dump();
}

TEST(SpansCompare, DeclaredWallEventIsSkipped) {
  const CompareReport rep = compare_artifacts(
      span_trace(10.0, 42), span_trace(99.0, 42), CompareKind::kSpans,
      defaults());
  EXPECT_TRUE(rep.clean());
}

TEST(SpansCompare, ProtocolClockDriftFails) {
  const CompareReport rep = compare_artifacts(
      span_trace(10.0, 42), span_trace(10.0, 43), CompareKind::kSpans,
      defaults());
  EXPECT_EQ(rep.exit_code(), 1);
  ASSERT_GE(rep.diffs.size(), 1u);
  EXPECT_EQ(rep.diffs[0].path, "event[0].ts");
}

// --- the cmvrp-diff-v1 document ----------------------------------------------

TEST(DiffJson, RoundTripsAndCarriesTheVerdicts) {
  const Json a = stream_report(1, 100, 10.0, 2000.0);
  const Json b = stream_report(8, 101, 30.0, 700.0);
  const CompareReport rep = compare_stream_reports(a, b, defaults());
  const Json doc = rep.to_json("a.json", "b.json");
  EXPECT_EQ(doc.at("schema").as_string(), kDiffSchema);
  EXPECT_EQ(doc.at("kind").as_string(), "stream");
  EXPECT_EQ(doc.at("a").as_string(), "a.json");
  EXPECT_EQ(doc.at("exit").as_number(), 1.0);
  EXPECT_EQ(doc.at("drift").as_number(), 1.0);
  EXPECT_EQ(doc.at("diffs").size(), rep.diffs.size());
  // Exact round trip through the serializer (the CI artifact contract).
  EXPECT_EQ(Json::parse(doc.dump(2)), doc);
  const Json& first = doc.at("diffs").at(0);
  EXPECT_TRUE(first.contains("path"));
  EXPECT_TRUE(first.contains("class"));
  EXPECT_TRUE(first.contains("verdict"));
}

// --- declared field tables ---------------------------------------------------

std::vector<std::string> keys_of(const Json& doc) {
  std::vector<std::string> keys;
  for (const auto& [key, value] : doc.items()) keys.push_back(key);
  return keys;
}

std::vector<std::string> keys_of(const FieldTable& table) {
  std::vector<std::string> keys;
  for (const FieldSpec& f : table) keys.push_back(f.key);
  return keys;
}

// A flood-heavy 2-D run (W = 8 in cubes of side 4) with every option the
// report echoes turned on: Tier-A counters, sampled span recording into
// flight rings, a shedding admission queue and timeseries sampling, so
// every gated row is live.
struct FullRun {
  StreamConfig cfg;
  StreamResult result;
  std::string chrome_a, chrome_b;  // one export at two wall times
};

const FullRun& full_run() {
  static const FullRun run = [] {
    FullRun r;
    r.cfg.online.capacity = 8.0;
    r.cfg.online.cube_side = 4;
    r.cfg.online.anchor = Point::origin(2);
    r.cfg.online.seed = 7;
    r.cfg.online.admission = AdmissionPolicy::kShed;
    r.cfg.online.queue_limit = 2;
    r.cfg.online.service_ticks = 12;
    r.cfg.online.sample_stride = 8;
    r.cfg.online.obs.counters = true;
    r.cfg.online.obs.spans = true;
    r.cfg.online.obs.span_sample = 2;
    r.cfg.online.obs.flight = 32;
    Rng rng(11);
    const DemandMap d =
        uniform_demand(Box(Point{0, 0}, Point{31, 31}), 2000, rng);
    Rng order(12);
    StreamEngine engine(2, r.cfg);
    engine.ingest(stream_from_demand(d, ArrivalOrder::kShuffled, order));
    r.result = engine.finish();
    std::ostringstream a, b;
    export_chrome_trace(a, 2, engine.span_sources(), 1.0);
    export_chrome_trace(b, 2, engine.span_sources(), 2.5);
    r.chrome_a = a.str();
    r.chrome_b = b.str();
    return r;
  }();
  return run;
}

Json full_report(double wall_ms) {
  return stream_report_json(StreamRun{full_run().cfg, full_run().result,
                                      wall_ms});
}

TEST(FieldTables, StreamReportCarriesExactlyItsDeclaredKeys) {
  const Json doc = full_report(12.5);
  EXPECT_EQ(keys_of(doc), keys_of(stream_report_fields()));
  EXPECT_EQ(doc.at("schema").as_string(), kStreamSchema);
  // Each gated row is live on this run.
  for (const char* key :
       {"replacements", "comps_finished", "max_queries_per_comp", "enqueued",
        "shed", "backlog_peak", "spans_emitted", "spans_sampled_out",
        "spans_ring_evicted", "ts_samples", "cascade_count"})
    EXPECT_GT(doc.at(key).as_number(), 0.0) << key;
}

// The Phase I flood's messages per replacement and the monitoring ring's
// heartbeats per arrival, each the quotient of its counters.
TEST(FieldTables, FloodAndHeartbeatRowsAreTheirCounterQuotients) {
  const StreamResult& r = full_run().result;
  const CubeCounters& c = r.counters;
  ASSERT_GT(c.replacements, 0u);
  ASSERT_GT(c.msg_heartbeats, 0u);
  const Json doc = full_report(12.5);
  EXPECT_EQ(doc.at("flood_msgs_per_replacement").as_number(),
            static_cast<double>(c.msg_queries + c.msg_replies + c.msg_moves) /
                static_cast<double>(c.replacements));
  EXPECT_EQ(doc.at("heartbeats_per_job").as_number(),
            static_cast<double>(c.msg_heartbeats) /
                static_cast<double>(r.jobs_ingested));
  EXPECT_LT(doc.at("flood_msgs_per_replacement").as_number(),
            doc.at("messages_per_replacement").as_number());
}

// The comparator takes each report field's class from its row: a changed
// identity row aborts, a context row is informational, a wall row is
// never drift, a deterministic row is.
TEST(FieldTables, StreamReportRowsClassifyTheirFields) {
  const Json a = full_report(12.5);
  for (const FieldSpec& f : stream_report_fields()) {
    const Json& v = a.at(f.key);
    Json b = a;
    if (v.is_bool()) b.set(f.key, !v.as_bool());
    else if (v.is_string()) b.set(f.key, v.as_string() + "0");
    else b.set(f.key, 2.0 * v.as_number() + 1.0);
    if (f.cls == FieldClass::kIdentity) {
      EXPECT_THROW(compare_stream_reports(a, b, defaults()), check_error)
          << f.key;
      continue;
    }
    const CompareReport rep = compare_stream_reports(a, b, defaults());
    EXPECT_EQ(rep.drift, f.cls == FieldClass::kDeterministic ? 1u : 0u)
        << f.key;
    EXPECT_EQ(rep.context_diffs, f.cls == FieldClass::kContext ? 1u : 0u)
        << f.key;
  }
}

// No key is classified by its spelling: an undeclared key spelled like a
// timing is deterministic, and cube_slots is the context its row says.
TEST(FieldTables, SpellingDoesNotClassify) {
  Json a = stream_report(1, 100, 10.0, 2000.0);
  Json b = stream_report(1, 100, 10.0, 2000.0);
  a.set("latency_ms", 1.0);
  b.set("latency_ms", 2.0);
  a.set("cube_slots", std::uint64_t{256});
  b.set("cube_slots", std::uint64_t{0});
  const CompareReport rep = compare_stream_reports(a, b, defaults());
  EXPECT_EQ(rep.drift, 1u);
  EXPECT_EQ(rep.context_diffs, 1u);
  ASSERT_EQ(rep.diffs.size(), 2u);
  EXPECT_EQ(rep.diffs[0].path, "latency_ms");
  EXPECT_EQ(rep.diffs[0].cls, FieldClass::kDeterministic);
  EXPECT_EQ(rep.diffs[1].path, "cube_slots");
  EXPECT_EQ(rep.diffs[1].cls, FieldClass::kContext);
  // A bench metric the harness does not declare is deterministic too.
  const auto with_setup_ms = [](double ms) {
    Json c = bench_case("threads=1", 100.0, 10.0, 20000, 1000.0);
    Json m = c.at("metrics");
    m.set("setup ms", ms);
    c.set("metrics", m);
    Json cases = Json::array();
    cases.push_back(c);
    Json section = Json::object();
    section.set("name", "threads");
    section.set("cases", cases);
    Json sections = Json::array();
    sections.push_back(section);
    Json doc = bench_run(100.0, 10.0, 20000, 1000.0);
    doc.set("sections", sections);
    return doc;
  };
  EXPECT_EQ(
      compare_bench_runs(with_setup_ms(1.0), with_setup_ms(2.0), defaults())
          .drift,
      1u);
}

TEST(FieldTables, StatsLinesCarryExactlyTheirDeclaredKeys) {
  std::ostringstream out;
  StatsSnapshotter snap(out, 1);
  snap.write_header(2, 1, 1, 0, false);
  snap.write_sample(0, 0, CubeCounters{}, StageTimes{});
  snap.write_cube(Point{0, 0}, CubeCounters{}, LatencyHistogram{});
  snap.write_final(0, 0, CubeCounters{}, StageTimes{});
  std::istringstream in(out.str());
  std::vector<std::string> kinds;
  for (std::string text; std::getline(in, text);) {
    const Json line = Json::parse(text);
    kinds.push_back(line.at("kind").as_string());
    EXPECT_EQ(keys_of(line), keys_of(stats_fields(kinds.back())))
        << kinds.back();
  }
  EXPECT_EQ(kinds,
            (std::vector<std::string>{"header", "sample", "cube", "final"}));
  EXPECT_TRUE(stats_fields("later").empty());
  // compare_stats_streams looks every line up in one union of the kinds'
  // tables, so no key may have two classes.
  std::map<std::string, FieldClass> cls;
  for (const std::string& kind : kinds)
    for (const FieldSpec& f : stats_fields(kind))
      EXPECT_EQ(cls.emplace(f.key, f.cls).first->second, f.cls) << f.key;
}

// Two exports of one run at different wall times differ exactly in the
// events span_export_fields declares wall, and each of those is there.
TEST(FieldTables, SpanExportDiffersOnlyInItsDeclaredWallEvents) {
  const Json a = Json::parse(full_run().chrome_a);
  const Json b = Json::parse(full_run().chrome_b);
  ASSERT_EQ(a.size(), b.size());
  std::vector<std::string> differing;
  for (std::size_t i = 0; i < a.size(); ++i)
    if (!(a.at(i) == b.at(i)))
      differing.push_back(a.at(i).at("name").as_string());
  EXPECT_EQ(differing, keys_of(span_export_fields()));
  for (const FieldSpec& f : span_export_fields())
    EXPECT_EQ(f.cls, FieldClass::kWall) << f.key;
  EXPECT_TRUE(compare_span_traces(a, b, defaults()).clean());
}

}  // namespace
}  // namespace cmvrp
