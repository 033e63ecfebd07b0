#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "exp/harness.h"
#include "util/json.h"
#include "exp/scenario.h"
#include "exp/suites.h"
#include "util/check.h"

namespace cmvrp {
namespace {

// --- scenario registry ------------------------------------------------------

TEST(ScenarioRegistry, BuiltinLookup) {
  const auto& reg = ScenarioRegistry::builtin();
  EXPECT_GE(reg.size(), 20u);
  const Scenario* s = reg.find("uniform/12x12/n60");
  ASSERT_NE(s, nullptr);
  EXPECT_EQ(s->generator, "uniform");
  EXPECT_EQ(s->dim, 2);
  EXPECT_EQ(reg.find("no/such/scenario"), nullptr);
  EXPECT_THROW(reg.at("no/such/scenario"), check_error);
  EXPECT_EQ(&reg.at("uniform/12x12/n60"), s);
}

TEST(ScenarioRegistry, FilterMatchesNameAndGenerator) {
  const auto& reg = ScenarioRegistry::builtin();
  EXPECT_EQ(reg.match("").size(), reg.size());
  const auto uniforms = reg.match("uniform");
  EXPECT_GE(uniforms.size(), 4u);
  // The family spans dimensions: uniform, uniform3d, uniform4d.
  for (const Scenario* s : uniforms)
    EXPECT_EQ(s->generator.rfind("uniform", 0), 0u) << s->generator;
  const auto n60 = reg.match("12x12/n60");
  ASSERT_EQ(n60.size(), 1u);
  EXPECT_EQ(n60[0]->name, "uniform/12x12/n60");
  EXPECT_TRUE(reg.match("zzz-not-there").empty());
}

TEST(ScenarioRegistry, BuiltinCoversEveryGenerator) {
  std::set<std::string> generators;
  for (const Scenario* s : ScenarioRegistry::builtin().match(""))
    generators.insert(s->generator);
  for (const char* expected :
       {"uniform", "clustered", "line", "point", "square", "ridge",
        "smartdust", "burst", "alternating", "grid"})
    EXPECT_TRUE(generators.count(expected)) << expected;
}

TEST(ScenarioRegistry, FactoriesAreDeterministic) {
  const auto& sc = ScenarioRegistry::builtin().at("uniform/12x12/n60");
  const DemandMap a = sc.demand();
  const DemandMap b = sc.demand();
  EXPECT_EQ(a.total(), b.total());
  EXPECT_EQ(a.support_size(), b.support_size());
  const auto jobs_a = sc.jobs();
  const auto jobs_b = sc.jobs();
  ASSERT_EQ(jobs_a.size(), jobs_b.size());
  EXPECT_EQ(jobs_a.size(), static_cast<std::size_t>(a.total()));
  for (std::size_t i = 0; i < jobs_a.size(); ++i)
    EXPECT_EQ(jobs_a[i].position, jobs_b[i].position);
}

TEST(ScenarioRegistry, StreamNativeScenariosInduceTheirDemand) {
  const auto& sc = ScenarioRegistry::builtin().at("burst/p4x4/n120");
  const DemandMap d = sc.demand();
  EXPECT_EQ(d.total(), 120.0);
  EXPECT_EQ(d.support_size(), 1u);
  EXPECT_EQ(sc.jobs().size(), 120u);
}

TEST(ScenarioRegistry, DuplicateNamesRejected) {
  ScenarioRegistry reg;
  Scenario s;
  s.name = "dup";
  s.generator = "uniform";
  s.demand = [] { return DemandMap(2); };
  s.jobs = [] { return std::vector<Job>{}; };
  reg.add(s);
  EXPECT_THROW(reg.add(s), check_error);
}

// --- runner -----------------------------------------------------------------

TEST(BenchRun, WarmupPlusRepsExecutionsAndTimedStats) {
  RunOptions opts;
  opts.warmup = 2;
  opts.reps = 3;
  BenchRun run("t", opts);
  int calls = 0;
  run.run_case("case", [&calls](MetricRow& row) {
    ++calls;
    row.metric("calls so far", calls);
  });
  EXPECT_EQ(calls, 5);  // 2 warmup + 3 timed

  const Json doc = run.to_json();
  const Json& c = doc.at("sections").at(std::size_t{0}).at("cases").at(
      std::size_t{0});
  EXPECT_EQ(c.at("time_ms").at("reps").as_number(), 3.0);
  // A numeric metric is the median over the timed executions (3, 4, 5).
  EXPECT_EQ(c.at("metrics").at("calls so far").as_number(), 4.0);
}

// One slow rep must not become the reported reading: a metric that reads
// 5, 100 and 7 on its three reps, in any order, is recorded as 7, its
// cell rendered from that rep; a label keeps the final rep's value.
TEST(BenchRun, NumericMetricIsTheMedianRep) {
  std::vector<double> readings = {5.0, 100.0, 7.0};
  std::sort(readings.begin(), readings.end());
  do {
    RunOptions opts;
    opts.reps = 3;
    BenchRun run("t", opts);
    int rep = 0;
    run.run_case("case", [&](MetricRow& row) {
      row.metric("us/iter", readings[rep], 1)
          .metric("served", std::uint64_t{42})
          .metric("label", "rep " + std::to_string(rep));
      ++rep;
    });
    const Json doc = run.to_json();
    const Json& m = doc.at("sections").at(std::size_t{0}).at("cases").at(
        std::size_t{0}).at("metrics");
    const std::string order = std::to_string(readings[0]) + "," +
                              std::to_string(readings[1]) + "," +
                              std::to_string(readings[2]);
    EXPECT_EQ(m.at("us/iter").as_number(), 7.0) << order;
    EXPECT_EQ(m.at("served").as_number(), 42.0) << order;
    EXPECT_EQ(m.at("label").as_string(), "rep 2") << order;
    std::ostringstream table;
    run.print(table);
    EXPECT_NE(table.str().find("| 7.0 "), std::string::npos) << table.str();
  } while (std::next_permutation(readings.begin(), readings.end()));
}

TEST(BenchRun, EvenRepCountTakesTheLowerMiddle) {
  RunOptions opts;
  opts.reps = 4;
  BenchRun run("t", opts);
  const double readings[] = {9.0, 4.0, 8.0, 3.0};
  int rep = 0;
  run.run_case("case",
               [&](MetricRow& row) { row.metric("ns/op", readings[rep++]); });
  const Json doc = run.to_json();
  EXPECT_EQ(doc.at("sections").at(std::size_t{0}).at("cases").at(
                std::size_t{0}).at("metrics").at("ns/op").as_number(),
            4.0);
}

TEST(BenchRun, RepsEmittingDifferentMetricsFailACheck) {
  RunOptions opts;
  opts.reps = 2;
  BenchRun run("t", opts);
  int rep = 0;
  EXPECT_THROW(run.run_case("case",
                            [&](MetricRow& row) {
                              row.metric(rep++ == 0 ? "a" : "b", 1);
                            }),
               check_error);
}

TEST(BenchRun, FilterSkipsNonMatchingCasesEntirely) {
  RunOptions opts;
  opts.filter = "keep";
  BenchRun run("t", opts);
  int calls = 0;
  run.section("a").run_case("keep me", [&calls](MetricRow&) { ++calls; });
  run.section("a").run_case("drop me", [&calls](MetricRow&) { ++calls; });
  run.section("keeper").run_case("x", [&calls](MetricRow&) { ++calls; });
  EXPECT_EQ(calls, 2);  // "a/keep me" and "keeper/x" match, "a/drop me" not
  EXPECT_EQ(run.to_json().at("sections").size(), 2u);
}

TEST(BenchRun, JsonSchemaShape) {
  RunOptions opts;
  opts.filter = "f";
  opts.reps = 2;
  opts.warmup = 1;
  BenchRun run("demo", opts);
  run.section("first").run_case("f1", [](MetricRow& row) {
    row.metric("alpha", 1.5).metric("label", "x").metric_bool("ok", true);
  });
  run.note("a note");

  const Json doc = run.to_json();
  EXPECT_EQ(doc.at("schema").as_string(), "cmvrp-bench-v1");
  EXPECT_EQ(doc.at("suite").as_string(), "demo");
  EXPECT_EQ(doc.at("options").at("reps").as_number(), 2.0);
  EXPECT_EQ(doc.at("options").at("warmup").as_number(), 1.0);
  EXPECT_EQ(doc.at("options").at("filter").as_string(), "f");
  EXPECT_FALSE(doc.at("failed").as_bool());
  const Json& metrics = doc.at("sections")
                            .at(std::size_t{0})
                            .at("cases")
                            .at(std::size_t{0})
                            .at("metrics");
  // Declaration order is serialization order.
  EXPECT_EQ(metrics.items()[0].first, "alpha");
  EXPECT_EQ(metrics.items()[1].first, "label");
  EXPECT_EQ(metrics.items()[2].first, "ok");
  EXPECT_EQ(metrics.at("label").as_string(), "x");
  EXPECT_TRUE(metrics.at("ok").as_bool());
  EXPECT_EQ(doc.at("notes").at(std::size_t{0}).as_string(), "a note");
  // The document round-trips through its own serialization.
  EXPECT_EQ(Json::parse(doc.dump(2)), doc);
}

TEST(BenchRun, TablePadsMissingMetricsAndAppendsTime) {
  BenchRun run("t", {});
  run.run_case("full", [](MetricRow& row) {
    row.metric("a", 1).metric("b", 2);
  });
  run.run_case("partial", [](MetricRow& row) { row.metric("a", 3); });
  std::ostringstream os;
  run.print(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("| case "), std::string::npos);
  EXPECT_NE(out.find("ms/rep"), std::string::npos);
  EXPECT_NE(out.find("| -"), std::string::npos);  // padded cell
}

TEST(BenchRun, FailMarksRunAndFinishReturnsNonzero) {
  BenchRun run("t", {});
  run.run_case("c", [&run](MetricRow&) { run.fail("claim violated"); });
  EXPECT_TRUE(run.failed());
  EXPECT_TRUE(run.to_json().at("failed").as_bool());
  std::ostringstream os;
  EXPECT_EQ(run.finish(os), 1);
  EXPECT_NE(os.str().find("FAIL: claim violated"), std::string::npos);
}

// --- suite registry ---------------------------------------------------------

TEST(SuiteRegistry, BuiltinSuitesRegisteredIdempotently) {
  register_builtin_suites();
  register_builtin_suites();  // second call must not throw on duplicates
  for (const char* name :
       {"offline", "online", "square", "line", "point", "broken", "alg1",
        "transfer", "baselines", "ablations", "graphs", "substrates",
        "smoke"})
    EXPECT_NE(find_suite(name), nullptr) << name;
  EXPECT_EQ(find_suite("nope"), nullptr);
  EXPECT_GE(all_suites().size(), 13u);
}

TEST(SuiteRegistry, DuplicateRegistrationRejected) {
  register_builtin_suites();
  Suite s{"exp-harness-test-suite", "test", [](BenchRun&) {}};
  if (find_suite(s.name) == nullptr) register_suite(s);
  EXPECT_THROW(register_suite(s), check_error);
}

TEST(SuiteRegistry, UnknownSuiteThrows) {
  register_builtin_suites();
  std::ostringstream os;
  EXPECT_THROW(run_suite("definitely-not-a-suite", {}, os), check_error);
}

// End to end: the smoke suite runs, succeeds, writes a parseable JSON
// artifact, and its offline case reproduces the Theorem 1.4.1 sandwich.
TEST(SuiteRegistry, SmokeSuiteEndToEnd) {
  register_builtin_suites();
  const std::string path = "exp_harness_smoke_test.json";
  RunOptions opts;
  opts.json_path = path;
  std::ostringstream os;
  EXPECT_EQ(run_suite("smoke", opts, os), 0);
  EXPECT_NE(os.str().find("plan/omega_c"), std::string::npos);

  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::stringstream buf;
  buf << in.rdbuf();
  const Json doc = Json::parse(buf.str());
  std::remove(path.c_str());

  EXPECT_EQ(doc.at("schema").as_string(), "cmvrp-bench-v1");
  EXPECT_EQ(doc.at("suite").as_string(), "smoke");
  EXPECT_FALSE(doc.at("failed").as_bool());
  ASSERT_EQ(doc.at("sections").size(), 2u);
  const Json& offline_case =
      doc.at("sections").at(std::size_t{0}).at("cases").at(std::size_t{0});
  const Json& m = offline_case.at("metrics");
  const double omega_c = m.at("omega_c").as_number();
  const double plan_energy = m.at("plan energy").as_number();
  EXPECT_GT(omega_c, 0.0);
  // Theorem 1.4.1 (l = 2): plan energy <= (2*3^2 + 2) * omega_c.
  EXPECT_LE(plan_energy, 20.0 * omega_c + 1e-9);
  EXPECT_GE(plan_energy + 1e-9, omega_c);
  // The online smoke case served everything.
  const Json& online_m = doc.at("sections")
                             .at(std::size_t{1})
                             .at("cases")
                             .at(std::size_t{0})
                             .at("metrics");
  EXPECT_EQ(online_m.at("failed").as_number(), 0.0);
}

}  // namespace
}  // namespace cmvrp
