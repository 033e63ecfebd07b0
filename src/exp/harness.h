// The experiment runner: named suites, timed repetitions, metric
// recording, ASCII tables, and the BENCH_<suite>.json artifact.
//
// A *suite* is a function that fills a BenchRun with sections and cases.
// Each case is a closure that recomputes its workload from baked-in seeds
// and records named metrics; the runner executes it `warmup` untimed plus
// `reps` timed repetitions (wall time feeding RunningStats), reports each
// numeric metric as its median over the reps (the lower middle for an
// even count: deterministic metrics agree across reps, per-iteration
// timings get one rep's outlier filtered out; every rep must emit the
// same metric names), and renders
//   * one ASCII table per section — columns are the union of metric names
//     in first-seen order, exactly the pre-harness bench tables — and
//   * one JSON document per run with schema "cmvrp-bench-v1":
//       {"schema", "suite", "options": {warmup, reps, filter},
//        "failed", "notes": [...],
//        "sections": [{"name", "cases": [{"name",
//          "time_ms": {reps, mean, stddev, min, max},
//          "metrics": {...}}]}]}
//     Metric key order is declaration order, so artifacts from two runs
//     diff cleanly.
#pragma once

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

#include "util/json.h"
#include "util/stats.h"

namespace cmvrp {

struct RunOptions {
  int warmup = 0;         // untimed repetitions per case
  int reps = 1;           // timed repetitions per case
  std::string filter;     // substring on "section/case"; empty runs all
  std::string json_path;  // write the JSON artifact here when non-empty
};

// Metric sink for one case. Declaration order fixes the table column
// order and the JSON key order. `precision` only affects the ASCII
// rendering; JSON always stores the full value.
class MetricRow {
 public:
  MetricRow& metric(const std::string& name, double value, int precision = 4);
  MetricRow& metric(const std::string& name, std::int64_t value);
  MetricRow& metric(const std::string& name, std::uint64_t value);
  MetricRow& metric(const std::string& name, int value);
  MetricRow& metric(const std::string& name, const std::string& value);
  MetricRow& metric(const std::string& name, const char* value);
  MetricRow& metric_bool(const std::string& name, bool value);

 private:
  friend class BenchRun;
  friend class BenchSection;
  struct Cell {
    std::string name;
    Json value;
    std::string rendered;
  };
  std::vector<Cell> cells_;
};

using CaseFn = std::function<void(MetricRow&)>;

class BenchRun;

class BenchSection {
 public:
  const std::string& name() const { return name_; }

  // Runs `fn` under the suite's warmup/reps options and records the
  // result: each numeric metric's median rep, every other metric's final
  // rep. Throws check_error when two reps emit different metric names. A
  // case whose "section/case" name misses the filter is skipped entirely
  // (not executed, absent from table and JSON).
  void run_case(const std::string& case_name, const CaseFn& fn);

  std::size_t case_count() const { return cases_.size(); }

 private:
  friend class BenchRun;
  BenchSection(BenchRun* parent, std::string name)
      : parent_(parent), name_(std::move(name)) {}

  struct CaseRecord {
    std::string name;
    RunningStats time_ms;
    MetricRow row;
  };

  BenchRun* parent_;
  std::string name_;
  std::vector<CaseRecord> cases_;
};

class BenchRun {
 public:
  explicit BenchRun(std::string suite, RunOptions options = {});

  const RunOptions& options() const { return options_; }
  const std::string& suite() const { return suite_; }

  // Creates or returns the section with this name. Sections print (and
  // serialize) in creation order.
  BenchSection& section(const std::string& name);

  // Shorthand: a case in the default section "main".
  void run_case(const std::string& case_name, const CaseFn& fn);

  // Free-form commentary (the benches' "shape check" conclusions):
  // printed after the tables and recorded under "notes".
  void note(const std::string& text);

  // Marks the run failed (a paper claim did not hold). The message goes
  // to the notes and finish() returns nonzero.
  void fail(const std::string& message);
  bool failed() const { return failed_; }

  Json to_json() const;
  void print(std::ostream& os) const;

  // print() + JSON artifact (when options().json_path is set); returns
  // 0 on success, 1 when failed.
  int finish(std::ostream& os);

 private:
  friend class BenchSection;

  std::string suite_;
  RunOptions options_;
  // unique_ptr: section() hands out stable references across reallocation.
  std::vector<std::unique_ptr<BenchSection>> sections_;
  std::vector<std::string> notes_;
  bool failed_ = false;
};

// --- suite registry ---------------------------------------------------------

// A suite fills the BenchRun; claim violations go through BenchRun::fail.
using SuiteFn = std::function<void(BenchRun&)>;

struct Suite {
  std::string name;         // registry key ("offline", "smoke", …)
  std::string description;  // one line, shown by listings and run headers
  SuiteFn fn;
};

// Registers a suite; throws check_error on duplicates.
void register_suite(Suite suite);
const Suite* find_suite(const std::string& name);
std::vector<const Suite*> all_suites();

// Runs one registered suite end to end (header, tables, notes, JSON).
// Returns 0 on success, 1 on claim failure; throws on unknown suite.
// When `doc_out` is non-null it receives the cmvrp-bench-v1 document of
// the finished run (the same JSON the artifact file gets) — this is how
// `cmvrp_cli bench --baseline` compares a fresh run without re-reading
// its own artifact from disk.
int run_suite(const std::string& name, const RunOptions& options,
              std::ostream& os, Json* doc_out = nullptr);

}  // namespace cmvrp
