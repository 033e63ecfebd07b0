#include "exp/harness.h"

#include <algorithm>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <ostream>
#include <sstream>
#include <utility>

#include "util/check.h"
#include "util/table.h"
#include "util/timer.h"

namespace cmvrp {

const FieldTable& bench_fields() {
  static const FieldTable table = {
      {"schema", FieldClass::kIdentity},
      {"suite", FieldClass::kIdentity},
      {"options", FieldClass::kContext},
      {"failed", FieldClass::kDeterministic},
      {"sections", FieldClass::kDeterministic},
      {"name", FieldClass::kDeterministic},
      {"cases", FieldClass::kDeterministic},
      wall_field("time_ms", WallUnit::kMs),
      {"metrics", FieldClass::kDeterministic},
      {"notes", FieldClass::kContext},
      // Metric names.
      {"hw threads", FieldClass::kContext},
      wall_field("routing ms", WallUnit::kMs),
      wall_field("us/iter", WallUnit::kPerIteration),
      wall_field("ns/op", WallUnit::kPerIteration),
      wall_field("jobs/sec", WallUnit::kOther, WallDirection::kRate),
      wall_field("speedup vs 1t", WallUnit::kOther, WallDirection::kRate),
      wall_field("on/off ratio", WallUnit::kOther, WallDirection::kRate),
  };
  return table;
}

// --- MetricRow --------------------------------------------------------------

namespace {

std::string fixed(double value, int precision) {
  std::ostringstream os;
  os << std::fixed << std::setprecision(precision) << value;
  return os.str();
}

}  // namespace

MetricRow& MetricRow::add(bool wall, const std::string& name, Json value,
                          std::string rendered) {
  const FieldSpec* f = find_field(bench_fields(), name);
  CMVRP_CHECK_MSG(wall == (f != nullptr && f->cls == FieldClass::kWall),
                  "metric \"" << name << "\": a wall metric is declared wall "
                                          "in bench_fields() and recorded "
                                          "with wall_metric()");
  cells_.push_back({name, std::move(value), std::move(rendered)});
  return *this;
}

MetricRow& MetricRow::metric(const std::string& name, double value,
                             int precision) {
  return add(false, name, Json(value), fixed(value, precision));
}

MetricRow& MetricRow::metric(const std::string& name, std::int64_t value) {
  return add(false, name, Json(value), std::to_string(value));
}

MetricRow& MetricRow::metric(const std::string& name, std::uint64_t value) {
  return add(false, name, Json(value), std::to_string(value));
}

MetricRow& MetricRow::metric(const std::string& name, int value) {
  return metric(name, static_cast<std::int64_t>(value));
}

MetricRow& MetricRow::metric(const std::string& name,
                             const std::string& value) {
  return add(false, name, Json(value), value);
}

MetricRow& MetricRow::metric(const std::string& name, const char* value) {
  return metric(name, std::string(value));
}

MetricRow& MetricRow::metric_bool(const std::string& name, bool value) {
  return add(false, name, Json(value), value ? "yes" : "no");
}

MetricRow& MetricRow::wall_metric(const std::string& name, double value,
                                  int precision) {
  return add(true, name, Json(value), fixed(value, precision));
}

// --- BenchSection -----------------------------------------------------------

void BenchSection::run_case(const std::string& case_name, const CaseFn& fn) {
  const RunOptions& opts = parent_->options();
  if (!opts.filter.empty() &&
      (name_ + "/" + case_name).find(opts.filter) == std::string::npos)
    return;

  CaseRecord record;
  record.name = case_name;
  for (int i = 0; i < opts.warmup; ++i) {
    MetricRow scratch;
    fn(scratch);
  }
  std::vector<MetricRow> reps(static_cast<std::size_t>(opts.reps));
  for (MetricRow& row : reps) {
    WallTimer timer;
    fn(row);
    record.time_ms.add(timer.elapsed_ms());
  }
  // Each numeric metric keeps the cell of its median rep (the lower
  // middle for an even count), so one slow rep cannot become the
  // reported per-iteration timing; deterministic metrics agree across
  // reps and keep their value. Other cells keep the final rep's.
  const auto& last = reps.back().cells_;
  for (std::size_t r = 0; r < reps.size(); ++r) {
    const auto& cells = reps[r].cells_;
    bool same = cells.size() == last.size();
    for (std::size_t c = 0; same && c < cells.size(); ++c)
      same = cells[c].name == last[c].name;
    CMVRP_CHECK_MSG(same, "case " << name_ << "/" << case_name
                                  << " emitted different metrics on rep "
                                  << r + 1 << " than on rep " << reps.size());
  }
  record.row = reps.back();
  std::vector<const MetricRow::Cell*> column(reps.size());
  for (std::size_t c = 0; c < last.size(); ++c) {
    if (!last[c].value.is_number()) continue;
    for (std::size_t r = 0; r < reps.size(); ++r)
      column[r] = &reps[r].cells_[c];
    std::sort(column.begin(), column.end(),
              [](const MetricRow::Cell* a, const MetricRow::Cell* b) {
                return a->value.as_number() < b->value.as_number();
              });
    record.row.cells_[c] = *column[(column.size() - 1) / 2];
  }
  cases_.push_back(std::move(record));
}

// --- BenchRun ---------------------------------------------------------------

BenchRun::BenchRun(std::string suite, RunOptions options)
    : suite_(std::move(suite)), options_(std::move(options)) {
  CMVRP_CHECK_MSG(options_.reps >= 1, "need at least one timed repetition");
  CMVRP_CHECK_MSG(options_.warmup >= 0, "negative warmup");
}

BenchSection& BenchRun::section(const std::string& name) {
  for (auto& s : sections_)
    if (s->name() == name) return *s;
  sections_.push_back(
      std::unique_ptr<BenchSection>(new BenchSection(this, name)));
  return *sections_.back();
}

void BenchRun::run_case(const std::string& case_name, const CaseFn& fn) {
  section("main").run_case(case_name, fn);
}

void BenchRun::note(const std::string& text) { notes_.push_back(text); }

void BenchRun::fail(const std::string& message) {
  failed_ = true;
  // Case closures run warmup+reps times; record each violation once.
  const std::string note = "FAIL: " + message;
  for (const auto& n : notes_)
    if (n == note) return;
  notes_.push_back(note);
  std::cerr << suite_ << ": " << message << "\n";
}

Json BenchRun::to_json() const {
  Json doc = Json::object();
  doc.set("schema", "cmvrp-bench-v1");
  doc.set("suite", suite_);
  Json opts = Json::object();
  opts.set("warmup", options_.warmup);
  opts.set("reps", options_.reps);
  opts.set("filter", options_.filter);
  doc.set("options", opts);
  doc.set("failed", failed_);

  Json sections = Json::array();
  for (const auto& sp : sections_) {
    const BenchSection& s = *sp;
    Json sec = Json::object();
    sec.set("name", s.name_);
    Json cases = Json::array();
    for (const auto& c : s.cases_) {
      Json jc = Json::object();
      jc.set("name", c.name);
      Json time = Json::object();
      time.set("reps", static_cast<std::int64_t>(c.time_ms.count()));
      time.set("mean", c.time_ms.mean());
      time.set("stddev", c.time_ms.stddev());
      time.set("min", c.time_ms.min());
      time.set("max", c.time_ms.max());
      jc.set("time_ms", time);
      Json metrics = Json::object();
      for (const auto& cell : c.row.cells_) metrics.set(cell.name, cell.value);
      jc.set("metrics", metrics);
      cases.push_back(std::move(jc));
    }
    sec.set("cases", std::move(cases));
    sections.push_back(std::move(sec));
  }
  doc.set("sections", std::move(sections));

  Json notes = Json::array();
  for (const auto& n : notes_) notes.push_back(n);
  doc.set("notes", std::move(notes));
  return doc;
}

void BenchRun::print(std::ostream& os) const {
  for (const auto& sp : sections_) {
    const BenchSection& s = *sp;
    if (s.cases_.empty()) continue;
    if (sections_.size() > 1 || s.name_ != "main")
      os << "[" << suite_ << "/" << s.name_ << "]\n";
    // Columns: the union of metric names in first-seen order, then time.
    std::vector<std::string> columns;
    for (const auto& c : s.cases_) {
      for (const auto& cell : c.row.cells_) {
        bool seen = false;
        for (const auto& col : columns) seen = seen || col == cell.name;
        if (!seen) columns.push_back(cell.name);
      }
    }
    std::vector<std::string> headers;
    headers.push_back("case");
    headers.insert(headers.end(), columns.begin(), columns.end());
    headers.push_back("ms/rep");
    Table table(headers);
    for (const auto& c : s.cases_) {
      table.row().cell(c.name);
      for (const auto& col : columns) {
        const MetricRow::Cell* found = nullptr;
        for (const auto& cell : c.row.cells_)
          if (cell.name == col) found = &cell;
        table.cell(found ? found->rendered : std::string("-"));
      }
      table.cell(c.time_ms.mean(), 2);
    }
    table.print(os);
    os << "\n";
  }
  for (const auto& n : notes_) os << n << "\n";
}

int BenchRun::finish(std::ostream& os) {
  print(os);
  if (!options_.json_path.empty()) {
    std::ofstream file(options_.json_path);
    CMVRP_CHECK_MSG(file.good(),
                    "cannot open " << options_.json_path << " for writing");
    file << to_json().dump(2) << "\n";
    CMVRP_CHECK_MSG(file.good(), "write to " << options_.json_path
                                             << " failed");
    os << "wrote " << options_.json_path << "\n";
  }
  return failed_ ? 1 : 0;
}

// --- suite registry ---------------------------------------------------------

namespace {

std::vector<Suite>& suite_store() {
  static std::vector<Suite> suites;
  return suites;
}

}  // namespace

void register_suite(Suite suite) {
  CMVRP_CHECK_MSG(!suite.name.empty(), "suite needs a name");
  CMVRP_CHECK_MSG(suite.fn != nullptr, "suite " << suite.name << " needs fn");
  CMVRP_CHECK_MSG(find_suite(suite.name) == nullptr,
                  "duplicate suite name: " << suite.name);
  suite_store().push_back(std::move(suite));
}

const Suite* find_suite(const std::string& name) {
  for (const auto& s : suite_store())
    if (s.name == name) return &s;
  return nullptr;
}

std::vector<const Suite*> all_suites() {
  std::vector<const Suite*> out;
  for (const auto& s : suite_store()) out.push_back(&s);
  return out;
}

int run_suite(const std::string& name, const RunOptions& options,
              std::ostream& os, Json* doc_out) {
  const Suite* suite = find_suite(name);
  CMVRP_CHECK_MSG(suite != nullptr, "unknown suite: " << name
                                                      << " (try --list)");
  os << name << ": " << suite->description << "\n\n";
  BenchRun run(name, options);
  suite->fn(run);
  const int rc = run.finish(os);
  if (doc_out != nullptr) *doc_out = run.to_json();
  return rc;
}

}  // namespace cmvrp
