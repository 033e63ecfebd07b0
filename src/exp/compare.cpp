#include "exp/compare.h"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <map>
#include <utility>

#include "exp/harness.h"
#include "obs/snapshot.h"
#include "obs/span_export.h"
#include "stream/report.h"
#include "util/check.h"

namespace cmvrp {
namespace {

// Past this many recorded verdicts the report only counts — a
// byte-shifted span trace would otherwise list thousands of lines.
constexpr std::size_t kMaxRecordedDiffs = 200;

// A bench case's time_ms spread relative to its mean (0 without one).
double relative_spread(const Json& bench_case) {
  const Json& t = bench_case.at("time_ms");
  if (!t.is_object() || !t.contains("mean") || !t.contains("stddev"))
    return 0.0;
  const double mean = t.at("mean").as_number();
  return mean > 0.0 ? t.at("stddev").as_number() / mean : 0.0;
}

std::string render(const Json* v) {
  return v == nullptr ? std::string() : v->dump();
}

std::string join_path(const std::string& path, const std::string& key) {
  return path.empty() ? key : path + "." + key;
}

class Comparator {
 public:
  Comparator(CompareKind kind, const CompareOptions& options,
             const FieldTable& table)
      : options_(options), table_(table) {
    report_.kind = kind;
  }

  CompareReport take() { return std::move(report_); }

  // Union-walk of two objects: A's keys in A order, then B's extras.
  void compare_object(const std::string& path, const Json& a, const Json& b) {
    // A bench case's per-iteration timings come from one timed loop with
    // no spread of their own, so they get the margin its time_ms block
    // gets, as a ratio: kNoiseSigmas × the larger stddev / mean.
    const double outer_margin = per_iteration_margin_;
    if (a.contains("time_ms") && b.contains("time_ms"))
      per_iteration_margin_ =
          kNoiseSigmas * std::max(relative_spread(a), relative_spread(b));
    for (const auto& [key, va] : a.items())
      compare_node(path, key, &va, b.contains(key) ? &b.at(key) : nullptr);
    for (const auto& [key, vb] : b.items())
      if (!a.contains(key)) compare_node(path, key, nullptr, &vb);
    per_iteration_margin_ = outer_margin;
  }

  void compare_node(const std::string& path, const std::string& key,
                    const Json* a, const Json* b) {
    for (const std::string& ignored : options_.ignore)
      if (ignored == key) return;
    const std::string here = join_path(path, key);
    const FieldSpec* f = find_field(table_, key);
    switch (f == nullptr ? FieldClass::kDeterministic : f->cls) {
      case FieldClass::kIdentity: {
        ++report_.fields_compared;
        CMVRP_CHECK_MSG(a != nullptr && b != nullptr && *a == *b,
                        "identity field `"
                            << here << "` differs — A: "
                            << (a ? a->dump() : std::string("<absent>"))
                            << ", B: "
                            << (b ? b->dump() : std::string("<absent>"))
                            << " — the two artifacts are not comparable runs "
                               "(schema/config mismatch)");
        return;
      }
      case FieldClass::kContext: {
        ++report_.fields_compared;
        if (a == nullptr || b == nullptr || !(*a == *b))
          record(here, FieldClass::kContext, FieldVerdict::kInfo, a, b, 0.0,
                 "run-shape field; allowed to differ");
        return;
      }
      case FieldClass::kWall:
        compare_wall(here, *f, a, b);
        return;
      case FieldClass::kDeterministic:
        compare_deterministic(here, a, b);
        return;
    }
  }

  void compare_deterministic(const std::string& path, const Json* a,
                             const Json* b) {
    if (a == nullptr || b == nullptr) {
      ++report_.fields_compared;
      ++report_.deterministic_fields;
      drift(path, a, b,
            a == nullptr ? "key only present in B" : "key only present in A");
      return;
    }
    if (a->is_object() && b->is_object()) {
      compare_object(path, *a, *b);
      return;
    }
    if (a->is_array() && b->is_array()) {
      if (a->size() != b->size()) {
        ++report_.fields_compared;
        ++report_.deterministic_fields;
        drift(path, a, b,
              "array length " + std::to_string(a->size()) + " vs " +
                  std::to_string(b->size()));
        return;
      }
      for (std::size_t i = 0; i < a->size(); ++i)
        compare_deterministic(path + "[" + std::to_string(i) + "]", &a->at(i),
                              &b->at(i));
      return;
    }
    ++report_.fields_compared;
    ++report_.deterministic_fields;
    if (!(*a == *b)) drift(path, a, b, "deterministic field drifted");
  }

  void compare_wall(const std::string& path, const FieldSpec& f,
                    const Json* a, const Json* b) {
    ++report_.fields_compared;
    ++report_.wall_fields;
    if (a == nullptr || b == nullptr) {
      record(path, FieldClass::kWall, FieldVerdict::kInfo, a, b, 0.0,
             "wall field present on one side only");
      return;
    }
    // Bench time_ms blocks: {reps, mean, stddev, min, max}. Compare the
    // means, but a shift inside the RunningStats noise margin is clean.
    if (a->is_object() && b->is_object() && a->contains("mean") &&
        b->contains("mean")) {
      const double ma = a->at("mean").as_number();
      const double mb = b->at("mean").as_number();
      const double sa = a->contains("stddev") ? a->at("stddev").as_number()
                                              : 0.0;
      const double sb = b->contains("stddev") ? b->at("stddev").as_number()
                                              : 0.0;
      const double margin = kNoiseSigmas * (sa > sb ? sa : sb);
      if (std::abs(mb - ma) <= margin) return;
      verdict_for_ratio(path, f, ma, mb, a, b);
      return;
    }
    if (!a->is_number() || !b->is_number()) {
      if (!(*a == *b))
        record(path, FieldClass::kWall, FieldVerdict::kInfo, a, b, 0.0,
               "non-numeric wall field differs");
      return;
    }
    verdict_for_ratio(path, f, a->as_number(), b->as_number(), a, b);
  }

  // Regression factor in the "worse" direction: times regress upward
  // (factor = B/A), rates downward (A/B).
  void verdict_for_ratio(const std::string& path, const FieldSpec& f,
                         double va, double vb, const Json* a, const Json* b) {
    if (va == vb) return;
    // Sub-floor millisecond timings are scheduler noise on both sides.
    if (f.unit == WallUnit::kMs && va < kMinWallMs && vb < kMinWallMs) return;
    const bool rate = f.direction == WallDirection::kRate;
    const double numer = rate ? va : vb;  // the side that grows when worse
    const double denom = rate ? vb : va;
    if (denom <= 0.0) {
      record(path, FieldClass::kWall, FieldVerdict::kInfo, a, b, 0.0,
             "cannot ratio against a non-positive reading");
      return;
    }
    const double factor = numer / denom;
    if (factor <= 1.0) return;  // improvement (or equal): never flagged
    if (f.unit == WallUnit::kPerIteration &&
        factor <= 1.0 + per_iteration_margin_)
      return;  // inside the case's measured noise
    if (factor > report_.worst_wall_ratio) {
      report_.worst_wall_ratio = factor;
      report_.worst_wall_field = path;
    }
    if (options_.fail_ratio > 0.0 && factor > options_.fail_ratio) {
      ++report_.wall_fails;
      record(path, FieldClass::kWall, FieldVerdict::kFail, a, b, factor,
             "wall regression past --fail-ratio");
    } else if (factor > kWallWarnRatio) {
      ++report_.warns;
      record(path, FieldClass::kWall, FieldVerdict::kWarn, a, b, factor,
             "wall regression past the warn threshold");
    }
  }

  void drift(const std::string& path, const Json* a, const Json* b,
             const std::string& note) {
    ++report_.drift;
    record(path, FieldClass::kDeterministic, FieldVerdict::kFail, a, b, 0.0,
           note);
  }

  void record(const std::string& path, FieldClass cls, FieldVerdict verdict,
              const Json* a, const Json* b, double ratio,
              const std::string& note) {
    if (verdict == FieldVerdict::kInfo) ++report_.context_diffs;
    if (report_.diffs.size() >= kMaxRecordedDiffs) {
      ++report_.diffs_truncated;
      return;
    }
    report_.diffs.push_back(
        {path, cls, verdict, render(a), render(b), ratio, note});
  }

 private:
  const CompareOptions& options_;
  const FieldTable& table_;
  CompareReport report_;
  double per_iteration_margin_ = 0.0;
};

Json parse_artifact(const std::string& text, const std::string& label) {
  try {
    return Json::parse(text);
  } catch (const check_error& e) {
    CMVRP_CHECK_MSG(false, "artifact " << label << " does not parse: "
                                       << e.what());
  }
  std::abort();  // unreachable; CMVRP_CHECK_MSG throws
}

// `doc` with each name-keyed array (a bench run's sections, a section's
// cases) turned into keys "sections[<name>]", "cases[<name>]", so two
// runs compare section by section and case by case whatever their order,
// and a missing or extra one is drift.
Json keyed_by_name(const Json& doc) {
  Json out = Json::object();
  for (const auto& [key, value] : doc.items()) {
    if (key == "name") continue;
    if ((key == "sections" || key == "cases") && value.is_array()) {
      for (std::size_t i = 0; i < value.size(); ++i)
        out.set(key + "[" + value.at(i).at("name").as_string() + "]",
                keyed_by_name(value.at(i)));
    } else {
      out.set(key, value);
    }
  }
  return out;
}

// Cube lines by their rendered corner: the writer's ascending-corner
// order makes the key deterministic, and std::map keeps the walk order
// stable.
std::map<std::string, const Json*> cubes_by_corner(const StatsDoc& doc) {
  std::map<std::string, const Json*> out;
  for (const Json& cube : doc.cubes)
    out.emplace(cube.at("corner").dump(), &cube);
  return out;
}

// In CompareKind order.
constexpr const char* kKindNames[] = {"auto", "stream", "stats", "bench",
                                      "spans"};

}  // namespace

const char* compare_kind_name(CompareKind kind) {
  return kKindNames[static_cast<int>(kind)];
}

CompareKind parse_compare_kind(const std::string& name) {
  for (int k = 0; k < 5; ++k)
    if (name == kKindNames[k]) return static_cast<CompareKind>(k);
  throw usage_error("--kind must be auto, stream, stats, bench, or spans; "
                    "got \"" +
                    name + "\"");
}

const char* field_class_name(FieldClass cls) {
  switch (cls) {
    case FieldClass::kIdentity: return "identity";
    case FieldClass::kDeterministic: return "deterministic";
    case FieldClass::kWall: return "wall";
    case FieldClass::kContext: return "context";
  }
  return "unknown";
}

const char* field_verdict_name(FieldVerdict verdict) {
  switch (verdict) {
    case FieldVerdict::kMatch: return "match";
    case FieldVerdict::kInfo: return "info";
    case FieldVerdict::kWarn: return "warn";
    case FieldVerdict::kFail: return "fail";
  }
  return "unknown";
}

Json CompareReport::to_json(const std::string& a, const std::string& b) const {
  Json doc = Json::object();
  doc.set("schema", kDiffSchema);
  doc.set("kind", compare_kind_name(kind));
  doc.set("a", a);
  doc.set("b", b);
  doc.set("fields_compared", fields_compared);
  doc.set("deterministic_fields", deterministic_fields);
  doc.set("wall_fields", wall_fields);
  doc.set("drift", drift);
  doc.set("warns", warns);
  doc.set("wall_fails", wall_fails);
  doc.set("context_diffs", context_diffs);
  doc.set("diffs_truncated", diffs_truncated);
  doc.set("worst_wall_field", worst_wall_field);
  doc.set("worst_wall_ratio", worst_wall_ratio);
  doc.set("exit", static_cast<std::int64_t>(exit_code()));
  Json list = Json::array();
  for (const FieldDiff& d : diffs) {
    Json j = Json::object();
    j.set("path", d.path);
    j.set("class", field_class_name(d.cls));
    j.set("verdict", field_verdict_name(d.verdict));
    j.set("a", d.a);
    j.set("b", d.b);
    j.set("ratio", d.ratio);
    j.set("note", d.note);
    list.push_back(std::move(j));
  }
  doc.set("diffs", std::move(list));
  return doc;
}

CompareKind detect_compare_kind(const std::string& text,
                                const std::string& label) {
  const std::size_t i = text.find_first_not_of(" \n\r\t");
  CMVRP_CHECK_MSG(i != std::string::npos,
                  "artifact " << label << " is empty (0 bytes of JSON)");
  CMVRP_CHECK_MSG(text[i] == '[' || text[i] == '{',
                  "artifact " << label
                              << " is not a JSON artifact (first byte at "
                                 "offset "
                              << i << " is '" << text[i] << "')");
  // A JSONL stats stream's first line is its header.
  try {
    const Json head = Json::parse(text.substr(i, text.find('\n', i) - i));
    if (head.is_object() && head.contains("kind") &&
        head.at("kind") == Json("header") && head.contains("schema") &&
        head.at("schema") == Json(kStatsSchema))
      return CompareKind::kStats;
  } catch (const check_error&) {
    // Not one line of JSON: a whole-document artifact.
  }
  const Json doc = parse_artifact(text, label);
  if (doc.is_array()) return CompareKind::kSpans;
  // Any version of a schema: an older artifact compares under --ignore.
  const std::string schema =
      doc.contains("schema") && doc.at("schema").is_string()
          ? doc.at("schema").as_string()
          : "";
  if (schema.rfind("cmvrp-stream-", 0) == 0) return CompareKind::kStream;
  if (schema.rfind("cmvrp-bench-", 0) == 0) return CompareKind::kBench;
  CMVRP_CHECK_MSG(false, "artifact " << label << " has unsupported schema \""
                                     << schema << "\"");
  std::abort();  // unreachable; CMVRP_CHECK_MSG throws
}

CompareReport compare_stream_reports(const Json& a, const Json& b,
                                     const CompareOptions& options) {
  CMVRP_CHECK_MSG(a.is_object() && b.is_object(),
                  "stream reports must be JSON objects");
  Comparator c(CompareKind::kStream, options, stream_report_fields());
  c.compare_object("", a, b);
  return c.take();
}

CompareReport compare_bench_runs(const Json& a, const Json& b,
                                 const CompareOptions& options) {
  CMVRP_CHECK_MSG(a.is_object() && b.is_object(),
                  "bench runs must be JSON objects");
  Comparator c(CompareKind::kBench, options, bench_fields());
  c.compare_object("", keyed_by_name(a), keyed_by_name(b));
  return c.take();
}

CompareReport compare_span_traces(const Json& a, const Json& b,
                                  const CompareOptions& options) {
  CMVRP_CHECK_MSG(a.is_array() && b.is_array(),
                  "span traces must be JSON event arrays");
  const FieldTable& table = span_export_fields();
  Comparator c(CompareKind::kSpans, options, table);
  // Events named by a wall row carry wall-clock payloads and are skipped;
  // everything else is stamped on the protocol clock.
  const auto deterministic_events = [&table](const Json& doc) {
    std::vector<const Json*> out;
    for (std::size_t i = 0; i < doc.size(); ++i) {
      const Json& e = doc.at(i);
      const FieldSpec* f =
          e.is_object() && e.contains("name") && e.at("name").is_string()
              ? find_field(table, e.at("name").as_string())
              : nullptr;
      if (f == nullptr || f->cls != FieldClass::kWall) out.push_back(&e);
    }
    return out;
  };
  const auto ea = deterministic_events(a);
  const auto eb = deterministic_events(b);
  if (ea.size() != eb.size()) {
    const Json na(static_cast<std::uint64_t>(ea.size()));
    const Json nb(static_cast<std::uint64_t>(eb.size()));
    c.compare_node("", "event_count", &na, &nb);
  }
  const std::size_t n = ea.size() < eb.size() ? ea.size() : eb.size();
  for (std::size_t i = 0; i < n; ++i)
    c.compare_deterministic("event[" + std::to_string(i) + "]", ea[i], eb[i]);
  return c.take();
}

CompareReport compare_stats_streams(const std::string& a_text,
                                    const std::string& b_text,
                                    const CompareOptions& options,
                                    const std::string& a_label,
                                    const std::string& b_label) {
  const StatsDoc a = read_stats(a_text, a_label);
  const StatsDoc b = read_stats(b_text, b_label);
  // One table for every line kind: no key has two classes.
  FieldTable table;
  for (const char* kind : {"header", "sample", "cube", "final"})
    table.insert(table.end(), stats_fields(kind).begin(),
                 stats_fields(kind).end());
  Comparator c(CompareKind::kStats, options, table);
  c.compare_object("header", a.header, b.header);
  // Samples fire every `stride` *batches*, so two runs with different
  // batch sizes (or strides) snapshot different arrival prefixes. Each
  // sample is still a pure fold over its first `jobs` arrivals, so match
  // samples by their `jobs` prefix: shared prefixes must agree exactly;
  // samples only one cadence produced are drift when the cadences match
  // (a dropped line is a real bug then) and informational otherwise.
  const bool same_cadence =
      a.header.contains("batch_size") && b.header.contains("batch_size") &&
      a.header.at("batch_size") == b.header.at("batch_size") &&
      a.header.contains("stride") && b.header.contains("stride") &&
      a.header.at("stride") == b.header.at("stride");
  const auto sample_key = [](const Json& s) {
    return s.at("jobs").dump();  // read_stats requires the key
  };
  std::map<std::string, const Json*> b_samples;
  for (const Json& s : b.samples) b_samples.emplace(sample_key(s), &s);
  for (const Json& s : a.samples) {
    const std::string key = sample_key(s);
    const std::string path = "sample[jobs=" + key + "]";
    const auto it = b_samples.find(key);
    if (it == b_samples.end()) {
      if (same_cadence)
        c.compare_node(path, "missing_sample", &s.at("jobs"), nullptr);
      continue;  // different cadence: this prefix was never snapshotted in B
    }
    c.compare_object(path, s, *it->second);
  }
  if (same_cadence) {
    std::map<std::string, const Json*> a_samples;
    for (const Json& s : a.samples) a_samples.emplace(sample_key(s), &s);
    for (const Json& s : b.samples)
      if (a_samples.find(sample_key(s)) == a_samples.end())
        c.compare_node("sample[jobs=" + sample_key(s) + "]", "extra_sample",
                       nullptr, &s.at("jobs"));
  }
  const auto cubes_a = cubes_by_corner(a);
  const auto cubes_b = cubes_by_corner(b);
  for (const auto& [corner, cube_a] : cubes_a) {
    const auto it = cubes_b.find(corner);
    if (it == cubes_b.end()) {
      c.compare_node("cube" + corner, "missing_cube", &cube_a->at("corner"),
                     nullptr);
      continue;
    }
    c.compare_object("cube" + corner, *cube_a, *it->second);
  }
  for (const auto& [corner, cube_b] : cubes_b)
    if (cubes_a.find(corner) == cubes_a.end())
      c.compare_node("cube" + corner, "extra_cube", nullptr,
                     &cube_b->at("corner"));
  c.compare_object("final", a.final_line, b.final_line);
  return c.take();
}

CompareReport compare_artifacts(const std::string& a_text,
                                const std::string& b_text, CompareKind kind,
                                const CompareOptions& options,
                                const std::string& a_label,
                                const std::string& b_label) {
  if (kind == CompareKind::kAuto) {
    kind = detect_compare_kind(a_text, a_label);
    const CompareKind kind_b = detect_compare_kind(b_text, b_label);
    CMVRP_CHECK_MSG(kind == kind_b,
                    "artifact kinds differ: " << a_label << " is "
                                              << compare_kind_name(kind)
                                              << ", " << b_label << " is "
                                              << compare_kind_name(kind_b));
  }
  switch (kind) {
    case CompareKind::kStats:
      return compare_stats_streams(a_text, b_text, options, a_label, b_label);
    case CompareKind::kStream:
      return compare_stream_reports(parse_artifact(a_text, a_label),
                                    parse_artifact(b_text, b_label), options);
    case CompareKind::kBench:
      return compare_bench_runs(parse_artifact(a_text, a_label),
                                parse_artifact(b_text, b_label), options);
    case CompareKind::kSpans:
      return compare_span_traces(parse_artifact(a_text, a_label),
                                 parse_artifact(b_text, b_label), options);
    case CompareKind::kAuto: break;  // resolved above
  }
  CMVRP_CHECK_MSG(false, "unreachable compare kind");
  std::abort();
}

}  // namespace cmvrp
