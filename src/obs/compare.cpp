#include "obs/compare.h"

#include <cmath>
#include <cstddef>
#include <map>
#include <utility>

#include "obs/snapshot.h"
#include "util/check.h"

namespace cmvrp {
namespace {

// Past this many recorded verdicts the report only counts — a
// byte-shifted span trace would otherwise list thousands of lines.
constexpr std::size_t kMaxRecordedDiffs = 200;

bool starts_with(const std::string& s, const char* prefix) {
  return s.rfind(prefix, 0) == 0;
}

bool ends_with(const std::string& s, const char* suffix) {
  const std::size_t n = std::string(suffix).size();
  return s.size() >= n && s.compare(s.size() - n, n, suffix) == 0;
}

// Rate-style wall keys: bigger is better, so the regression direction is
// B *below* A. Covers the report key (`jobs_per_sec`), the bench metric
// spellings (`jobs/sec`, `speedup vs 1t`), and derived wall ratios.
bool is_rate_key(const std::string& key) {
  return key == "jobs_per_sec" || ends_with(key, "/sec") ||
         starts_with(key, "speedup") || key == "on/off ratio";
}

// The Tier-A/Tier-B naming convention from src/obs/: every
// nondeterministic (wall-clock-derived) key ends in `_ms` (wall_ms,
// routing_ms, stage_*_ms) or ` ms` (the bench table spellings), starts
// with `wall_` (wall_rss_kb), is a per-iteration timing of the
// `substrates` suite (`us/iter`, `ns/op`; lower is better), or is a
// derived rate. Everything else in an artifact is a pure function of the
// arrival sequence and seed.
bool is_ms_key(const std::string& key) {
  return ends_with(key, "_ms") || ends_with(key, " ms");
}

// The `substrates` suite's per-iteration timings: one timed loop per
// case, with no spread of their own.
bool is_per_iteration_key(const std::string& key) {
  return key == "us/iter" || key == "ns/op";
}

bool is_wall_key(const std::string& key) {
  return is_ms_key(key) || starts_with(key, "wall_") ||
         is_per_iteration_key(key) || is_rate_key(key);
}

// A bench case's time_ms spread relative to its mean (0 without one).
double relative_spread(const Json& bench_case) {
  if (!bench_case.contains("time_ms")) return 0.0;
  const Json& t = bench_case.at("time_ms");
  if (!t.is_object() || !t.contains("mean") || !t.contains("stddev"))
    return 0.0;
  const double mean = t.at("mean").as_number();
  return mean > 0.0 ? t.at("stddev").as_number() / mean : 0.0;
}

bool name_in(const std::vector<std::string>& names, const std::string& key) {
  for (const auto& n : names)
    if (n == key) return true;
  return false;
}

std::string render(const Json* v) {
  return v == nullptr ? std::string() : v->dump();
}

std::string join_path(const std::string& path, const std::string& key) {
  return path.empty() ? key : path + "." + key;
}

// Per-kind field sets. Identity fields must agree outright (schema ids,
// seeds, protocol/config echoes); context fields describe the run shape
// two comparable runs may legitimately disagree on (thread count, batch
// size, machine identity) and never fail.
struct KindRules {
  std::vector<std::string> identity;
  std::vector<std::string> context;
};

const KindRules& rules_for(CompareKind kind) {
  static const KindRules stream{
      {"schema", "seed", "capacity", "cube_side", "monitor_stride",
       "admission", "queue_limit", "service_ticks", "sample_stride",
       "obs_counters", "obs_spans", "span_sample", "flight"},
      {"threads", "batch_size", "batches"}};
  static const KindRules stats{
      {"kind", "schema", "dim", "seed", "counters"},
      {"threads", "batch_size", "stride", "batch"}};
  static const KindRules bench{{"schema", "suite"},
                               {"options", "notes", "hw threads"}};
  static const KindRules spans{{}, {}};
  switch (kind) {
    case CompareKind::kStream: return stream;
    case CompareKind::kStats: return stats;
    case CompareKind::kBench: return bench;
    default: return spans;
  }
}

class Comparator {
 public:
  Comparator(CompareKind kind, const CompareOptions& options)
      : options_(options), rules_(rules_for(kind)) {
    report_.kind = kind;
  }

  CompareReport take() { return std::move(report_); }

  // The relative noise margin of the per-iteration timings compared
  // next (see compare_bench_runs); 0 outside a bench case.
  void set_per_iteration_margin(double margin) {
    per_iteration_margin_ = margin;
  }

  FieldClass classify(const std::string& key) const {
    if (name_in(rules_.identity, key)) return FieldClass::kIdentity;
    if (name_in(rules_.context, key)) return FieldClass::kContext;
    if (is_wall_key(key)) return FieldClass::kWall;
    return FieldClass::kDeterministic;
  }

  // Union-walk of two objects: A's keys in A order, then B's extras.
  void compare_object(const std::string& path, const Json& a, const Json& b) {
    for (const auto& [key, va] : a.items())
      compare_node(path, key, &va, b.contains(key) ? &b.at(key) : nullptr);
    for (const auto& [key, vb] : b.items())
      if (!a.contains(key)) compare_node(path, key, nullptr, &vb);
  }

  void compare_node(const std::string& path, const std::string& key,
                    const Json* a, const Json* b) {
    if (name_in(options_.ignore, key)) return;
    const std::string here = join_path(path, key);
    switch (classify(key)) {
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
        compare_wall(here, key, a, b);
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

  void compare_wall(const std::string& path, const std::string& key,
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
      const double margin =
          options_.noise_sigmas * (sa > sb ? sa : sb);
      if (std::abs(mb - ma) <= margin) return;
      verdict_for_ratio(path, key, ma, mb, a, b);
      return;
    }
    if (!a->is_number() || !b->is_number()) {
      if (!(*a == *b))
        record(path, FieldClass::kWall, FieldVerdict::kInfo, a, b, 0.0,
               "non-numeric wall field differs");
      return;
    }
    verdict_for_ratio(path, key, a->as_number(), b->as_number(), a, b);
  }

  // Regression factor in the "worse" direction: time-like keys regress
  // upward (factor = B/A), rate-like keys regress downward (A/B).
  void verdict_for_ratio(const std::string& path, const std::string& key,
                         double va, double vb, const Json* a, const Json* b) {
    if (va == vb) return;
    // Sub-floor millisecond timings are scheduler noise on both sides. The
    // floor is in milliseconds, so per-iteration timings (us/iter, ns/op)
    // in their own units are always compared.
    if (is_ms_key(key) && va < options_.min_wall_ms &&
        vb < options_.min_wall_ms)
      return;
    const bool rate = is_rate_key(key);
    const double numer = rate ? va : vb;  // the side that grows when worse
    const double denom = rate ? vb : va;
    if (denom <= 0.0) {
      record(path, FieldClass::kWall, FieldVerdict::kInfo, a, b, 0.0,
             "cannot ratio against a non-positive reading");
      return;
    }
    const double factor = numer / denom;
    if (factor <= 1.0) return;  // improvement (or equal): never flagged
    if (is_per_iteration_key(key) && factor <= 1.0 + per_iteration_margin_)
      return;  // inside the case's measured noise
    if (factor > report_.worst_wall_ratio) {
      report_.worst_wall_ratio = factor;
      report_.worst_wall_field = path;
    }
    if (options_.fail_ratio > 0.0 && factor > options_.fail_ratio) {
      ++report_.wall_fails;
      record(path, FieldClass::kWall, FieldVerdict::kFail, a, b, factor,
             "wall regression past --fail-ratio");
    } else if (factor > options_.warn_ratio) {
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
  const KindRules& rules_;
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

// Cube lines by their rendered corner: the writer's ascending-corner
// order makes the key deterministic, and std::map keeps the walk order
// stable.
std::map<std::string, const Json*> cubes_by_corner(const StatsDoc& doc) {
  std::map<std::string, const Json*> out;
  for (const Json& cube : doc.cubes)
    out.emplace(cube.at("corner").dump(), &cube);
  return out;
}

// --- spans (Chrome trace-event JSON) ----------------------------------------

// Events whose *name* is a wall key (the single `wall_ms` metadata line
// the exporter emits first) carry wall-clock payloads; everything else —
// naming metadata, span events, the totals trailer — is stamped on the
// protocol clock and must match exactly.
bool span_event_is_wall(const Json& event) {
  return event.is_object() && event.contains("name") &&
         event.at("name").is_string() && is_wall_key(event.at("name").as_string());
}

}  // namespace

const char* compare_kind_name(CompareKind kind) {
  switch (kind) {
    case CompareKind::kAuto: return "auto";
    case CompareKind::kStream: return "stream";
    case CompareKind::kStats: return "stats";
    case CompareKind::kBench: return "bench";
    case CompareKind::kSpans: return "spans";
  }
  return "unknown";
}

CompareKind parse_compare_kind(const std::string& name) {
  if (name == "auto") return CompareKind::kAuto;
  if (name == "stream") return CompareKind::kStream;
  if (name == "stats") return CompareKind::kStats;
  if (name == "bench") return CompareKind::kBench;
  if (name == "spans") return CompareKind::kSpans;
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
  std::size_t i = 0;
  while (i < text.size() &&
         (text[i] == ' ' || text[i] == '\n' || text[i] == '\r' ||
          text[i] == '\t'))
    ++i;
  CMVRP_CHECK_MSG(i < text.size(),
                  "artifact " << label << " is empty (0 bytes of JSON)");
  if (text[i] == '[') {
    parse_artifact(text, label);  // validates; truncation names the offset
    return CompareKind::kSpans;
  }
  CMVRP_CHECK_MSG(text[i] == '{', "artifact "
                                      << label
                                      << " is not a JSON artifact (first "
                                         "byte at offset "
                                      << i << " is '" << text[i] << "')");
  // One object => a stream report or bench run. A JSONL stats stream
  // fails the whole-document parse but its first line is the header.
  try {
    const Json doc = Json::parse(text);
    CMVRP_CHECK_MSG(doc.contains("schema") && doc.at("schema").is_string(),
                    "artifact " << label << " has no \"schema\" field");
    const std::string& schema = doc.at("schema").as_string();
    if (starts_with(schema, "cmvrp-stream")) return CompareKind::kStream;
    if (starts_with(schema, "cmvrp-bench")) return CompareKind::kBench;
    CMVRP_CHECK_MSG(false, "artifact " << label << " has unsupported schema "
                                       << schema);
  } catch (const check_error&) {
    const std::size_t eol = text.find('\n', i);
    if (eol != std::string::npos) {
      try {
        const Json head = Json::parse(text.substr(i, eol - i));
        if (head.is_object() && head.contains("kind") &&
            head.at("kind").as_string() == "header" &&
            head.contains("schema") &&
            starts_with(head.at("schema").as_string(), "cmvrp-stats"))
          return CompareKind::kStats;
      } catch (const check_error&) {
        // fall through to the rethrow below
      }
    }
    throw;
  }
  std::abort();  // unreachable
}

CompareReport compare_stream_reports(const Json& a, const Json& b,
                                     const CompareOptions& options) {
  CMVRP_CHECK_MSG(a.is_object() && b.is_object(),
                  "stream reports must be JSON objects");
  Comparator c(CompareKind::kStream, options);
  c.compare_object("", a, b);
  return c.take();
}

CompareReport compare_bench_runs(const Json& a, const Json& b,
                                 const CompareOptions& options) {
  CMVRP_CHECK_MSG(a.is_object() && b.is_object(),
                  "bench runs must be JSON objects");
  Comparator c(CompareKind::kBench, options);
  // Top-level scalars: schema/suite are identity, options/notes context,
  // failed deterministic. Sections and cases match by *name*, not
  // position, so a reordered artifact still compares field for field.
  for (const auto& [key, va] : a.items()) {
    if (key == "sections") continue;
    c.compare_node("", key, &va, b.contains(key) ? &b.at(key) : nullptr);
  }
  for (const auto& [key, vb] : b.items())
    if (key != "sections" && !a.contains(key))
      c.compare_node("", key, nullptr, &vb);

  const auto by_name = [](const Json& arr) {
    std::vector<std::pair<std::string, const Json*>> out;
    for (std::size_t i = 0; i < arr.size(); ++i)
      out.emplace_back(arr.at(i).at("name").as_string(), &arr.at(i));
    return out;
  };
  const auto find = [](const std::vector<std::pair<std::string, const Json*>>&
                           entries,
                       const std::string& name) -> const Json* {
    for (const auto& [n, j] : entries)
      if (n == name) return j;
    return nullptr;
  };

  const Json empty_sections = Json::array();
  const Json& sa = a.contains("sections") ? a.at("sections") : empty_sections;
  const Json& sb = b.contains("sections") ? b.at("sections") : empty_sections;
  const auto sections_a = by_name(sa);
  const auto sections_b = by_name(sb);
  for (const auto& [sname, sec_a] : sections_a) {
    const std::string spath = "sections[" + sname + "]";
    const Json* sec_b = find(sections_b, sname);
    if (sec_b == nullptr) {
      c.compare_node(spath, "missing_section", &sec_a->at("name"), nullptr);
      continue;
    }
    const auto cases_a = by_name(sec_a->at("cases"));
    const auto cases_b = by_name(sec_b->at("cases"));
    for (const auto& [cname, case_a] : cases_a) {
      const std::string cpath = spath + ".cases[" + cname + "]";
      const Json* case_b = find(cases_b, cname);
      if (case_b == nullptr) {
        c.compare_node(cpath, "missing_case", &case_a->at("name"), nullptr);
        continue;
      }
      // A case's per-iteration timings come from one timed loop with no
      // spread of their own, so they get the margin its time_ms block
      // gets, as a ratio: noise_sigmas × the larger stddev / mean.
      const double spread_a = relative_spread(*case_a);
      const double spread_b = relative_spread(*case_b);
      c.set_per_iteration_margin(options.noise_sigmas *
                                 (spread_a > spread_b ? spread_a : spread_b));
      for (const auto& [key, va] : case_a->items()) {
        if (key == "name") continue;
        c.compare_node(cpath, key, &va,
                       case_b->contains(key) ? &case_b->at(key) : nullptr);
      }
      for (const auto& [key, vb] : case_b->items())
        if (key != "name" && !case_a->contains(key))
          c.compare_node(cpath, key, nullptr, &vb);
      c.set_per_iteration_margin(0.0);
    }
    for (const auto& [cname, case_b] : cases_b)
      if (find(cases_a, cname) == nullptr)
        c.compare_node(spath + ".cases[" + cname + "]", "extra_case", nullptr,
                       &case_b->at("name"));
  }
  for (const auto& [sname, sec_b] : sections_b)
    if (find(sections_a, sname) == nullptr)
      c.compare_node("sections[" + sname + "]", "extra_section", nullptr,
                     &sec_b->at("name"));
  return c.take();
}

CompareReport compare_span_traces(const Json& a, const Json& b,
                                  const CompareOptions& options) {
  CMVRP_CHECK_MSG(a.is_array() && b.is_array(),
                  "span traces must be JSON event arrays");
  Comparator c(CompareKind::kSpans, options);
  const auto deterministic_events = [](const Json& doc) {
    std::vector<const Json*> out;
    for (std::size_t i = 0; i < doc.size(); ++i)
      if (!span_event_is_wall(doc.at(i))) out.push_back(&doc.at(i));
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
  Comparator c(CompareKind::kStats, options);
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
