#include "obs/snapshot.h"

#include <cinttypes>
#include <cstdio>
#include <exception>
#include <initializer_list>
#include <map>
#include <utility>

#include "util/check.h"
#include "util/digest.h"

namespace cmvrp {
namespace {

// Appends `"key":text,` to a line under construction.
void field(std::string* line, const char* key, const char* text) {
  line->append("\"").append(key).append("\":").append(text).push_back(',');
}

void field_u64(std::string* line, const char* key, std::uint64_t value) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%" PRIu64, value);
  field(line, key, buf);
}

void field_i64(std::string* line, const char* key, std::int64_t value) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%" PRId64, value);
  field(line, key, buf);
}

void field_ms(std::string* line, const char* key, double value) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%.3f", value);
  field(line, key, buf);
}

// Callers pass schema ids and hex digests: nothing to escape.
void field_str(std::string* line, const char* key, const std::string& value) {
  line->append("\"").append(key).append("\":\"").append(value).append("\",");
}

void field_bool(std::string* line, const char* key, bool value) {
  field(line, key, value ? "true" : "false");
}

// The Tier-A block shared by sample / cube / final lines: one key per
// counter row, then what derives from them.
void counter_fields(std::string* line, const CubeCounters& c) {
  for (const CounterField& f : kCounterFields)
    field_u64(line, f.key, c.*f.member);
  field_u64(line, "msg_total", c.messages_total());
  field_u64(line, "cascade_count", c.cascade.count());
  field_i64(line, "cascade_p50", c.cascade.percentile(50.0));
  field_i64(line, "cascade_p99", c.cascade.percentile(99.0));
  field_i64(line, "cascade_max", c.cascade.observed_max());
  field_str(line, "counters_hash", digest_hex(c.digest()));
}

void stage_fields(std::string* line, const StageTimes& s) {
  for (const StageField& f : kStageFields) field_ms(line, f.key, s.*f.member);
  field_i64(line, "wall_rss_kb", current_rss_kb());
}

void finish_line(std::string* line, std::ostream& out) {
  CMVRP_CHECK(!line->empty() && line->back() == ',');
  line->back() = '}';
  line->push_back('\n');
  out << *line;
}

}  // namespace

const FieldTable& stats_fields(const std::string& kind) {
  static const std::map<std::string, FieldTable> tables = [] {
    std::map<std::string, FieldTable> t;
    const auto rows = [&t](const char* line, FieldClass cls,
                           std::initializer_list<const char*> keys) {
      for (const char* key : keys) t[line].push_back({key, cls});
    };
    // counter_fields and stage_fields above.
    const auto counters = [&](const char* line) {
      for (const CounterField& f : kCounterFields)
        rows(line, FieldClass::kDeterministic, {f.key});
      rows(line, FieldClass::kDeterministic,
           {"msg_total", "cascade_count", "cascade_p50", "cascade_p99",
            "cascade_max", "counters_hash"});
    };
    const auto stages = [&t](const char* line) {
      for (const StageField& f : kStageFields)
        t[line].push_back(wall_field(f.key, WallUnit::kMs));
      t[line].push_back(wall_field("wall_rss_kb", WallUnit::kOther));
    };
    for (const char* line : {"header", "sample", "cube", "final"})
      rows(line, FieldClass::kIdentity, {"kind"});
    rows("header", FieldClass::kIdentity, {"schema", "dim"});
    rows("header", FieldClass::kContext, {"threads", "batch_size"});
    rows("header", FieldClass::kIdentity, {"seed"});
    rows("header", FieldClass::kContext, {"stride"});
    rows("header", FieldClass::kIdentity, {"counters"});
    rows("sample", FieldClass::kContext, {"batch"});
    rows("sample", FieldClass::kDeterministic, {"jobs"});
    counters("sample");
    stages("sample");
    rows("cube", FieldClass::kDeterministic, {"corner"});
    counters("cube");
    rows("cube", FieldClass::kDeterministic,
         {"latency_count", "latency_p50", "latency_p90", "latency_p99",
          "latency_max"});
    rows("final", FieldClass::kDeterministic, {"jobs", "cubes"});
    counters("final");
    rows("final", FieldClass::kDeterministic, {"messages_per_replacement"});
    stages("final");
    return t;
  }();
  static const FieldTable none;
  const auto it = tables.find(kind);
  return it == tables.end() ? none : it->second;
}

StatsSnapshotter::StatsSnapshotter(std::ostream& out, std::int64_t stride)
    : out_(out), stride_(stride) {
  CMVRP_CHECK_MSG(stride >= 1, "stats stride must be >= 1 batch");
}

void StatsSnapshotter::write_header(int dim, int threads,
                                    std::int64_t batch_size,
                                    std::uint64_t seed, bool counters_on) {
  std::string line = "{";
  field_str(&line, "kind", "header");
  field_str(&line, "schema", kStatsSchema);
  field_i64(&line, "dim", dim);
  field_i64(&line, "threads", threads);
  field_i64(&line, "batch_size", batch_size);
  field_u64(&line, "seed", seed);
  field_i64(&line, "stride", stride_);
  field_bool(&line, "counters", counters_on);
  finish_line(&line, out_);
  ++lines_;
}

void StatsSnapshotter::write_sample(std::uint64_t batch,
                                    std::uint64_t jobs_ingested,
                                    const CubeCounters& totals,
                                    const StageTimes& stages) {
  std::string line = "{";
  field_str(&line, "kind", "sample");
  field_u64(&line, "batch", batch);
  field_u64(&line, "jobs", jobs_ingested);
  counter_fields(&line, totals);
  stage_fields(&line, stages);
  finish_line(&line, out_);
  ++lines_;
}

void StatsSnapshotter::write_cube(const Point& corner,
                                  const CubeCounters& counters,
                                  const LatencyHistogram& latency) {
  std::string line = "{";
  field_str(&line, "kind", "cube");
  line.append("\"corner\":[");
  for (int i = 0; i < corner.dim(); ++i) {
    if (i > 0) line.push_back(',');
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%" PRId64, corner[i]);
    line.append(buf);
  }
  line.append("],");
  counter_fields(&line, counters);
  field_u64(&line, "latency_count", latency.count());
  field_i64(&line, "latency_p50", latency.percentile(50.0));
  field_i64(&line, "latency_p90", latency.percentile(90.0));
  field_i64(&line, "latency_p99", latency.percentile(99.0));
  field_i64(&line, "latency_max", latency.observed_max());
  finish_line(&line, out_);
  ++lines_;
}

void StatsSnapshotter::write_final(std::uint64_t jobs_ingested,
                                   std::uint64_t cubes,
                                   const CubeCounters& totals,
                                   const StageTimes& stages) {
  std::string line = "{";
  field_str(&line, "kind", "final");
  field_u64(&line, "jobs", jobs_ingested);
  field_u64(&line, "cubes", cubes);
  counter_fields(&line, totals);
  // Derived ratio, still Tier A: both operands are deterministic
  // counters, and the fixed-precision rendering is reproducible.
  field_ms(&line, "messages_per_replacement",
           totals.messages_per_replacement());
  stage_fields(&line, stages);
  finish_line(&line, out_);
  ++lines_;
}

StatsDoc read_stats(const std::string& text, const std::string& label) {
  CMVRP_CHECK_MSG(!text.empty(),
                  "stats stream " << label << " at byte 0: empty (0 bytes)");
  StatsDoc doc;  // header and final_line stay null until their lines
  std::uint64_t lines = 0;
  std::size_t at = 0;  // byte offset of the current line
  while (at < text.size()) {
    std::size_t eol = text.find('\n', at);
    if (eol == std::string::npos) eol = text.size();
    const std::string line = text.substr(at, eol - at);
    ++lines;
    if (!line.empty()) {
      Json j;
      try {
        j = Json::parse(line);
      } catch (const std::exception& e) {
        CMVRP_CHECK_MSG(false, "stats stream " << label << " at byte " << at
                                               << " (line " << lines
                                               << "): does not parse ("
                                               << e.what() << ")");
      }
      CMVRP_CHECK_MSG(j.is_object() && j.contains("kind") &&
                          j.at("kind").is_string(),
                      "stats stream " << label << " at byte " << at
                                      << " (line " << lines
                                      << "): no \"kind\" field");
      const std::string kind = j.at("kind").as_string();
      if (kind == "header") {
        const Json schema = j.contains("schema") ? j.at("schema") : Json();
        CMVRP_CHECK_MSG(schema == Json(kStatsSchema),
                        "stats stream " << label << " at byte " << at
                                        << ": unsupported schema "
                                        << schema.dump()
                                        << " (this reader reads "
                                        << kStatsSchema << ")");
      }
      for (const FieldSpec& f : stats_fields(kind))
        CMVRP_CHECK_MSG(j.contains(f.key), "stats stream "
                                               << label << " at byte " << at
                                               << " (line " << lines << "): "
                                               << kind << " line has no \""
                                               << f.key << "\" key");
      if (kind == "header") {
        doc.header = std::move(j);
      } else if (kind == "sample") {
        doc.samples.push_back(std::move(j));
      } else if (kind == "cube") {
        doc.cubes.push_back(std::move(j));
      } else if (kind == "final") {
        doc.final_line = std::move(j);
      }
    }
    at = eol + 1;
  }
  const std::size_t bytes = text.size();
  CMVRP_CHECK_MSG(doc.header.is_object(),
                  "stats stream " << label << " at byte " << bytes
                                  << ": no header line in " << bytes
                                  << " bytes (" << lines
                                  << " lines) — not a cmvrp-stats JSONL "
                                     "stream");
  CMVRP_CHECK_MSG(doc.final_line.is_object(),
                  "stats stream " << label << " at byte " << bytes
                                  << ": no final line after " << bytes
                                  << " bytes (" << lines
                                  << " lines) — truncated? the run did not "
                                     "finish()");
  return doc;
}

}  // namespace cmvrp
