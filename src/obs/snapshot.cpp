#include "obs/snapshot.h"

#include <cinttypes>
#include <cstdio>
#include <exception>
#include <utility>

#include "util/check.h"
#include "util/digest.h"

namespace cmvrp {
namespace {

void field_u64(std::string* line, const char* key, std::uint64_t value) {
  line->push_back('"');
  line->append(key);
  line->append("\":");
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%" PRIu64, value);
  line->append(buf);
  line->push_back(',');
}

void field_i64(std::string* line, const char* key, std::int64_t value) {
  line->push_back('"');
  line->append(key);
  line->append("\":");
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%" PRId64, value);
  line->append(buf);
  line->push_back(',');
}

void field_ms(std::string* line, const char* key, double value) {
  line->push_back('"');
  line->append(key);
  line->append("\":");
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%.3f", value);
  line->append(buf);
  line->push_back(',');
}

void field_str(std::string* line, const char* key, const std::string& value) {
  line->push_back('"');
  line->append(key);
  line->append("\":\"");
  line->append(value);  // callers pass schema ids / hex digests: no escapes
  line->append("\",");
}

void field_bool(std::string* line, const char* key, bool value) {
  line->push_back('"');
  line->append(key);
  line->append("\":");
  line->append(value ? "true" : "false");
  line->push_back(',');
}

// The Tier-A block shared by sample / cube / final lines: one key per
// counter row, then what derives from them. Every field here is
// deterministic; the wall-clock block is appended separately.
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
  field_ms(line, "stage_ingest_ms", s.ingest_ms);
  field_ms(line, "stage_route_ms", s.route_ms);
  field_ms(line, "stage_serve_ms", s.serve_ms);
  field_ms(line, "stage_fold_ms", s.fold_ms);
  field_ms(line, "stage_monitor_ms", s.monitor_ms);
  field_i64(line, "wall_rss_kb", current_rss_kb());
}

void finish_line(std::string* line, std::ostream& out) {
  CMVRP_CHECK(!line->empty() && line->back() == ',');
  line->back() = '}';
  line->push_back('\n');
  out << *line;
}

// The keys a line of `kind` must carry: every key the writer above emits
// on a header, sample, cube or final line, which includes each one
// `cmvrp_cli stats` and compare_stats_streams read. ("kind" and the
// header's "schema" are checked before these.) Unknown kinds are not
// checked.
std::vector<std::string> required_keys(const std::string& kind) {
  if (kind == "header")
    return {"dim", "threads", "batch_size", "seed", "stride", "counters"};
  std::vector<std::string> keys;
  if (kind == "sample")
    keys = {"batch", "jobs"};
  else if (kind == "cube")
    keys = {"corner", "latency_count", "latency_p50", "latency_p90",
            "latency_p99", "latency_max"};
  else if (kind == "final")
    keys = {"jobs", "cubes", "messages_per_replacement"};
  else
    return keys;
  for (const CounterField& f : kCounterFields) keys.push_back(f.key);
  for (const char* key : {"msg_total", "cascade_count", "cascade_p50",
                          "cascade_p99", "cascade_max", "counters_hash"})
    keys.push_back(key);
  // stage_fields: the wall-clock block of sample and final lines.
  if (kind != "cube")
    for (const char* key :
         {"stage_ingest_ms", "stage_route_ms", "stage_serve_ms",
          "stage_fold_ms", "stage_monitor_ms", "wall_rss_kb"})
      keys.push_back(key);
  return keys;
}

}  // namespace

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
      for (const std::string& key : required_keys(kind))
        CMVRP_CHECK_MSG(j.contains(key), "stats stream "
                                             << label << " at byte " << at
                                             << " (line " << lines << "): "
                                             << kind << " line has no \""
                                             << key << "\" key");
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
