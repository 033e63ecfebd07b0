#include "stream/report.h"

#include <functional>
#include <vector>

#include "obs/counters.h"
#include "obs/stage_timer.h"
#include "online/fleet_core.h"
#include "util/digest.h"

namespace cmvrp {
namespace {

using Run = const StreamRun&;

struct StreamReportRow {
  FieldSpec field;
  std::function<Json(Run)> value;
};

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

const char* admission_name(AdmissionPolicy policy) {
  switch (policy) {
    case AdmissionPolicy::kUnbounded: return "unbounded";
    case AdmissionPolicy::kReject: return "reject";
    case AdmissionPolicy::kShed: return "shed";
  }
  return "unknown";
}

// Set digests: two reports diff for set equality without the index
// lists, and a report audits against an on-disk outcome trace.
std::string set_hash(const std::vector<std::int64_t>& indices) {
  return digest_hex(index_set_digest(indices));
}

// A row of class FieldClass::k<cls>, its value an expression of run `r`.
#define ROW(cls, key, ...)                                            \
  StreamReportRow {                                                   \
    {key, FieldClass::k##cls}, []([[maybe_unused]] Run r) -> Json { \
      return __VA_ARGS__;                                             \
    }                                                                 \
  }

const std::vector<StreamReportRow>& stream_report_rows() {
  static const std::vector<StreamReportRow> rows = [] {
    std::vector<StreamReportRow> t = {
        ROW(Identity, "schema", kStreamSchema),
        ROW(Context, "threads", r.config.threads),
        ROW(Context, "batch_size", r.config.batch_size),
        ROW(Identity, "monitor_stride", r.config.online.monitor_stride),
        ROW(Identity, "capacity", r.config.online.capacity),
        ROW(Identity, "cube_side", r.config.online.cube_side),
        ROW(Identity, "seed", r.config.online.seed),
        ROW(Identity, "admission", admission_name(r.config.online.admission)),
        ROW(Identity, "queue_limit", r.config.online.queue_limit),
        ROW(Identity, "service_ticks", r.config.online.service_ticks),
        ROW(Identity, "sample_stride", r.config.online.sample_stride),
        ROW(Deterministic, "jobs", r.result.jobs_ingested),
        ROW(Context, "batches", r.result.batches),
        ROW(Deterministic, "cubes", r.result.cubes),
        // The slot-table size: a routing hint that changes only wall time
        // (StreamConfig::region).
        ROW(Context, "cube_slots", r.result.cube_slots),
    };
    // Tier-A counter totals. The obs-gated rows are zero when obs_counters
    // is false, the span rows unless span recording was on.
    for (const CounterField& f : kCounterFields)
      t.push_back({{f.key, FieldClass::kDeterministic},
                   [m = f.member](Run r) -> Json {
                     return r.result.counters.*m;
                   }});
    t.insert(t.end(), {
        ROW(Deterministic, "served_hash", set_hash(r.result.served_jobs)),
        ROW(Deterministic, "failed_hash", set_hash(r.result.failed_jobs)),
        ROW(Deterministic, "shed_hash", set_hash(r.result.shed_jobs)),
        ROW(Deterministic, "latency_count", r.result.latency.count()),
        ROW(Deterministic, "latency_p50", r.result.latency.percentile(50.0)),
        ROW(Deterministic, "latency_p90", r.result.latency.percentile(90.0)),
        ROW(Deterministic, "latency_p99", r.result.latency.percentile(99.0)),
        ROW(Deterministic, "latency_max", r.result.latency.observed_max()),
        ROW(Deterministic, "latency_hash",
            digest_hex(r.result.latency.digest())),
        ROW(Deterministic, "ts_cubes", r.result.timeseries.cubes_sampled),
        ROW(Deterministic, "ts_samples", r.result.timeseries.samples),
        ROW(Deterministic, "ts_max_queue_depth",
            r.result.timeseries.max_queue_depth),
        ROW(Deterministic, "ts_max_occupancy_pm",
            r.result.timeseries.max_occupancy_pm),
        ROW(Deterministic, "ts_hash", digest_hex(r.result.timeseries.digest)),
        ROW(Deterministic, "messages", r.result.metrics.network.total()),
        ROW(Identity, "obs_counters", r.config.online.obs.counters),
        ROW(Identity, "obs_spans", r.config.online.obs.spans),
        ROW(Identity, "span_sample", r.config.online.obs.span_sample),
        ROW(Identity, "flight", r.config.online.obs.flight),
        ROW(Deterministic, "cascade_count", r.result.counters.cascade.count()),
        ROW(Deterministic, "cascade_p50",
            r.result.counters.cascade.percentile(50.0)),
        ROW(Deterministic, "cascade_p99",
            r.result.counters.cascade.percentile(99.0)),
        ROW(Deterministic, "cascade_max",
            r.result.counters.cascade.observed_max()),
        ROW(Deterministic, "cascade_hash",
            digest_hex(r.result.counters.cascade.digest())),
        ROW(Deterministic, "messages_per_replacement",
            r.result.counters.messages_per_replacement()),
        // The Phase I flood alone (Lemma 3.3.1's queries, replies and
        // moves) per replacement, and the monitoring ring's heartbeats
        // per arrival: the two purposes messages_per_replacement mixes.
        ROW(Deterministic, "flood_msgs_per_replacement",
            ratio(static_cast<double>(r.result.counters.msg_queries +
                                      r.result.counters.msg_replies +
                                      r.result.counters.msg_moves),
                  static_cast<double>(r.result.counters.replacements))),
        ROW(Deterministic, "heartbeats_per_job",
            ratio(static_cast<double>(r.result.counters.msg_heartbeats),
                  static_cast<double>(r.result.jobs_ingested))),
        ROW(Deterministic, "counters_hash",
            digest_hex(r.result.counters.digest())),
        ROW(Deterministic, "max_energy", r.result.metrics.max_energy_spent),
    });
    for (const StageField& f : kStageFields)
      t.push_back({wall_field(f.key, WallUnit::kMs),
                   [m = f.member](Run r) -> Json {
                     return r.result.stages.*m;
                   }});
    t.push_back({wall_field("wall_ms", WallUnit::kMs),
                 [](Run r) -> Json { return r.wall_ms; }});
    t.push_back(
        {wall_field("jobs_per_sec", WallUnit::kOther, WallDirection::kRate),
         [](Run r) -> Json {
           return ratio(1000.0 * static_cast<double>(r.result.jobs_ingested),
                        r.wall_ms);
         }});
    return t;
  }();
  return rows;
}

#undef ROW

}  // namespace

const FieldTable& stream_report_fields() {
  static const FieldTable table = [] {
    FieldTable t;
    for (const StreamReportRow& row : stream_report_rows())
      t.push_back(row.field);
    return t;
  }();
  return table;
}

Json stream_report_json(const StreamRun& run) {
  Json doc = Json::object();
  for (const StreamReportRow& row : stream_report_rows())
    doc.set(row.field.key, row.value(run));
  return doc;
}

}  // namespace cmvrp
