// cmvrp — command-line front end. `cmvrp help` lists each command's
// flags from the commands() table; README's "The CLI" has the prose.
//
// Exit codes are uniform across subcommands: 0 success, 1 data or drift
// failure (bad input files, failed jobs, comparator drift), 2 usage
// (malformed or unknown flags — usage_error from util/check.h).
#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <iostream>
#include <limits>
#include <map>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "broken/scenario.h"
#include "core/algorithm1.h"
#include "core/bounds.h"
#include "core/offline_planner.h"
#include "exp/harness.h"
#include "util/json.h"
#include "exp/scenario.h"
#include "exp/suites.h"
#include "obs/compare.h"
#include "obs/counters.h"
#include "obs/prof.h"
#include "obs/snapshot.h"
#include "obs/span.h"
#include "obs/span_export.h"
#include "online/capacity_search.h"
#include "record/mux.h"
#include "record/recorder.h"
#include "stream/engine.h"
#include "stream/won_search.h"
#include "trace/format.h"
#include "trace/reader.h"
#include "trace/replay.h"
#include "trace/writer.h"
#include "util/digest.h"
#include "util/table.h"
#include "util/timer.h"
#include "viz/ascii.h"
#include "workload/generators.h"
#include "workload/io.h"
#include "workload/stream_gen.h"

namespace {

using namespace cmvrp;

// CLI-side precondition: a malformed or missing flag is a *usage* error
// (exit 2), unlike data that turned out to be bad (check_error, exit 1).
// Streams its message like CMVRP_CHECK_MSG.
#define CLI_USAGE_CHECK(expr, msg)               \
  do {                                           \
    if (!(expr)) {                               \
      std::ostringstream cli_usage_os_;          \
      cli_usage_os_ << msg;                      \
      throw usage_error(cli_usage_os_.str());    \
    }                                            \
  } while (0)

struct Args;

// A subcommand: its name ("trace" actions are commands of their own,
// such as "trace replay"), the one-line summary help prints, every flag
// its handler and the helpers it calls read, split into flags that take
// a value and boolean switches that never do, the handler, and whether
// it takes positional arguments (file lists). parse_args rejects any
// other flag, and main any positional token a command does not take,
// before dispatch, so a misspelled flag or a forgotten --file is a usage
// error, not an input silently dropped.
struct Command {
  std::string name;
  std::string summary;
  std::vector<std::string> flags;
  std::vector<std::string> switches;
  int (*run)(const Args&);
  bool positionals = false;

  bool is_switch(const std::string& key) const {
    return std::find(switches.begin(), switches.end(), key) != switches.end();
  }
  bool declares(const std::string& key) const {
    return is_switch(key) ||
           std::find(flags.begin(), flags.end(), key) != flags.end();
  }
};

struct Args {
  std::vector<std::string> positional;  // non-flag tokens after the command
  std::map<std::string, std::string> flags;  // a switch maps to ""
  const Command* command = nullptr;          // what the flags were parsed for

  std::string get(const std::string& key, const std::string& fallback) const {
    auto it = lookup(key);
    return it == flags.end() ? fallback : it->second;
  }
  double get_double(const std::string& key, double fallback) const {
    auto it = lookup(key);
    if (it == flags.end()) return fallback;
    try {
      return std::stod(it->second);
    } catch (const std::exception&) {
      throw usage_error("--" + key + " needs a number, got \"" + it->second +
                        "\"");
    }
  }
  std::int64_t get_int(const std::string& key, std::int64_t fallback) const {
    auto it = lookup(key);
    if (it == flags.end()) return fallback;
    try {
      return std::stoll(it->second);
    } catch (const std::exception&) {
      throw usage_error("--" + key + " needs an integer, got \"" +
                        it->second + "\"");
    }
  }
  bool has(const std::string& key) const { return lookup(key) != flags.end(); }

 private:
  // Handlers read their flags whether or not they were given, so a read
  // of a flag the command does not declare fails every run through it.
  std::map<std::string, std::string>::const_iterator lookup(
      const std::string& key) const {
    if (!command->declares(key))
      throw std::logic_error("flag --" + key + " is read but not declared");
    return flags.find(key);
  }
};

// Splits the tokens from argv[first] on into `command`'s flags and
// positionals. A switch never takes a value, so `--obs w.txt` leaves
// w.txt a positional; every other flag takes the next token, which must
// not be a flag itself.
Args parse_args(const Command& command, int argc, char** argv, int first) {
  Args args;
  args.command = &command;
  for (int i = first; i < argc; ++i) {
    const std::string token = argv[i];
    if (token.rfind("--", 0) != 0) {
      args.positional.push_back(token);
      continue;
    }
    const std::string key = token.substr(2);
    CLI_USAGE_CHECK(command.declares(key), "unknown flag --"
                                               << key << " for '"
                                               << command.name << "'");
    if (command.is_switch(key)) {
      args.flags[key] = "";
      continue;
    }
    CLI_USAGE_CHECK(
        i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0,
        "--" << key << " needs a value");
    args.flags[key] = argv[++i];
  }
  return args;
}

DemandMap demand_from_args(const Args& args) {
  const std::int64_t dim = args.get_int("dim", 2);
  CLI_USAGE_CHECK(dim >= 1 && dim <= Point::kMaxDim,
                  "--dim must be in [1, " << Point::kMaxDim << "], got "
                                          << dim);
  CLI_USAGE_CHECK(args.has("file"), "--file <demand.txt> is required");
  return load_demand_file(args.get("file", ""), static_cast<int>(dim));
}

int cmd_bounds(const Args& args) {
  const DemandMap d = demand_from_args(args);
  CMVRP_CHECK_MSG(!d.empty(), "demand file is empty");
  const Box bb = d.bounding_box();
  const OffBounds b = offline_bounds(d, static_cast<double>(bb.volume()));
  Table t({"quantity", "value"});
  t.row().cell("dimension").cell(static_cast<std::int64_t>(d.dim()));
  t.row().cell("support size").cell(static_cast<std::uint64_t>(d.support_size()));
  t.row().cell("total demand").cell(d.total());
  t.row().cell("max demand D").cell(b.max_demand);
  t.row().cell("avg demand (bbox)").cell(b.avg_demand);
  t.row().cell("omega_c (Cor 2.2.7 lower bound)").cell(b.omega_c);
  t.row().cell("Woff upper (Lem 2.2.5)").cell(b.upper);
  t.row().cell("plan max energy (realized)").cell(b.plan_energy);
  t.print(std::cout);
  return 0;
}

int cmd_plan(const Args& args) {
  const DemandMap d = demand_from_args(args);
  const OfflinePlan plan = plan_offline(d);
  const PlanCheck check = verify_plan(plan, d);
  std::cout << "cube side: " << plan.bound.cube_side
            << "  omega_c: " << plan.bound.omega_c
            << "  in-place budget: " << plan.in_place_budget << "\n";
  std::cout << "vehicles used: " << plan.assignments.size()
            << "  max energy: " << check.max_energy
            << "  verified: " << (check.ok ? "yes" : check.issue.c_str())
            << "\n";
  if (args.has("ascii") && d.dim() == 2) {
    std::cout << "\nplan ('o' serve in place, '>' relocates, '*' target):\n"
              << render_plan(plan, d.bounding_box());
  }
  return check.ok ? 0 : 1;
}

ArrivalOrder order_from_args(const Args& args) {
  const std::string order_name = args.get("order", "shuffled");
  if (order_name == "sorted") return ArrivalOrder::kSorted;
  if (order_name == "roundrobin") return ArrivalOrder::kRoundRobin;
  CLI_USAGE_CHECK(order_name == "shuffled",
                  "--order must be sorted, shuffled, or roundrobin; got "
                      << order_name);
  return ArrivalOrder::kShuffled;
}

int cmd_online(const Args& args) {
  const DemandMap d = demand_from_args(args);
  Rng rng(static_cast<std::uint64_t>(args.get_int("seed", 1)));
  const auto jobs = stream_from_demand(d, order_from_args(args), rng);

  StreamConfig cfg;
  cfg.online = default_online_config(
      d, static_cast<std::uint64_t>(args.get_int("seed", 1)));
  if (args.has("capacity"))
    cfg.online.capacity = args.get_double("capacity", 0.0);
  CLI_USAGE_CHECK(cfg.online.capacity >= 0.0,
                  "--capacity must be >= 0, got " << cfg.online.capacity);
  const OnlineMetrics m = serve_stream(d.dim(), cfg, jobs).metrics;
  Table t({"metric", "value"});
  t.row().cell("capacity W").cell(cfg.online.capacity);
  t.row().cell("cube side").cell(cfg.online.cube_side);
  t.row().cell("jobs served").cell(m.jobs_served);
  t.row().cell("jobs failed").cell(m.jobs_failed);
  t.row().cell("replacements").cell(m.replacements);
  t.row().cell("diffusing computations").cell(m.computations_started);
  t.row().cell("messages total").cell(m.network.total());
  t.row().cell("max energy spent").cell(m.max_energy_spent);
  t.print(std::cout);
  return m.jobs_failed == 0 ? 0 : 1;
}

int cmd_won(const Args& args) {
  const DemandMap d = demand_from_args(args);
  Rng rng(static_cast<std::uint64_t>(args.get_int("seed", 1)));
  const auto jobs = stream_from_demand(d, ArrivalOrder::kShuffled, rng);
  const double tol = args.get_double("tol", 0.1);
  CLI_USAGE_CHECK(tol > 0.0, "--tol must be > 0, got " << tol);
  const auto r = find_min_online_capacity(
      jobs, d.dim(), static_cast<std::uint64_t>(args.get_int("seed", 1)),
      tol);
  Table t({"quantity", "value"});
  t.row().cell("omega_c").cell(r.omega_c);
  t.row().cell("Won empirical").cell(r.won_empirical);
  t.row().cell("Won theory (Lem 3.3.1)").cell(r.won_theory);
  t.row().cell("simulations run").cell(r.simulations);
  t.print(std::cout);
  return 0;
}

int cmd_gen(const Args& args) {
  const std::string kind = args.get("workload", "uniform");
  const std::int64_t n = args.get_int("n", 16);
  const std::int64_t count = args.get_int("count", 100);
  const double dval = args.get_double("d", 10.0);
  const std::int64_t min_n = kind == "square" ? 2 : 1;  // a side of n / 2
  CLI_USAGE_CHECK(n >= min_n, "--n must be >= " << min_n << ", got " << n);
  CLI_USAGE_CHECK(count >= 0, "--count must be >= 0, got " << count);
  CLI_USAGE_CHECK(dval >= 0.0, "--d must be >= 0, got " << dval);
  Rng rng(static_cast<std::uint64_t>(args.get_int("seed", 1)));
  const Box box(Point{0, 0}, Point{n - 1, n - 1});
  DemandMap d(2);
  if (kind == "uniform") d = uniform_demand(box, count, rng);
  else if (kind == "clustered") d = clustered_demand(box, 3, count, 2.0, rng);
  else if (kind == "line") d = line_demand(n, dval, Point{0, 0});
  else if (kind == "point") d = point_demand(dval, Point{n / 2, n / 2});
  else if (kind == "square") d = square_demand(n / 2, dval, Point{0, 0});
  else CLI_USAGE_CHECK(false, "unknown --workload: " << kind);
  save_demand(std::cout, d);
  return 0;
}

int cmd_fig41(const Args& args) {
  const std::int64_t r1 = args.get_int("r1", 8);
  // The default --r2, 4·r1 + 2, must fit in 64 bits.
  const std::int64_t max_r1 =
      (std::numeric_limits<std::int64_t>::max() - 2) / 4;
  CLI_USAGE_CHECK(r1 >= 1 && r1 <= max_r1,
                  "--r1 must be in [1, " << max_r1 << "], got " << r1);
  const std::int64_t r2 = args.get_int("r2", 4 * r1 + 2);
  CLI_USAGE_CHECK(r2 > 2 * r1, "--r2 must exceed 2 * --r1, got " << r2);
  const auto s = make_fig41(r1, r2);
  const auto m = measure_fig41(s);
  Table t({"quantity", "value"});
  t.row().cell("r1").cell(r1);
  t.row().cell("LP bound (Thm 4.1.1)").cell(m.lp_bound);
  t.row().cell("paper travel formula").cell(m.paper_travel);
  t.row().cell("true requirement").cell(m.true_requirement);
  t.row().cell("ratio").cell(m.ratio);
  t.print(std::cout);
  return 0;
}

// Served/failed *set* digests (util/digest.h) let two stream reports be
// diffed for set equality without embedding the full index lists, and
// let a report be audited against an on-disk outcome trace.
std::string index_set_hash(const std::vector<std::int64_t>& indices) {
  return digest_hex(index_set_digest(indices));
}

constexpr const char* kStreamSchema = "cmvrp-stream-v5";

const char* admission_name(AdmissionPolicy policy) {
  switch (policy) {
    case AdmissionPolicy::kUnbounded:
      return "unbounded";
    case AdmissionPolicy::kReject:
      return "reject";
    case AdmissionPolicy::kShed:
      return "shed";
  }
  return "unknown";
}

// Shared report of every serving front end: ASCII table plus the
// cmvrp-stream-v5 JSON artifact (v2 added admission config echo, shed /
// rejected counts and hash, latency percentiles + digest, and the
// timeseries summary; v3 added the Tier-A counter totals — messages by
// kind, Phase I computation counts, cascade stats, admission gauges,
// one counters_hash — plus Tier-B stage spans, which carry the *_ms /
// wall_* naming the CI exclusion list strips; v4 writes one key per
// kCounterFields row, which adds `arrivals`; v5 drops the routing
// split, the parallel and serial batch counts, since every batch
// routes in one serial pass). Exit code 0 iff no job failed or was
// dropped.
int report_stream(const Args& args, const StreamConfig& cfg,
                  const StreamResult& r, double ms) {
  const double jobs_per_sec =
      ms > 0.0 ? 1000.0 * static_cast<double>(r.jobs_ingested) / ms : 0.0;

  Table t({"metric", "value"});
  t.row().cell("threads").cell(static_cast<std::int64_t>(cfg.threads));
  t.row().cell("batch size").cell(cfg.batch_size);
  t.row().cell("monitor stride").cell(cfg.online.monitor_stride);
  t.row().cell("capacity W").cell(cfg.online.capacity);
  t.row().cell("cube side").cell(cfg.online.cube_side);
  t.row().cell("admission").cell(admission_name(cfg.online.admission));
  t.row().cell("jobs").cell(r.jobs_ingested);
  t.row().cell("batches").cell(r.batches);
  t.row().cell("cubes").cell(r.cubes);
  t.row().cell("cube slots").cell(static_cast<std::int64_t>(r.cube_slots));
  t.row().cell("routing ms").cell(r.stages.route_ms);
  t.row().cell("served").cell(r.metrics.jobs_served);
  t.row().cell("failed").cell(r.metrics.jobs_failed);
  t.row().cell("shed").cell(r.jobs_shed);
  t.row().cell("rejected").cell(r.jobs_rejected);
  t.row().cell("latency p50").cell(r.latency.percentile(50.0));
  t.row().cell("latency p90").cell(r.latency.percentile(90.0));
  t.row().cell("latency p99").cell(r.latency.percentile(99.0));
  t.row().cell("latency max").cell(r.latency.observed_max());
  t.row().cell("replacements").cell(r.metrics.replacements);
  t.row().cell("messages total").cell(r.metrics.network.total());
  const double mpr = r.counters.messages_per_replacement();
  t.row().cell("messages/replacement").cell(mpr);
  if (cfg.online.obs.counters) {
    t.row().cell("max queries/computation").cell(
        r.counters.max_queries_per_comp);
    t.row().cell("cascade p99").cell(r.counters.cascade.percentile(99.0));
  }
  if (cfg.online.obs.spans) {
    t.row().cell("span records").cell(r.counters.spans_emitted);
    t.row().cell("spans sampled out").cell(r.counters.spans_sampled_out);
    t.row().cell("span ring evictions").cell(r.counters.spans_ring_evicted);
  }
  t.row().cell("max energy spent").cell(r.metrics.max_energy_spent);
  t.row().cell("wall ms").cell(ms);
  t.row().cell("jobs/sec").cell(jobs_per_sec);
  t.print(std::cout);

  if (args.has("json")) {
    Json doc = Json::object();
    doc.set("schema", kStreamSchema);
    doc.set("threads", static_cast<std::int64_t>(cfg.threads));
    doc.set("batch_size", cfg.batch_size);
    doc.set("monitor_stride", cfg.online.monitor_stride);
    doc.set("capacity", cfg.online.capacity);
    doc.set("cube_side", cfg.online.cube_side);
    doc.set("seed", static_cast<std::uint64_t>(cfg.online.seed));
    doc.set("admission", admission_name(cfg.online.admission));
    doc.set("queue_limit", cfg.online.queue_limit);
    doc.set("service_ticks", cfg.online.service_ticks);
    doc.set("sample_stride", cfg.online.sample_stride);
    doc.set("jobs", r.jobs_ingested);
    doc.set("batches", r.batches);
    doc.set("cubes", r.cubes);
    doc.set("cube_slots", static_cast<std::int64_t>(r.cube_slots));
    doc.set("routing_ms", r.stages.route_ms);
    // Tier-A counter totals, one key per CubeCounters row (deterministic,
    // guarded by the CI counter-diff): messages by kind, Phase I
    // computations, the served / failed / shed / rejected partition of
    // the arrivals, admission gauges and span bookkeeping. The obs-gated
    // rows are zero when obs_counters is false, the span rows unless
    // --trace-spans turned the recorders on.
    for (const CounterField& f : kCounterFields)
      doc.set(f.key, r.counters.*f.member);
    doc.set("served_hash", index_set_hash(r.served_jobs));
    doc.set("failed_hash", index_set_hash(r.failed_jobs));
    doc.set("shed_hash", index_set_hash(r.shed_jobs));
    doc.set("latency_count", r.latency.count());
    doc.set("latency_p50", r.latency.percentile(50.0));
    doc.set("latency_p90", r.latency.percentile(90.0));
    doc.set("latency_p99", r.latency.percentile(99.0));
    doc.set("latency_max", r.latency.observed_max());
    doc.set("latency_hash", digest_hex(r.latency.digest()));
    doc.set("ts_cubes", r.timeseries.cubes_sampled);
    doc.set("ts_samples", r.timeseries.samples);
    doc.set("ts_max_queue_depth", r.timeseries.max_queue_depth);
    doc.set("ts_max_occupancy_pm", r.timeseries.max_occupancy_pm);
    doc.set("ts_hash", digest_hex(r.timeseries.digest));
    doc.set("messages", r.metrics.network.total());
    doc.set("obs_counters", cfg.online.obs.counters);
    doc.set("obs_spans", cfg.online.obs.spans);
    doc.set("span_sample", cfg.online.obs.span_sample);
    doc.set("flight", cfg.online.obs.flight);
    doc.set("cascade_count", r.counters.cascade.count());
    doc.set("cascade_p50", r.counters.cascade.percentile(50.0));
    doc.set("cascade_p99", r.counters.cascade.percentile(99.0));
    doc.set("cascade_max", r.counters.cascade.observed_max());
    doc.set("cascade_hash", digest_hex(r.counters.cascade.digest()));
    doc.set("messages_per_replacement", mpr);
    doc.set("counters_hash", digest_hex(r.counters.digest()));
    doc.set("max_energy", r.metrics.max_energy_spent);
    // Tier-B wall spans (nondeterministic by design; the *_ms suffix /
    // wall_ prefix keeps them out of the CI round-trip diffs).
    doc.set("stage_ingest_ms", r.stages.ingest_ms);
    doc.set("stage_route_ms", r.stages.route_ms);
    doc.set("stage_serve_ms", r.stages.serve_ms);
    doc.set("stage_fold_ms", r.stages.fold_ms);
    doc.set("stage_monitor_ms", r.stages.monitor_ms);
    doc.set("wall_ms", ms);
    doc.set("jobs_per_sec", jobs_per_sec);
    std::ofstream out(args.get("json", ""));
    CMVRP_CHECK_MSG(out.good(), "cannot open --json path");
    out << doc.dump(2) << "\n";
    out.flush();
    CMVRP_CHECK_MSG(out.good(), "failed writing --json artifact");
  }
  return r.metrics.jobs_failed == 0 && r.jobs_shed == 0 &&
                 r.jobs_rejected == 0
             ? 0
             : 1;
}

// Engine config shared by every serving front end: explicit
// --capacity/--side, or (default) the theory config sized from the
// stream's induced demand — produced lazily so the trace path only pays
// its extra bounded pass over the mapping when it is actually needed.
StreamConfig stream_config_from_args(
    const Args& args, int dim, const std::function<DemandMap()>& demand) {
  const std::uint64_t seed =
      static_cast<std::uint64_t>(args.get_int("seed", 1));
  StreamConfig cfg;
  const std::int64_t threads = args.get_int("threads", 1);
  CLI_USAGE_CHECK(threads >= 1 && threads <= std::numeric_limits<int>::max(),
                  "--threads must be in [1, "
                      << std::numeric_limits<int>::max() << "], got "
                      << threads);
  cfg.threads = static_cast<int>(threads);
  cfg.batch_size = args.get_int("batch", 256);
  CLI_USAGE_CHECK(cfg.batch_size >= 1,
                  "--batch must be >= 1, got " << cfg.batch_size);
  cfg.online.seed = seed;
  if (args.has("capacity") || args.has("side")) {
    cfg.online.capacity = args.get_double("capacity", 32.0);
    cfg.online.cube_side = args.get_int("side", 4);
    CLI_USAGE_CHECK(cfg.online.capacity >= 0.0,
                    "--capacity must be >= 0, got " << cfg.online.capacity);
    CLI_USAGE_CHECK(cfg.online.cube_side >= 1,
                    "--side must be >= 1, got " << cfg.online.cube_side);
    cfg.online.anchor = Point::origin(dim);
  } else {
    // One demand pass sizes the theory config AND hands the engine its
    // region geometry: cubes intersecting the demand bounding box get
    // dense slots (flat-state routing); stragglers outside still serve
    // via the corner-hashed overflow path with identical outcomes.
    const DemandMap d = demand();
    cfg.online = default_online_config(d, seed);
    cfg.region = d.bounding_box();
  }
  // Monitoring amortization (outcome-preserving on failure-free streams;
  // failure detection latency <= stride arrivals per cube). 1 = sweep
  // after every arrival, the historical cadence.
  cfg.online.monitor_stride = args.get_int("monitor-stride", 1);
  CLI_USAGE_CHECK(cfg.online.monitor_stride >= 1,
                  "--monitor-stride must be >= 1, got "
                      << cfg.online.monitor_stride);
  // Admission control (stream/shard.h): --admission unbounded|reject|shed
  // with --queue-limit waiting slots and --service-ticks arrival-clock
  // ticks per service. Default unbounded = the historical serve path.
  const std::string admission = args.get("admission", "unbounded");
  if (admission == "unbounded") {
    cfg.online.admission = AdmissionPolicy::kUnbounded;
  } else if (admission == "reject") {
    cfg.online.admission = AdmissionPolicy::kReject;
  } else if (admission == "shed") {
    cfg.online.admission = AdmissionPolicy::kShed;
  } else {
    CLI_USAGE_CHECK(false, "--admission must be unbounded, reject, or shed; "
                           "got "
                               << admission);
  }
  cfg.online.queue_limit = args.get_int("queue-limit", 8);
  cfg.online.service_ticks = args.get_int("service-ticks", 4);
  if (cfg.online.admission != AdmissionPolicy::kUnbounded) {
    CLI_USAGE_CHECK(cfg.online.queue_limit >= 1,
                    "--queue-limit must be >= 1, got "
                        << cfg.online.queue_limit);
    CLI_USAGE_CHECK(cfg.online.service_ticks >= 1,
                    "--service-ticks must be >= 1, got "
                        << cfg.online.service_ticks);
  }
  // Timeseries sampling cadence (0 = off): every stride-th arrival per
  // cube records backlog depth + fleet occupancy.
  cfg.online.sample_stride = args.get_int("sample-stride", 0);
  CLI_USAGE_CHECK(cfg.online.sample_stride >= 0,
                  "--sample-stride must be >= 0, got "
                      << cfg.online.sample_stride);
  // Tier-A observability counters (src/obs/): per-computation query
  // attribution, cascade histogram, admission gauges. Off by default —
  // turning it on cannot change serving outcomes, only the report.
  cfg.online.obs.counters = args.has("obs");
  // Tier-C causal span tracing (src/obs/span.h): --trace-spans FILE turns
  // the per-cube recorders on (.json = Chrome trace events, anything else
  // = the binary spool `prof` reads); --span-sample K traces every K-th
  // computation per cube; --flight N keeps only the last N records per
  // cube and dumps them post-mortem instead of exporting every run.
  cfg.online.obs.spans = args.has("trace-spans");
  CLI_USAGE_CHECK(!args.has("span-sample") || cfg.online.obs.spans,
                  "--span-sample needs --trace-spans");
  CLI_USAGE_CHECK(!args.has("flight") || cfg.online.obs.spans,
                  "--flight needs --trace-spans");
  cfg.online.obs.span_sample = args.get_int("span-sample", 1);
  CLI_USAGE_CHECK(cfg.online.obs.span_sample >= 1,
                  "--span-sample must be >= 1, got "
                      << cfg.online.obs.span_sample);
  cfg.online.obs.flight = args.get_int("flight", 0);
  CLI_USAGE_CHECK(cfg.online.obs.flight >= 0,
                  "--flight must be >= 0, got " << cfg.online.obs.flight);
  return cfg;
}

// --stats FILE [--stats-stride K]: a JSONL StatsSnapshotter
// (cmvrp-stats-v1) attached to the engine for the run's lifetime.
class StatsFile {
 public:
  explicit StatsFile(const Args& args) {
    // Reject a bad stride at parse time — before the early return (it is
    // a usage error with or without --stats) and before the truncating
    // open below, so a typo'd flag cannot clobber an existing snapshot.
    const std::int64_t stride = args.get_int("stats-stride", 16);
    CLI_USAGE_CHECK(stride >= 1,
                    "--stats-stride must be >= 1, got " << stride);
    if (!args.has("stats")) return;
    out_.open(args.get("stats", ""));
    CMVRP_CHECK_MSG(out_.good(), "cannot open --stats path");
    snapshotter_.emplace(out_, stride);
  }

  StatsSnapshotter* get() { return snapshotter_ ? &*snapshotter_ : nullptr; }

  // Flush + verify after the final line (full-disk writes fail loudly).
  void close(const Args& args) {
    if (!snapshotter_) return;
    out_.flush();
    CMVRP_CHECK_MSG(out_.good(), "failed writing --stats JSONL");
    std::cout << "wrote " << snapshotter_->lines_written()
              << " stats lines (" << kStatsSchema << ") to "
              << args.get("stats", "") << "\n";
  }

 private:
  std::ofstream out_;
  std::optional<StatsSnapshotter> snapshotter_;
};

// --trace-spans FILE [--span-sample K] [--flight N]: Tier-C span export
// (src/obs/span_export.h). Full-trace mode writes the file after every
// run; flight mode (--flight N > 0) keeps only the per-cube rings and
// writes the file only for post-mortems — a failed run or a thrown
// check_error mid-serve.
class SpanFile {
 public:
  SpanFile(const Args& args, int dim)
      : dim_(dim),
        path_(args.get("trace-spans", "")),
        flight_only_(args.get_int("flight", 0) > 0) {}

  // After a completed run; `run_ok` is the report's success bit.
  void finish(const StreamEngine& engine, double wall_ms, bool run_ok) {
    if (path_.empty()) return;
    if (flight_only_ && run_ok) {
      std::cout << "flight recorder: run clean, no span dump (" << path_
                << " not written)\n";
      return;
    }
    write(engine, wall_ms);
  }

  // From a catch block: best-effort post-mortem dump — a failure here
  // must not mask the exception already in flight.
  void dump_on_error(const StreamEngine& engine) {
    if (path_.empty()) return;
    try {
      write(engine, 0.0);
    } catch (...) {
      std::cerr << "warning: span post-mortem dump to " << path_
                << " failed\n";
    }
  }

 private:
  void write(const StreamEngine& engine, double wall_ms) {
    const std::vector<CubeSpanSource> sources = engine.span_sources();
    std::uint64_t records = 0;
    for (const CubeSpanSource& s : sources) records += s.recorder->stored();
    std::ofstream out(path_, std::ios::binary | std::ios::trunc);
    CMVRP_CHECK_MSG(out.good(), "cannot open --trace-spans path: " << path_);
    const bool json = path_.size() >= 5 &&
                      path_.compare(path_.size() - 5, 5, ".json") == 0;
    if (json) {
      export_chrome_trace(out, dim_, sources, wall_ms);
    } else {
      write_span_spool(out, dim_, sources);
    }
    out.flush();
    CMVRP_CHECK_MSG(out.good(), "failed writing span trace: " << path_);
    std::cout << "wrote " << records << " span records (" << sources.size()
              << " cubes, " << (json ? "chrome-trace json" : "span spool")
              << ") to " << path_ << "\n";
  }

  int dim_;
  std::string path_;
  bool flight_only_;
};

// Closes the recorder, audits its incremental digests against the
// result's served/failed/shed sets (the bounded-memory run must leave a
// trail bit-identical to the in-memory digests), and prints a summary.
void finish_recording(OutcomeRecorder& recorder, const StreamResult& r) {
  recorder.close();
  CMVRP_CHECK_MSG(recorder.served_digest() == index_set_digest(r.served_jobs) &&
                      recorder.failed_digest() ==
                          index_set_digest(r.failed_jobs) &&
                      recorder.dropped_digest() ==
                          index_set_digest(r.shed_jobs),
                  "outcome trail digests diverged from the in-memory "
                  "served/failed/shed sets: "
                      << recorder.path());
  std::cout << "recorded " << recorder.recorded() << " outcomes ("
            << recorder.served_count() << " served, "
            << recorder.failed_count() << " failed, "
            << recorder.dropped_count()
            << " dropped; digests match the report) to " << recorder.path()
            << "\n";
}

// The one serving path behind `stream`, `trace replay` and `trace mux`.
// It owns the engine and attaches the run's sinks: the --record outcome
// trail, --stats snapshots and --trace-spans export. `feed` ingests the
// front end's job source; the span rings are dumped post-mortem if it or
// finish() throws. Returns the report's exit code.
int serve_and_report(const Args& args, int dim, const StreamConfig& cfg,
                     const std::function<void(StreamEngine&)>& feed) {
  StatsFile stats(args);
  std::optional<OutcomeRecorder> recorder;  // outlives the engine's pointer
  WallTimer timer;
  StreamEngine engine(dim, cfg);
  if (args.has("record")) {
    recorder.emplace(args.get("record", ""), dim);
    engine.set_observer(&*recorder);
  }
  engine.set_snapshotter(stats.get());
  SpanFile spans(args, dim);
  StreamResult r;
  try {
    feed(engine);
    r = engine.finish();
  } catch (...) {
    spans.dump_on_error(engine);
    throw;
  }
  const double ms = timer.elapsed_ms();
  if (recorder) finish_recording(*recorder, r);
  stats.close(args);
  const int rc = report_stream(args, cfg, r, ms);
  spans.finish(engine, ms, rc == 0);
  return rc;
}

// `stream`: serves --scenario NAME (registry), --file demand.txt
// (expanded with --order/--seed), or a synthetic uniform stream of
// --jobs arrivals on an --n x --n box.
int cmd_stream(const Args& args) {
  const std::uint64_t seed =
      static_cast<std::uint64_t>(args.get_int("seed", 1));
  std::vector<Job> jobs;
  int dim = 2;
  std::optional<Box> scenario_region;
  if (args.has("scenario")) {
    const Scenario& sc =
        ScenarioRegistry::builtin().at(args.get("scenario", ""));
    jobs = sc.jobs();
    dim = sc.dim;
    if (sc.region.dim() == dim) scenario_region = sc.region;
  } else if (args.has("file")) {
    const DemandMap d = demand_from_args(args);
    Rng rng(seed);
    jobs = stream_from_demand(d, order_from_args(args), rng);
    dim = d.dim();
  } else {
    const std::int64_t n = args.get_int("n", 64);
    const std::int64_t count = args.get_int("jobs", 10000);
    CLI_USAGE_CHECK(n >= 1, "--n must be >= 1, got " << n);
    CLI_USAGE_CHECK(count >= 1, "--jobs must be >= 1, got " << count);
    Rng rng(seed);
    const Box box(Point{0, 0}, Point{n - 1, n - 1});
    const DemandMap d = uniform_demand(box, count, rng);
    Rng order(seed + 1);
    jobs = stream_from_demand(d, order_from_args(args), order);
  }
  CMVRP_CHECK_MSG(!jobs.empty(), "stream has no jobs");

  StreamConfig cfg = stream_config_from_args(
      args, dim, [&jobs, dim] { return demand_of_stream(jobs, dim); });
  // A registry scenario declares its region outright — use that geometry
  // for the slot table (it covers the stream by construction, even where
  // the sampled demand happens to leave gaps).
  if (scenario_region.has_value()) cfg.region = scenario_region;
  return serve_and_report(args, dim, cfg, [&jobs](StreamEngine& engine) {
    engine.ingest(jobs);
  });
}

// `trace gen`: run a streaming generator straight into a TraceWriter —
// the stream is never materialized, so --count can exceed memory.
int cmd_trace_gen(const Args& args) {
  CLI_USAGE_CHECK(args.has("out"), "--out <trace file> is required");
  const std::string kind = args.get("generator", "hotspot");
  const int dim = static_cast<int>(args.get_int("dim", 2));
  const std::int64_t count = args.get_int("count", 10000);
  const std::int64_t side = args.get_int("side", 4);
  const std::int64_t cubes = args.get_int("cubes", 8);
  const std::int64_t burst = args.get_int("burst", 64);
  const double sigma = args.get_double("sigma", 2.0);
  Rng rng(static_cast<std::uint64_t>(args.get_int("seed", 1)));

  // Mirror the generator preconditions before the truncating open, so a
  // rejected command (typo'd --generator, bad --cubes, ...) cannot
  // clobber an existing trace at --out.
  CLI_USAGE_CHECK(kind == "boundary" || kind == "hotspot" ||
                      kind == "gradient",
                  "unknown --generator: " << kind
                                          << " (boundary|hotspot|gradient)");
  CLI_USAGE_CHECK(dim >= 1 && dim <= Point::kMaxDim,
                  "--dim must be in [1, " << Point::kMaxDim << "]");
  CLI_USAGE_CHECK(count >= 0, "--count must be >= 0");
  CLI_USAGE_CHECK(side >= 1, "--side must be >= 1");
  CLI_USAGE_CHECK(cubes >= 2, "--cubes must be >= 2");
  CLI_USAGE_CHECK(burst >= 1, "--burst must be >= 1");
  CLI_USAGE_CHECK(sigma >= 0.0, "--sigma must be >= 0");

  TraceWriter writer(args.get("out", ""), dim);
  const JobSink sink = [&writer](const Job& job) { writer.append(job); };
  if (kind == "boundary") {
    boundary_round_robin_stream(dim, side, cubes, count, sink);
  } else if (kind == "hotspot") {
    bursty_hotspot_stream(dim, side, cubes, count, burst, rng, sink);
  } else {
    Point hi = Point::origin(dim);
    for (int i = 0; i < dim; ++i) hi[i] = side * cubes - 1;
    drifting_gradient_stream(Box(Point::origin(dim), hi), count, sigma, rng,
                             sink);
  }
  writer.close();
  std::cout << "wrote " << writer.jobs_written() << " jobs (dim " << dim
            << ") to " << args.get("out", "") << "\n";
  return 0;
}

// Renders the (validated) header flags word with its named bits — the
// reader has already rejected unknown bits, so every set bit has a name.
std::string render_trace_flags(const TraceReader& reader) {
  std::ostringstream os;
  os << "0x" << std::hex << reader.flags() << std::dec;
  if (reader.flags() == 0) {
    os << " (none)";
    return os.str();
  }
  os << " (";
  bool first = true;
  if (reader.has_failure_events()) {
    os << "failure-events";
    first = false;
  }
  if (reader.has_outcomes()) os << (first ? "" : ", ") << "outcomes";
  os << ")";
  return os.str();
}

int cmd_trace_info(const Args& args) {
  CLI_USAGE_CHECK(args.has("file"), "--file <trace file> is required");
  TraceReader reader(args.get("file", ""));
  const std::size_t record_size =
      trace_record_size(reader.dim(), reader.version());
  Table t({"field", "value"});
  t.row().cell("path").cell(reader.path());
  t.row().cell("format").cell(reader.version() == kTraceVersionV2
                                  ? "cmvrp-trace-v2"
                                  : "cmvrp-trace-v1");
  t.row().cell("dim").cell(static_cast<std::int64_t>(reader.dim()));
  t.row().cell("records").cell(reader.job_count());
  t.row().cell("flags").cell(render_trace_flags(reader));
  // Both versions' record sizes at this dim, the file's own marked.
  const std::string v1_mark = reader.version() == kTraceVersion ? " *" : "";
  const std::string v2_mark = reader.version() == kTraceVersionV2 ? " *" : "";
  t.row().cell("record bytes (v1)").cell(
      std::to_string(trace_record_size(reader.dim(), kTraceVersion)) +
      v1_mark);
  t.row().cell("record bytes (v2)").cell(
      std::to_string(trace_record_size(reader.dim(), kTraceVersionV2)) +
      v2_mark);
  t.row().cell("file bytes").cell(static_cast<std::uint64_t>(
      kTraceHeaderSize + reader.job_count() * record_size));
  if (reader.version() == kTraceVersionV2) {
    // One bounded pass: per-kind event counts.
    std::uint64_t arrivals = 0, silent = 0, outcomes = 0;
    std::vector<TraceEvent> chunk(4096);
    while (const std::size_t n =
               reader.next_events(chunk.data(), chunk.size())) {
      for (std::size_t i = 0; i < n; ++i) {
        switch (chunk[i].kind) {
          case TraceEventKind::kArrival: ++arrivals; break;
          case TraceEventKind::kSilentDone: ++silent; break;
          case TraceEventKind::kOutcome: ++outcomes; break;
        }
      }
    }
    reader.reset();
    t.row().cell("arrival events").cell(arrivals);
    t.row().cell("silent-done events").cell(silent);
    t.row().cell("outcome events").cell(outcomes);
  }
  // What the streaming engine would build for this trace under the
  // default theory-sized config: the dense cube-slot table over the
  // demand bounding box (0 slots = pure corner-hashed overflow routing).
  const DemandMap d = trace_demand(reader);
  if (!d.empty()) {
    const OnlineConfig oc = default_online_config(d, 1);
    const CubeSlotTable table = CubeSlotTable::build(
        reader.dim(), oc.anchor, oc.cube_side, d.bounding_box());
    t.row().cell("engine cube side").cell(oc.cube_side);
    t.row().cell("engine cube slots").cell(table.size());
  }
  t.row().cell("mmap").cell(reader.mapped() ? "yes" : "no (read fallback)");
  // Schema version report: what this binary reads and what its sibling
  // subcommands write, so artifacts are self-describing end to end.
  t.row().cell("reads trace schemas").cell("cmvrp-trace-v1, cmvrp-trace-v2");
  t.row().cell("writes stream schema").cell(kStreamSchema);
  t.row().cell("writes stats schema").cell(kStatsSchema);
  t.print(std::cout);
  return 0;
}

// `trace mux`: deterministic k-way merge-replay of several traces
// (possibly different generators, same dimension) into one engine —
// merged by arrival index, re-indexed 0..N-1, bit-identical across
// thread counts, batch sizes, and the order the files are listed.
int cmd_trace_mux(const Args& args) {
  const std::vector<std::string>& paths = args.positional;
  CLI_USAGE_CHECK(paths.size() >= 2,
                  "trace mux needs >= 2 trace files: trace mux a.bin b.bin "
                  "[--flags]");
  // Dimension from the first source; config sized from the *merged*
  // demand of all sources unless --capacity/--side pin it.
  const int dim = [&paths] {
    TraceReader first(paths.front());
    return first.dim();
  }();
  const StreamConfig cfg = stream_config_from_args(args, dim, [&paths, dim] {
    DemandMap merged(dim);
    for (const auto& path : paths) {
      TraceReader reader(path);
      const DemandMap d = trace_demand(reader);
      for (const auto& p : d.support()) merged.add(p, d.at(p));
    }
    return merged;
  });

  TraceMux mux(dim, static_cast<std::size_t>(cfg.batch_size));
  for (const auto& path : paths) mux.add_source(path);
  return serve_and_report(args, dim, cfg, [&](StreamEngine& engine) {
    mux.ingest(engine);
    std::cout << "muxed " << paths.size() << " traces, " << mux.jobs_merged()
              << " jobs merged by arrival index\n";
  });
}

// `trace replay`: bounded-memory replay (default) or, with --memory, an
// in-memory serve of the same jobs — the two reports must agree on
// everything but wall time (the cli_roundtrip test diffs them).
int cmd_trace_replay(const Args& args) {
  CLI_USAGE_CHECK(args.has("file"), "--file <trace file> is required");
  TraceReader reader(args.get("file", ""));
  CMVRP_CHECK_MSG(reader.job_count() > 0, "trace has no jobs");
  const StreamConfig cfg = stream_config_from_args(
      args, reader.dim(), [&reader] { return trace_demand(reader); });
  const bool memory = args.has("memory");
  return serve_and_report(
      args, reader.dim(), cfg, [&reader, &cfg, memory](StreamEngine& engine) {
        if (memory) {
          engine.ingest(reader.read_all());
          return;
        }
        std::vector<Job> chunk(static_cast<std::size_t>(cfg.batch_size));
        ingest_trace(reader, engine, chunk);
      });
}

// Reads a whole artifact file; check_error (exit 1) when unreadable —
// a missing baseline or input is a data failure, not a usage slip.
std::string read_text_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  CMVRP_CHECK_MSG(in.good(), "cannot open " << path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

std::string corner_string(const Json& corner) {
  std::string out = "(";
  for (std::size_t i = 0; i < corner.size(); ++i) {
    if (i > 0) out += ",";
    out += json_number_to_string(corner.at(i).as_number());
  }
  return out + ")";
}

// Top-k cube lines by one numeric JSONL field, ties broken by file
// order (the lines arrive in ascending-corner order, so the stable sort
// is deterministic).
std::vector<const Json*> top_cubes(const std::vector<Json>& cubes,
                                   const std::string& field,
                                   std::size_t k) {
  std::vector<const Json*> order;
  order.reserve(cubes.size());
  for (const Json& c : cubes) order.push_back(&c);
  std::stable_sort(order.begin(), order.end(),
                   [&field](const Json* a, const Json* b) {
                     return a->at(field).as_number() >
                            b->at(field).as_number();
                   });
  if (order.size() > k) order.resize(k);
  return order;
}

// `stats`: summarize a cmvrp-stats-v1 JSONL snapshot file (written by
// `stream --stats FILE`, read by read_stats): run header, final Tier-A
// totals and messages-per-replacement, the Tier-B stage-time breakdown,
// and the top-k hotspot cubes by latency p99, backlog peak, and message
// volume.
int cmd_stats(const Args& args) {
  CLI_USAGE_CHECK(args.has("file"), "--file <stats.jsonl> is required");
  CLI_USAGE_CHECK(args.get_int("top", 5) >= 1,
                  "--top must be >= 1, got " << args.get_int("top", 5));
  const auto top_k = static_cast<std::size_t>(args.get_int("top", 5));
  const std::string path = args.get("file", "");
  const StatsDoc doc = read_stats(read_text_file(path), path);
  const Json& header = doc.header;
  std::cout << "stats schema: " << header.at("schema").as_string()
            << " (reader supports " << kStatsSchema << ")\n";

  const Json& f = doc.final_line;
  Table t({"metric", "value"});
  t.row().cell("dim").cell(
      static_cast<std::int64_t>(header.at("dim").as_number()));
  t.row().cell("threads").cell(
      static_cast<std::int64_t>(header.at("threads").as_number()));
  t.row().cell("batch size").cell(
      static_cast<std::int64_t>(header.at("batch_size").as_number()));
  t.row().cell("counters").cell(header.at("counters").as_bool() ? "on"
                                                                : "off");
  t.row().cell("samples / cubes").cell(
      std::to_string(doc.samples.size()) + " / " +
      std::to_string(doc.cubes.size()));
  t.row().cell("jobs").cell(json_number_to_string(f.at("jobs").as_number()));
  t.row().cell("served / failed").cell(
      json_number_to_string(f.at("served").as_number()) + " / " +
      json_number_to_string(f.at("failed").as_number()));
  t.row().cell("messages (Q/R/M/H)").cell(
      json_number_to_string(f.at("msg_queries").as_number()) + " / " +
      json_number_to_string(f.at("msg_replies").as_number()) + " / " +
      json_number_to_string(f.at("msg_moves").as_number()) + " / " +
      json_number_to_string(f.at("msg_heartbeats").as_number()));
  t.row().cell("replacements").cell(
      json_number_to_string(f.at("replacements").as_number()));
  t.row().cell("messages/replacement").cell(
      f.at("messages_per_replacement").as_number());
  t.row().cell("max queries/computation").cell(
      json_number_to_string(f.at("max_queries_per_comp").as_number()));
  t.row().cell("cascade p99 / max").cell(
      json_number_to_string(f.at("cascade_p99").as_number()) + " / " +
      json_number_to_string(f.at("cascade_max").as_number()));
  // Tier-B stage breakdown (wall time; varies run to run by design).
  const char* stages[] = {"stage_route_ms", "stage_serve_ms",
                          "stage_fold_ms", "stage_monitor_ms"};
  for (const char* s : stages) t.row().cell(s).cell(f.at(s).as_number());
  t.row().cell("wall_rss_kb").cell(f.at("wall_rss_kb").as_number());
  t.print(std::cout);

  if (!doc.cubes.empty()) {
    struct Ranking {
      const char* title;
      const char* field;
    };
    const Ranking rankings[] = {
        {"hotspot cubes by latency p99", "latency_p99"},
        {"hotspot cubes by backlog peak", "backlog_peak"},
        {"hotspot cubes by message volume", "msg_total"},
    };
    for (const Ranking& rank : rankings) {
      std::cout << "\n" << rank.title << " (top " << top_k << "):\n";
      Table ct({"cube", rank.field, "arrivals", "served", "replacements"});
      for (const Json* c : top_cubes(doc.cubes, rank.field, top_k)) {
        ct.row()
            .cell(corner_string(c->at("corner")))
            .cell(json_number_to_string(c->at(rank.field).as_number()))
            .cell(json_number_to_string(c->at("arrivals").as_number()))
            .cell(json_number_to_string(c->at("served").as_number()))
            .cell(json_number_to_string(c->at("replacements").as_number()));
      }
      ct.print(std::cout);
    }
  }
  return 0;
}

// `prof`: the span-trace analyzer (src/obs/prof.h). Reads a
// --trace-spans export — binary spool or Chrome JSON — and reports the
// Algorithm 2 flood shape: query fan-out breadth by hop, per-computation
// critical-path percentiles on the protocol clock, the top-K widest
// floods (the query-batching targets), and the query -> computation
// attribution ratio the acceptance bar asserts.
int cmd_prof(const Args& args) {
  CLI_USAGE_CHECK(args.has("file"),
                  "--file <spans.bin|spans.json> is required");
  const std::string path = args.get("file", "");
  const std::int64_t top = args.get_int("top", 5);
  CLI_USAGE_CHECK(top >= 1, "--top must be >= 1, got " << top);

  const bool json = path.size() >= 5 &&
                    path.compare(path.size() - 5, 5, ".json") == 0;
  const SpanSpool spool =
      json ? read_chrome_trace(path) : read_span_spool(path);
  const ProfReport rep =
      profile_spans(spool.cubes, static_cast<std::size_t>(top));

  Table t({"metric", "value"});
  t.row().cell("file").cell(path + (json ? " (chrome json)" : " (spool)"));
  t.row().cell("cubes").cell(static_cast<std::uint64_t>(rep.cubes));
  t.row().cell("span records").cell(rep.events);
  t.row().cell("emitted / sampled out / evicted").cell(
      std::to_string(spool.totals.emitted) + " / " +
      std::to_string(spool.totals.sampled_out) + " / " +
      std::to_string(spool.totals.ring_evicted));
  t.row().cell("computations").cell(rep.comps);
  t.row().cell("finished / found a child").cell(
      std::to_string(rep.comps_finished) + " / " +
      std::to_string(rep.comps_found));
  t.row().cell("query sends").cell(rep.query_sends);
  t.row().cell("attributed to a computation").cell(rep.attributed_queries);
  t.row().cell("attribution ratio").cell(rep.attribution_ratio());
  t.row().cell("replacements (cascade steps)").cell(rep.replacements);
  t.row().cell("fan-out depth p50 / p99 / max").cell(
      json_number_to_string(rep.depth.percentile(50.0)) + " / " +
      json_number_to_string(rep.depth.percentile(99.0)) + " / " +
      json_number_to_string(rep.depth.observed_max()));
  t.row().cell("critical path p50 / p99 / max").cell(
      json_number_to_string(rep.critical.percentile(50.0)) + " / " +
      json_number_to_string(rep.critical.percentile(99.0)) + " / " +
      json_number_to_string(rep.critical.observed_max()));
  t.row().cell("flood width p50 / p99 / max").cell(
      json_number_to_string(rep.flood_width.percentile(50.0)) + " / " +
      json_number_to_string(rep.flood_width.percentile(99.0)) + " / " +
      json_number_to_string(rep.flood_width.observed_max()));
  t.print(std::cout);

  // Lemma 3.3.1's flood tree, measured: how many queries travel at each
  // hop of the Algorithm 2 fan-out (hop 1 = the initiator's own sends).
  bool any_hop = false;
  for (std::size_t h = 1; h < rep.breadth_by_hop.size(); ++h)
    any_hop = any_hop || rep.breadth_by_hop[h] > 0;
  if (any_hop) {
    std::cout << "\nquery fan-out breadth by hop:\n";
    Table bt({"hop", "query sends"});
    for (std::size_t h = 1; h < rep.breadth_by_hop.size(); ++h)
      bt.row()
          .cell(static_cast<std::uint64_t>(h))
          .cell(rep.breadth_by_hop[h]);
    bt.print(std::cout);
  }

  if (!rep.widest.empty()) {
    std::cout << "\nwidest floods (top " << top << " by query count):\n";
    Table wt({"pid", "comp", "queries", "relays", "depth", "critical path",
              "state"});
    for (const CompProfile& p : rep.widest) {
      wt.row()
          .cell(p.pid)
          .cell(p.comp)
          .cell(p.queries)
          .cell(p.relays)
          .cell(static_cast<std::uint64_t>(p.depth))
          .cell(p.critical_path)
          .cell(p.finished ? (p.found ? "found" : "no child") : "open");
    }
    wt.print(std::cout);
  }
  return 0;
}

std::vector<std::string> split_commas(const std::string& s) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (start <= s.size()) {
    const std::size_t comma = s.find(',', start);
    const std::string item = s.substr(
        start, comma == std::string::npos ? std::string::npos : comma - start);
    if (!item.empty()) out.push_back(item);
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  return out;
}

// Comparison thresholds shared by `compare` and `bench --baseline`.
CompareOptions compare_options_from_args(const Args& args) {
  CompareOptions opt;
  opt.warn_ratio = args.get_double("warn-ratio", opt.warn_ratio);
  opt.fail_ratio = args.get_double("fail-ratio", opt.fail_ratio);
  opt.min_wall_ms = args.get_double("min-wall-ms", opt.min_wall_ms);
  opt.noise_sigmas = args.get_double("noise-sigmas", opt.noise_sigmas);
  opt.ignore = split_commas(args.get("ignore", ""));
  CLI_USAGE_CHECK(opt.warn_ratio >= 1.0,
                  "--warn-ratio must be >= 1, got " << opt.warn_ratio);
  CLI_USAGE_CHECK(opt.fail_ratio == 0.0 || opt.fail_ratio >= 1.0,
                  "--fail-ratio must be 0 (wall never fails) or >= 1, got "
                      << opt.fail_ratio);
  CLI_USAGE_CHECK(opt.min_wall_ms >= 0.0,
                  "--min-wall-ms must be >= 0, got " << opt.min_wall_ms);
  CLI_USAGE_CHECK(opt.noise_sigmas >= 0.0,
                  "--noise-sigmas must be >= 0, got " << opt.noise_sigmas);
  return opt;
}

void print_compare_report(const CompareReport& rep, const std::string& a,
                          const std::string& b) {
  Table t({"metric", "value"});
  t.row().cell("kind").cell(compare_kind_name(rep.kind));
  t.row().cell("A").cell(a);
  t.row().cell("B").cell(b);
  t.row().cell("fields compared").cell(rep.fields_compared);
  t.row().cell("deterministic fields").cell(rep.deterministic_fields);
  t.row().cell("wall fields").cell(rep.wall_fields);
  t.row().cell("deterministic drift").cell(rep.drift);
  t.row().cell("wall warns").cell(rep.warns);
  t.row().cell("wall fails").cell(rep.wall_fails);
  t.row().cell("context diffs").cell(rep.context_diffs);
  if (!rep.worst_wall_field.empty())
    t.row().cell("worst wall regression").cell(
        rep.worst_wall_field + " x" +
        json_number_to_string(rep.worst_wall_ratio));
  t.print(std::cout);

  if (!rep.diffs.empty()) {
    std::cout << "\nper-field verdicts";
    if (rep.diffs_truncated > 0)
      std::cout << " (first " << rep.diffs.size() << "; "
                << rep.diffs_truncated << " more suppressed)";
    std::cout << ":\n";
    Table dt({"path", "class", "verdict", "A", "B", "note"});
    for (const FieldDiff& d : rep.diffs)
      dt.row()
          .cell(d.path)
          .cell(field_class_name(d.cls))
          .cell(field_verdict_name(d.verdict))
          .cell(d.a)
          .cell(d.b)
          .cell(d.ratio > 0.0
                    ? "x" + json_number_to_string(d.ratio) + " " + d.note
                    : d.note);
    dt.print(std::cout);
  }
  std::cout << (rep.clean()
                    ? "\nclean: deterministic fields agree\n"
                    : "\nREGRESSION: deterministic drift or wall failure "
                      "detected\n");
}

void write_diff_json(const CompareReport& rep, const std::string& path,
                     const std::string& a, const std::string& b) {
  std::ofstream out(path);
  CMVRP_CHECK_MSG(out.good(), "cannot open diff report path: " << path);
  out << rep.to_json(a, b).dump(2) << "\n";
  out.flush();
  CMVRP_CHECK_MSG(out.good(), "failed writing diff report: " << path);
}

// `compare`: the differential-observability front end (obs/compare.h).
// Exit 0 clean, 1 drift/regression or unreadable input, 2 usage.
int cmd_compare(const Args& args) {
  CLI_USAGE_CHECK(args.positional.size() == 2,
                  "compare needs exactly two artifacts: compare A B "
                  "[--kind auto|stream|stats|bench|spans] [--warn-ratio R] "
                  "[--fail-ratio R] [--min-wall-ms M] [--noise-sigmas S] "
                  "[--ignore k1,k2] [--json diff.json]; got "
                      << args.positional.size() << " positional arguments");
  const CompareKind kind = parse_compare_kind(args.get("kind", "auto"));
  const CompareOptions opt = compare_options_from_args(args);
  const std::string& a = args.positional[0];
  const std::string& b = args.positional[1];
  const CompareReport rep = compare_artifacts(read_text_file(a),
                                              read_text_file(b), kind, opt,
                                              a, b);
  print_compare_report(rep, a, b);
  if (args.has("json")) write_diff_json(rep, args.get("json", ""), a, b);
  return rep.exit_code();
}

int cmd_bench(const Args& args) {
  register_builtin_suites();
  if (args.has("list")) {
    Table t({"suite", "description"});
    for (const Suite* s : all_suites()) t.row().cell(s->name).cell(s->description);
    t.print(std::cout);
    return 0;
  }
  if (args.has("scenarios")) {
    Table t({"scenario", "generator", "description"});
    for (const Scenario* s :
         ScenarioRegistry::builtin().match(args.get("filter", "")))
      t.row().cell(s->name).cell(s->generator).cell(s->description);
    t.print(std::cout);
    return 0;
  }
  CLI_USAGE_CHECK(args.has("suite"),
                  "--suite <name> is required (or --list / --scenarios)");
  const std::string suite_name = args.get("suite", "");
  CLI_USAGE_CHECK(find_suite(suite_name) != nullptr,
                  "unknown --suite: " << suite_name << " (try --list)");
  RunOptions options;
  const std::int64_t reps = args.get_int("reps", 1);
  const std::int64_t warmup = args.get_int("warmup", 0);
  CLI_USAGE_CHECK(reps >= 1 && reps <= std::numeric_limits<int>::max(),
                  "--reps must be >= 1, got " << reps);
  CLI_USAGE_CHECK(warmup >= 0 && warmup <= std::numeric_limits<int>::max(),
                  "--warmup must be >= 0, got " << warmup);
  options.reps = static_cast<int>(reps);
  options.warmup = static_cast<int>(warmup);
  options.filter = args.get("filter", "");
  options.json_path = args.get("json", "");
  if (!args.has("baseline"))
    return run_suite(suite_name, options, std::cout);

  // --baseline FILE: run the suite, then diff the fresh cmvrp-bench-v1
  // document against the committed baseline — deterministic metric drift
  // fails (exit 1), wall time warns unless --fail-ratio gates it. The
  // run's own exit (a claim failure) still dominates.
  Json fresh;
  const int run_rc = run_suite(suite_name, options, std::cout, &fresh);
  const std::string baseline_path = args.get("baseline", "");
  const Json baseline = Json::parse(read_text_file(baseline_path));
  const CompareOptions opt = compare_options_from_args(args);
  const CompareReport rep = compare_bench_runs(baseline, fresh, opt);
  std::cout << "\nbaseline comparison (" << baseline_path
            << " -> fresh run):\n";
  print_compare_report(rep, baseline_path, "<fresh run>");
  if (args.has("diff-json"))
    write_diff_json(rep, args.get("diff-json", ""), baseline_path,
                    "<fresh run>");
  return run_rc != 0 ? run_rc : rep.exit_code();
}

// `items` followed by `more`.
std::vector<std::string> joined(std::vector<std::string> items,
                                const std::vector<std::string>& more) {
  items.insert(items.end(), more.begin(), more.end());
  return items;
}

const std::vector<Command>& commands() {
  // What serve_and_report and its helpers read (stream_config_from_args,
  // StatsFile, SpanFile, report_stream): shared by every serving front
  // end, whose one switch is --obs.
  static const std::vector<std::string> serve = {
      "seed", "threads", "batch", "capacity", "side", "monitor-stride",
      "admission", "queue-limit", "service-ticks", "sample-stride",
      "trace-spans", "span-sample", "flight", "stats", "stats-stride",
      "record", "json"};
  // compare_options_from_args.
  static const std::vector<std::string> thresholds = {
      "warn-ratio", "fail-ratio", "min-wall-ms", "noise-sigmas", "ignore"};
  static const std::vector<Command> table = {
      {"bounds", "offline bounds of a demand file (Thm 1.4.1)",
       {"file", "dim"}, {}, cmd_bounds},
      {"plan", "Lemma 2.2.5 offline plan and its verification",
       {"file", "dim"}, {"ascii"}, cmd_plan},
      {"online", "serve a demand file with the online strategy",
       {"file", "dim", "order", "seed", "capacity"}, {}, cmd_online},
      {"won", "bisect the empirical Won (Thm 1.4.2)",
       {"file", "dim", "seed", "tol"}, {}, cmd_won},
      {"gen", "emit a demand file (uniform|clustered|line|point|square)",
       {"workload", "n", "count", "d", "seed"}, {}, cmd_gen},
      {"fig41", "the Chapter 4 counterexample", {"r1", "r2"}, {}, cmd_fig41},
      {"stream",
       std::string("sharded streaming engine, report ") + kStreamSchema,
       joined({"scenario", "file", "dim", "order", "n", "jobs"}, serve),
       {"obs"}, cmd_stream},
      {"trace gen", "stream a generator into a trace",
       {"out", "generator", "dim", "count", "side", "cubes", "burst", "sigma",
        "seed"},
       {}, cmd_trace_gen},
      {"trace info", "print and validate a trace's header", {"file"}, {},
       cmd_trace_info},
      {"trace replay",
       "bounded-memory replay (--memory: the in-memory reference)",
       joined({"file"}, serve), {"obs", "memory"}, cmd_trace_replay},
      {"trace mux", "merge traces by arrival index into one engine", serve,
       {"obs"}, cmd_trace_mux, true},
      {"stats", "summarize a cmvrp-stats-v1 JSONL snapshot", {"file", "top"},
       {}, cmd_stats},
      {"prof", "analyze a --trace-spans export", {"file", "top"}, {},
       cmd_prof},
      {"compare", "structural diff of two artifacts (cmvrp-diff-v1)",
       joined({"kind", "json"}, thresholds), {}, cmd_compare, true},
      {"bench", "run an experiment suite, or diff it against a --baseline",
       joined({"suite", "reps", "warmup", "filter", "json", "baseline",
               "diff-json"},
              thresholds),
       {"list", "scenarios"}, cmd_bench},
  };
  return table;
}

// Each command of the table: its name and flags, [switches] and FILE...
// where it takes positionals, wrapped at 79 columns, then its summary.
int usage(std::ostream& os, int exit_code) {
  os << "usage: cmvrp <command> [--flag value] [--switch]\n";
  const std::string indent(15, ' ');
  for (const Command& c : commands()) {
    std::vector<std::string> words;
    for (const std::string& f : c.flags) words.push_back("--" + f);
    for (const std::string& f : c.switches) words.push_back("[--" + f + "]");
    if (c.positionals) words.push_back("FILE...");
    std::string line = "  " + c.name;
    line.resize(std::max(line.size(), indent.size() - 1), ' ');
    for (const std::string& w : words) {
      if (line.size() + 1 + w.size() > 79) {
        os << line << "\n";
        line = indent.substr(1);
      }
      line += " " + w;
    }
    os << line << "\n" << indent << c.summary << "\n";
  }
  os << "exit codes (all subcommands): 0 ok, 1 data/drift failure, 2 usage\n";
  return exit_code;
}

// The command called `name`, or null.
const Command* find_command(const std::string& name) {
  for (const Command& c : commands())
    if (c.name == name) return &c;
  return nullptr;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string word = argc >= 2 ? argv[1] : "";
  try {
    if (word == "help" || word == "--help" || word == "-h")
      return usage(std::cout, 0);
    if (word == "record")
      throw usage_error(
          "record is retired; record a run with `stream --record <o.trace>`");
    // So is `stream --trace`, which no command declares.
    CLI_USAGE_CHECK(word != "stream" ||
                        std::find(argv + 2, argv + argc,
                                  std::string("--trace")) == argv + argc,
                    "stream --trace is retired; serve a trace with "
                    "`trace replay --file <t.bin>`");
    // A trace action is the word after `trace`.
    const bool action = word == "trace" && argc > 2;
    const Command* command =
        find_command(action ? word + " " + argv[2] : word);
    if (command == nullptr) {
      CLI_USAGE_CHECK(word != "trace",
                      "trace needs an action: trace gen|info|replay|mux "
                      "[--flags]");
      return usage(std::cerr, 2);
    }
    const Args args = parse_args(*command, argc, argv, action ? 3 : 2);
    CLI_USAGE_CHECK(command->positionals || args.positional.empty(),
                    "unexpected argument '" << args.positional.front()
                                            << "' for '" << command->name
                                            << "' (it takes only --flags)");
    return command->run(args);
  } catch (const usage_error& e) {  // malformed flags: exit 2
    std::cerr << "usage error: " << e.what() << "\n";
    return 2;
  } catch (const std::exception& e) {  // check_error etc.: data failure
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
