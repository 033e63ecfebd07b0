// Benchmark program for the cmvrp serving stack.
//
// Three seeded workloads drive the library's public entry points in one
// process. A run with --trace 0 measures the end-to-end metrics with
// tracing off; a run with --trace 1 wraps every call into a layer in a
// span (kept in memory, written at exit), reads counts from the public
// results at the same boundaries, and prints the per-layer metrics plus
// the tracing overhead. Every run checks the program's outputs; a failed
// check fails its operation and makes the process exit 1.
//
//   cmvrp_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                   --work-dir DIR [--smoke] [--tamper-digest]
//
// --smoke shrinks every input to at most 20,000 arrivals (the
// benchmark's own tests use it); --tamper-digest flips one bit of every
// expected digest, so the output checks must fail (the tests prove they
// can).
// The last stdout line is one JSON object with the keys correct,
// attempted, failed and metrics. An operation is one set-up-serve-check
// cycle (or one extra check of a traced run); it fails when any of its
// output checks fails.
//
// The load is a closed loop: the benchmark thread is the only caller and
// feeds ingest() the next 256 arrivals after the previous call returns.
// Inputs are generated from --seed before any timing; the seed also
// becomes the protocol seed of OnlineConfig, so one seed fixes the run.
#include <malloc.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "grid/box.h"
#include "grid/demand_map.h"
#include "obs/counters.h"
#include "online/capacity_search.h"
#include "record/recorder.h"
#include "stream/engine.h"
#include "trace/reader.h"
#include "trace/replay.h"
#include "trace/writer.h"
#include "util/digest.h"
#include "util/rng.h"
#include "workload/generators.h"
#include "workload/stream_gen.h"

namespace {

using namespace cmvrp;
using Clock = std::chrono::steady_clock;

// The engine's default batch size: the benchmark thread hands ingest()
// this many arrivals per call.
constexpr std::size_t kFeed = 256;

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

// CPU seconds this process has used. Serve windows and set-ups are timed
// with it rather than the wall clock. They run on one thread and wait on
// no I/O, so on a dedicated core the two clocks agree. On a shared VM the
// wall clock also counts steal, the time the hypervisor gives this vCPU
// to other guests, which the guest kernel leaves out of CPU time. On the
// 4-vCPU VM this was tuned on, steal came in phases of tens of seconds;
// across threads-2 flood-3d serves it took wall time from 1.50 s to
// 1.88 s while CPU time moved from 2.62 s to 2.73 s.
double cpu_seconds() {
  timespec ts;
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         1e-9 * static_cast<double>(ts.tv_nsec);
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 == 1 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

// One "Key:  <n> kB" line of /proc/self/status, in kB (-1 if absent).
// RssAnon is the process's anonymous memory only, so the mapped pages of
// a replayed trace never count as cube memory; VmHWM is peak total RSS.
std::int64_t status_kb(const char* key) {
  std::ifstream in("/proc/self/status");
  const std::size_t n = std::strlen(key);
  std::string line;
  while (std::getline(in, line))
    if (line.compare(0, n, key) == 0) return std::stoll(line.substr(n));
  return -1;
}

// Returns freed heap pages to the kernel, so RssAnon growth across a
// serve window counts what that window allocated, not what an earlier
// cycle left in the allocator's free lists.
std::int64_t trimmed_rss_anon_kb() {
  malloc_trim(0);
  return status_kb("RssAnon:");
}

// ---------------------------------------------------------------------------
// Spans: the traced run's layer boundaries, recorded from this file around
// each call into a layer's public functions. Kept in memory and written as
// Chrome trace JSON when the run ends. With tracing off, span() returns an
// inert scope and reads no clock.

class Tracer {
 public:
  struct Span {
    const char* name;
    std::int64_t start_ns;
    std::int64_t end_ns;
    int parent;  // index of the enclosing span, -1 at the root
    int cycle;   // measured cycle, -1 for spans outside the cycles
  };

  class Scope {
   public:
    Scope(Tracer* tracer, const char* name) : tracer_(tracer) {
      if (tracer_ != nullptr) id_ = tracer_->open(name);
    }
    ~Scope() {
      if (tracer_ != nullptr) tracer_->close(id_);
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* tracer_;
    int id_ = -1;
  };

  explicit Tracer(bool on) : on_(on), origin_(Clock::now()) {}

  bool on() const { return on_; }
  void set_cycle(int cycle) { cycle_ = cycle; }
  Scope span(const char* name) { return Scope(on_ ? this : nullptr, name); }

  // Durations (seconds) of every span named `name` in a measured cycle.
  std::vector<double> durations(const char* name) const {
    std::vector<double> out;
    for (const Span& s : spans_)
      if (s.cycle >= 0 && std::strcmp(s.name, name) == 0)
        out.push_back(1e-9 * static_cast<double>(s.end_ns - s.start_ns));
    return out;
  }

  // Per measured cycle, the summed total (or self) time of the spans
  // named in `names`.
  std::vector<double> cycle_sums(const std::vector<const char*>& names,
                                 bool self) const {
    const std::vector<std::int64_t> child = child_ns();
    std::map<int, std::int64_t> sums;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      if (s.cycle < 0) continue;
      sums.emplace(s.cycle, 0);
      for (const char* name : names)
        if (std::strcmp(s.name, name) == 0)
          sums[s.cycle] += s.end_ns - s.start_ns - (self ? child[i] : 0);
    }
    std::vector<double> out;
    for (const auto& kv : sums) out.push_back(1e-9 * kv.second);
    return out;
  }

  // Self time is a span's duration minus its children's; spans nest on
  // one thread, so children never overlap and self time lies in
  // [0, duration]. Returns the first span that breaks this, if any.
  std::optional<std::string> self_time_violation() const {
    const std::vector<std::int64_t> child = child_ns();
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const std::int64_t dur = spans_[i].end_ns - spans_[i].start_ns;
      const std::int64_t self = dur - child[i];
      if (spans_[i].end_ns < 0 || self < 0 || self > dur)
        return std::string(spans_[i].name);
    }
    return std::nullopt;
  }

  // Chrome trace-event JSON: one complete ("X") event per span, with the
  // span's id, parent and cycle in args.
  void write(const std::string& path) const {
    std::ofstream out(path, std::ios::trunc);
    out << "{\"traceEvents\":[";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      char buf[320];
      std::snprintf(buf, sizeof buf,
                    "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                    "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                    "\"parent\":%d,\"cycle\":%d}}",
                    i == 0 ? "" : ",", s.name, 1e-3 * s.start_ns,
                    1e-3 * static_cast<double>(s.end_ns - s.start_ns), i,
                    s.parent, s.cycle);
      out << buf;
    }
    out << "\n]}\n";
  }

 private:
  std::int64_t now_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                                origin_)
        .count();
  }

  int open(const char* name) {
    spans_.push_back(Span{name, now_ns(), -1, current_, cycle_});
    current_ = static_cast<int>(spans_.size()) - 1;
    return current_;
  }

  void close(int id) {
    spans_[static_cast<std::size_t>(id)].end_ns = now_ns();
    current_ = spans_[static_cast<std::size_t>(id)].parent;
  }

  std::vector<std::int64_t> child_ns() const {
    std::vector<std::int64_t> child(spans_.size(), 0);
    for (const Span& s : spans_)
      if (s.parent >= 0)
        child[static_cast<std::size_t>(s.parent)] += s.end_ns - s.start_ns;
    return child;
  }

  bool on_;
  Clock::time_point origin_;
  std::vector<Span> spans_;
  int current_ = -1;
  int cycle_ = -1;
};

// Times the OutcomeRecorder's on_batch calls in the traced run; the
// untraced run attaches the recorder itself.
class TimedObserver final : public StreamObserver {
 public:
  TimedObserver(StreamObserver& inner, Tracer& tracer)
      : inner_(inner), tracer_(tracer) {}
  void on_batch(const JobOutcome* outcomes, std::size_t count) override {
    auto span = tracer_.span("record.write");
    inner_.on_batch(outcomes, count);
  }
  void on_inject(const Point& home) override {
    auto span = tracer_.span("record.write");
    inner_.on_inject(home);
  }

 private:
  StreamObserver& inner_;
  Tracer& tracer_;
};

// ---------------------------------------------------------------------------
// Output checks. One Checks object per operation; any failed expectation
// fails the operation.

class Checks {
 public:
  explicit Checks(std::uint64_t tamper) : tamper_(tamper) {}

  void expect(bool ok, const std::string& what) {
    if (!ok) failures_.push_back(what);
  }
  // Digest equality; --tamper-digest flips a bit of the expected side.
  void expect_digest(std::uint64_t got, std::uint64_t expected,
                     const std::string& what) {
    expect(got == (expected ^ tamper_), what + " digest mismatch");
  }
  const std::vector<std::string>& failures() const { return failures_; }

 private:
  std::uint64_t tamper_;
  std::vector<std::string> failures_;
};

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

class Report {
 public:
  void add_operation(const Checks& checks) {
    ++attempted_;
    if (checks.failures().empty()) return;
    ++failed_;
    for (const std::string& f : checks.failures())
      std::cerr << "check failed: " << f << "\n";
  }
  void metric(const std::string& name, double value, const std::string& unit) {
    metrics_.push_back(Metric{name, std::isfinite(value) ? value : 0.0, unit});
  }
  bool correct() const { return failed_ == 0 && attempted_ > 0; }

  void print() const {
    for (const Metric& m : metrics_)
      std::printf("%-34s %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
    std::string json = "{\"correct\": ";
    json += correct() ? "true" : "false";
    json += ", \"attempted\": " + std::to_string(attempted_);
    json += ", \"failed\": " + std::to_string(failed_);
    json += ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics_.size(); ++i) {
      char value[64];
      std::snprintf(value, sizeof value, "%.17g", metrics_[i].value);
      json += (i == 0 ? "\"" : ", \"") + metrics_[i].name +
              "\": {\"value\": " + value + ", \"unit\": \"" +
              metrics_[i].unit + "\"}";
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
    std::fflush(stdout);
  }

 private:
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::vector<Metric> metrics_;
};

// ---------------------------------------------------------------------------
// Measurements. A cycle is one operation: `setup_reps` set-ups (the last
// one's engine serves first), then `serve_reps` serve windows, each on a
// fresh engine built from the same configuration.

struct Serve {
  double seconds = 0.0;        // the window jobs_per_sec divides by
  double arrivals = 0.0;       // the jobs_per_sec numerator
  double rss_growth_kb = 0.0;  // RssAnon growth across the window
};

// Deterministic counts read from the public results.
struct Counts {
  double stream_arrivals = 0.0;  // arrivals of the StreamEngine run
  double cubes = 0.0;
  double served = 0.0;
  double latency_p99 = 0.0;
  double replacements = 0.0;
  double comps_started = 0.0;
  NetworkStats network;
  double audit_bytes = 0.0;  // replay-4d: size of the outcome trail
};

struct Cycle {
  std::vector<double> setup_s;
  std::vector<Serve> serves;
  Counts counts;
};

// Reads the stream counts of an engine result and checks that served +
// failed + shed partitions the arrivals.
void read_stream_result(const StreamResult& r, std::uint64_t arrivals,
                        Counts& c, Checks& checks) {
  checks.expect(r.jobs_ingested == arrivals, "ingested != arrivals");
  checks.expect(r.served_jobs.size() + r.failed_jobs.size() +
                        r.shed_jobs.size() ==
                    arrivals,
                "served + failed + shed != arrivals");
  checks.expect(r.metrics.jobs_served == r.served_jobs.size() &&
                    r.metrics.jobs_failed == r.failed_jobs.size(),
                "metrics disagree with the outcome sets");
  c.stream_arrivals = static_cast<double>(arrivals);
  c.cubes = static_cast<double>(r.cubes);
  c.served = static_cast<double>(r.served_jobs.size());
  c.latency_p99 = static_cast<double>(r.latency.percentile(99.0));
  c.replacements = static_cast<double>(r.metrics.replacements);
  c.comps_started = static_cast<double>(r.metrics.computations_started);
  c.network = r.metrics.network;
}

// Every serve must repeat the first one's outcome bit for bit: same
// input, same seed, fresh engine.
class RepeatCheck {
 public:
  void check(const StreamResult& r, Checks& checks) {
    const std::uint64_t served = index_set_digest(r.served_jobs);
    const std::uint64_t failed = index_set_digest(r.failed_jobs);
    if (!first_) first_ = {served, failed, r.metrics};
    checks.expect_digest(served, first_->served, "repeat served");
    checks.expect_digest(failed, first_->failed, "repeat failed");
    checks.expect(r.metrics == first_->metrics, "repeat metrics differ");
  }

 private:
  struct First {
    std::uint64_t served;
    std::uint64_t failed;
    OnlineMetrics metrics;
  };
  std::optional<First> first_;
};

// Feeds `jobs` to the engine kFeed at a time, then finishes it.
StreamResult serve_jobs(StreamEngine& engine, const std::vector<Job>& jobs,
                        Tracer& tracer) {
  for (std::size_t i = 0; i < jobs.size(); i += kFeed) {
    auto span = tracer.span("stream.ingest");
    engine.ingest(jobs.data() + i, std::min(kFeed, jobs.size() - i));
  }
  auto span = tracer.span("stream.finish");
  return engine.finish();
}

// Serves `jobs` on `engine` as one measured window.
Serve timed_stream_serve(StreamEngine& engine, const std::vector<Job>& jobs,
                         Tracer& tracer, Checks& checks, Counts& counts,
                         RepeatCheck& repeat) {
  Serve s;
  const std::int64_t anon0 = trimmed_rss_anon_kb();
  const double t0 = cpu_seconds();
  const StreamResult r = serve_jobs(engine, jobs, tracer);
  s.seconds = cpu_seconds() - t0;
  s.rss_growth_kb = static_cast<double>(status_kb("RssAnon:") - anon0);
  s.arrivals = static_cast<double>(jobs.size());
  read_stream_result(r, jobs.size(), counts, checks);
  repeat.check(r, checks);
  return s;
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool smoke = false;
  bool tamper = false;
  std::string work_dir;
};

// Per-layer values a workload measures outside the cycles.
using LayerValues = std::map<std::string, double>;

class Workload {
 public:
  Workload(int setup_reps, int serve_reps)
      : setup_reps_(setup_reps), serve_reps_(serve_reps) {}
  virtual ~Workload() = default;

  int setup_reps() const { return setup_reps_; }
  int serve_reps() const { return serve_reps_; }

  // Generates the inputs, before any timing.
  virtual void generate() = 0;
  // Drops the engine (untimed, before each set-up).
  virtual void release() = 0;
  // Program-side set-up: everything before the first arrival is served.
  virtual void setup(Tracer& tracer) = 0;
  // Builds a fresh engine from the kept configuration (untimed).
  virtual void rebuild() = 0;
  // One measured serve window with its output checks.
  virtual Serve serve(Tracer& tracer, Checks& checks, Counts& counts) = 0;
  // Extra checked runs of the traced run.
  virtual LayerValues traced_extras(Tracer& tracer, Report& report) {
    (void)tracer;
    (void)report;
    return {};
  }

 private:
  int setup_reps_;
  int serve_reps_;
};

Cycle run_cycle(Workload& w, Tracer& tracer, Checks& checks) {
  Cycle c;
  for (int i = 0; i < w.setup_reps(); ++i) {
    w.release();
    const double t0 = cpu_seconds();
    {
      auto span = tracer.span("bench.setup");
      w.setup(tracer);
    }
    c.setup_s.push_back(cpu_seconds() - t0);
  }
  for (int i = 0; i < w.serve_reps(); ++i) {
    if (i > 0) w.rebuild();
    auto span = tracer.span("bench.serve");
    c.serves.push_back(w.serve(tracer, checks, c.counts));
  }
  w.release();
  return c;
}

// ---------------------------------------------------------------------------
// In-memory stream workloads: sparse-2d and flood-3d.

struct MemoryStreamSpec {
  int dim;
  std::int64_t side;  // the box is [0, side-1]^dim
  double per_point;   // uniform arrivals per grid point
  std::optional<double> pinned_capacity;  // W; the sizing rule when unset
  std::int64_t pinned_side;               // cube side when W is pinned
  // Above 1: the traced run also serves the input at threads 1 and at
  // this many workers. The measured serves always run at threads 1.
  int check_threads;
  std::int64_t monitor_stride;
  int setup_reps;
  int serve_reps;
};

class MemoryStreamWorkload : public Workload {
 public:
  MemoryStreamWorkload(const MemoryStreamSpec& spec, const Options& opts)
      : Workload(spec.setup_reps, spec.serve_reps), spec_(spec), opts_(opts) {}

  void generate() override {
    Point hi = Point::origin(spec_.dim);
    for (int a = 0; a < spec_.dim; ++a) hi[a] = spec_.side - 1;
    const Box box(Point::origin(spec_.dim), hi);
    std::int64_t points = 1;
    for (int a = 0; a < spec_.dim; ++a) points *= spec_.side;
    Rng rng(opts_.seed);
    const DemandMap d = uniform_demand(
        box, std::llround(spec_.per_point * static_cast<double>(points)), rng);
    Rng order(opts_.seed + 1);
    jobs_ = stream_from_demand(d, ArrivalOrder::kShuffled, order);
  }

  void release() override { engine_.reset(); }

  // The demand pass (the engine's region, and the sizing rule's input),
  // the sizing rule unless W is pinned, and the engine's construction.
  void setup(Tracer& tracer) override {
    config_ = configure(tracer);
    auto span = tracer.span("stream.ctor");
    engine_.emplace(spec_.dim, config_);
  }

  void rebuild() override {
    engine_.reset();
    engine_.emplace(spec_.dim, config_);
  }

  Serve serve(Tracer& tracer, Checks& checks, Counts& counts) override {
    return timed_stream_serve(*engine_, jobs_, tracer, checks, counts,
                              repeat_);
  }

  // flood-3d: the same input at threads 1 and 2 with the Tier-A counters
  // on, three pairs. Outcomes and counter totals must match (the engine's
  // bit-identity contract), no computation may exceed the Lemma 3.3.1
  // flood bound s^l (2r+1)^l, and the pairs give the worker pool's
  // median wall-clock speed-up and its parallel-routed share.
  LayerValues traced_extras(Tracer& tracer, Report& report) override {
    if (spec_.check_threads < 2) return {};
    StreamConfig cfg = configure(tracer);
    cfg.online.obs.counters = true;
    const auto timed_run = [&](int threads) {
      cfg.threads = threads;
      std::optional<StreamEngine> engine;
      {
        auto span = tracer.span("stream.ctor");
        engine.emplace(spec_.dim, cfg);
      }
      const auto t0 = Clock::now();
      StreamResult r = serve_jobs(*engine, jobs_, tracer);
      return std::make_pair(std::move(r), seconds_between(t0, Clock::now()));
    };
    const std::uint64_t bound = query_flood_bound(
        cfg.online.cube_side, cfg.online.neighbor_radius, spec_.dim);
    std::vector<double> speedups;
    double parallel_share = 0.0;
    for (int pair = 0; pair < 3; ++pair) {
      Checks checks(opts_.tamper ? 1 : 0);
      const auto [one, one_s] = timed_run(1);
      const auto [many, many_s] = timed_run(spec_.check_threads);
      checks.expect_digest(index_set_digest(many.served_jobs),
                           index_set_digest(one.served_jobs),
                           "threads-1 vs threads-2 served");
      checks.expect_digest(index_set_digest(many.failed_jobs),
                           index_set_digest(one.failed_jobs),
                           "threads-1 vs threads-2 failed");
      checks.expect_digest(many.counters.digest(), one.counters.digest(),
                           "threads-1 vs threads-2 counter");
      checks.expect(many.metrics == one.metrics,
                    "threads-1 vs threads-2 metrics differ");
      checks.expect(one.counters.max_queries_per_comp <= bound,
                    "Lemma 3.3.1: a computation sent " +
                        std::to_string(one.counters.max_queries_per_comp) +
                        " queries, bound " + std::to_string(bound));
      checks.expect(one.counters.comps_started > 0,
                    "no Phase I computation ran");
      report.add_operation(checks);
      speedups.push_back(ratio(one_s, many_s));
      parallel_share = ratio(static_cast<double>(many.routed_parallel_batches),
                             static_cast<double>(many.batches));
    }
    return {{"stream.t2_speedup", median(speedups)},
            {"stream.parallel_route_share", parallel_share}};
  }

 private:
  StreamConfig configure(Tracer& tracer) const {
    const DemandMap d = [&] {
      auto span = tracer.span("workload.demand");
      return demand_of_stream(jobs_, spec_.dim);
    }();
    StreamConfig cfg;
    if (spec_.pinned_capacity) {
      cfg.online.capacity = *spec_.pinned_capacity;
      cfg.online.cube_side = spec_.pinned_side;
      cfg.online.anchor = Point::origin(spec_.dim);
      cfg.online.seed = opts_.seed;
    } else {
      auto span = tracer.span("core.size");
      cfg.online = default_online_config(d, opts_.seed);
    }
    cfg.region = d.bounding_box();
    cfg.online.monitor_stride = spec_.monitor_stride;
    return cfg;
  }

  MemoryStreamSpec spec_;
  const Options& opts_;
  std::vector<Job> jobs_;
  StreamConfig config_;
  std::optional<StreamEngine> engine_;
  RepeatCheck repeat_;
};

// ---------------------------------------------------------------------------
// replay-4d: a dense 4-D trace on disk, replayed by TraceReplayer while an
// OutcomeRecorder writes the v2 audit trail.

class ReplayWorkload : public Workload {
 public:
  explicit ReplayWorkload(const Options& opts)
      : Workload(1, opts.smoke ? 1 : 3), opts_(opts) {
    const std::string stem = opts.work_dir + "/replay-4d." +
                             std::to_string(::getpid()) + "." +
                             std::to_string(opts.seed);
    trace_path_ = stem + ".trace";
    audit_path_ = stem + ".audit.trace";
  }
  ~ReplayWorkload() override {
    release();
    std::error_code ec;
    std::filesystem::remove(trace_path_, ec);
    std::filesystem::remove(audit_path_, ec);
  }
  ReplayWorkload(const ReplayWorkload&) = delete;
  ReplayWorkload& operator=(const ReplayWorkload&) = delete;

  void generate() override {
    const std::int64_t n = opts_.smoke ? 6 : 12;
    const Box box(Point{0, 0, 0, 0}, Point{n - 1, n - 1, n - 1, n - 1});
    Rng rng(opts_.seed);
    TraceWriter writer(trace_path_, kDim);
    drifting_gradient_stream(box, opts_.smoke ? 20000 : 300000,
                             opts_.smoke ? 2.0 : 4.0, rng,
                             [&writer](const Job& j) { writer.append(j); });
    writer.close();
    arrivals_ = writer.jobs_written();
  }

  void release() override {
    recorder_.reset();
    replayer_.reset();
    reader_.reset();
  }

  // Trace open, the sizing scan, the sizing rule, the replayer's and the
  // recorder's construction.
  void setup(Tracer& tracer) override {
    {
      auto span = tracer.span("trace.open");
      reader_.emplace(trace_path_);
    }
    const DemandMap d = [&] {
      auto span = tracer.span("trace.scan");
      return trace_demand(*reader_);
    }();
    {
      auto span = tracer.span("core.size");
      config_.online = default_online_config(d, opts_.seed);
    }
    config_.region = d.bounding_box();
    {
      auto span = tracer.span("stream.ctor");
      replayer_.emplace(kDim, config_);
    }
    auto span = tracer.span("record.open");
    recorder_.emplace(audit_path_, kDim);
  }

  void rebuild() override {
    recorder_.reset();
    replayer_.reset();
    reader_->reset();
    replayer_.emplace(kDim, config_);
    recorder_.emplace(audit_path_, kDim);
  }

  Serve serve(Tracer& tracer, Checks& checks, Counts& counts) override {
    TimedObserver timed(*recorder_, tracer);
    replayer_->set_observer(tracer.on() ? static_cast<StreamObserver*>(&timed)
                                        : &*recorder_);
    Serve s;
    const std::int64_t anon0 = trimmed_rss_anon_kb();
    const double t0 = cpu_seconds();
    StreamResult r;
    {
      auto span = tracer.span("stream.ingest");
      replayer_->ingest(*reader_);
    }
    {
      auto span = tracer.span("stream.finish");
      r = replayer_->finish();
    }
    {
      auto span = tracer.span("record.write");
      recorder_->close();
    }
    s.seconds = cpu_seconds() - t0;
    s.rss_growth_kb = static_cast<double>(status_kb("RssAnon:") - anon0);
    s.arrivals = static_cast<double>(arrivals_);
    replayer_->set_observer(nullptr);
    read_stream_result(r, arrivals_, counts, checks);
    repeat_.check(r, checks);
    // The audit `record` performs: the recorder's incremental digests
    // must equal the digests of the result's outcome sets.
    checks.expect(recorder_->recorded() == arrivals_,
                  "recorder saw a different arrival count");
    checks.expect_digest(recorder_->served_digest(),
                         index_set_digest(r.served_jobs), "recorder served");
    checks.expect_digest(recorder_->failed_digest(),
                         index_set_digest(r.failed_jobs), "recorder failed");
    checks.expect_digest(recorder_->dropped_digest(),
                         index_set_digest(r.shed_jobs), "recorder dropped");
    counts.audit_bytes =
        static_cast<double>(std::filesystem::file_size(audit_path_));
    return s;
  }

  // A standalone next_batch pass over the whole trace, three times.
  LayerValues traced_extras(Tracer& tracer, Report& report) override {
    Checks checks(0);
    std::vector<Job> buf(kFeed);
    std::vector<double> ns_per_record;
    for (int rep = 0; rep < 3; ++rep) {
      auto span = tracer.span("trace.read");
      TraceReader reader(trace_path_);
      std::uint64_t records = 0;
      const auto t0 = Clock::now();
      while (const std::size_t n = reader.next_batch(buf.data(), buf.size()))
        records += n;
      ns_per_record.push_back(1e9 * seconds_between(t0, Clock::now()) /
                              static_cast<double>(records));
      checks.expect(records == arrivals_, "read pass record count");
    }
    report.add_operation(checks);
    return {{"trace.read_ns_per_record", median(ns_per_record)}};
  }

 private:
  static constexpr int kDim = 4;
  const Options& opts_;
  std::string trace_path_;
  std::string audit_path_;
  std::uint64_t arrivals_ = 0;
  StreamConfig config_;
  std::optional<TraceReader> reader_;
  std::optional<TraceReplayer> replayer_;
  std::optional<OutcomeRecorder> recorder_;
  RepeatCheck repeat_;
};

// ---------------------------------------------------------------------------
// Workload definitions. Beside each: why it was chosen, which layers it
// loads and which it bypasses. Every workload takes --seed: the seed
// drives input generation (Rng(seed), arrival order Rng(seed + 1)) and
// is the protocol seed of its OnlineConfig.

std::unique_ptr<Workload> make_workload(const Options& opts) {
  const bool smoke = opts.smoke;
  if (opts.workload == "sparse-2d") {
    // The sparse regime. Uniform 2-D arrivals, 2.5 per grid point of a
    // 256^2 box (~10 per cube), sized by the program's own rule (side 2,
    // W ~ 38 omega_c), threads 1, from memory. Loads: core (the
    // cube_bound scan of default_online_config), workload (demand pass),
    // stream (cold-cube materialization, the per-cube merge in finish),
    // online (FleetCore serves). Bypasses: trace, record, Phase I (no
    // replacements).
    return std::make_unique<MemoryStreamWorkload>(
        MemoryStreamSpec{2, smoke ? 32 : 256, 2.5, std::nullopt, 0, 1, 1, 1,
                         smoke ? 1 : 6},
        opts);
  }
  if (opts.workload == "flood-3d") {
    // The flood-heavy regime. Uniform 3-D arrivals, 2 per grid point of a
    // 32^3 box (512 cubes of side 4), W pinned at 8, far below the theory
    // value, monitor stride 16, threads 1; the traced run also serves
    // it at threads 2. Loads: online (Phase I floods), sim
    // (Network::send, EventQueue), stream (shard routing; the worker-pool
    // barrier in the traced threads-2 check). Bypasses: core sizing (W
    // pinned), trace, record; materialization is negligible.
    return std::make_unique<MemoryStreamWorkload>(
        MemoryStreamSpec{3, smoke ? 8 : 32, smoke ? 6.0 : 2.0, 8.0, 4, 2, 16,
                         smoke ? 2 : 10, 1},
        opts);
  }
  if (opts.workload == "replay-4d") {
    // The dense regime, from disk. A drifting-gradient 4-D trace (12^4
    // box, sigma 4, 300,000 arrivals, ~1,200 per cube), sized from the
    // trace by the program's rule, replayed at threads 1 while an
    // OutcomeRecorder writes the v2 audit trail. Loads: trace (open,
    // sizing scan, decoding), record (outcome writes), stream (observer
    // outcome sort, monitoring settle), sim (heartbeats). Bypasses: the
    // in-memory demand pass; few replacements.
    return std::make_unique<ReplayWorkload>(opts);
  }
  return nullptr;
}

// ---------------------------------------------------------------------------

// Arrivals served per CPU second over every serve window of the cycles.
// Even without steal, the host this was tuned on alternates between fast
// and slow phases lasting seconds (other guests share its cores and
// memory); a median of per-serve rates flips between the two, while this
// ratio of sums moves in proportion to the time spent in each.
double jobs_per_sec(const std::vector<Cycle>& cycles) {
  double arrivals = 0.0, seconds = 0.0;
  for (const Cycle& c : cycles) {
    for (const Serve& s : c.serves) {
      arrivals += s.arrivals;
      seconds += s.seconds;
    }
  }
  return ratio(arrivals, seconds);
}

// Runs one unmeasured warm-up cycle, then cycles for `seconds`, one
// operation each, alternating between the tracers (at least three cycles
// on each) so that a traced and an untraced cycle see the same host
// conditions. The warm-up faults in the code, the allocator's arenas and
// a replayed trace's pages before anything is timed.
std::vector<std::vector<Cycle>> run_cycles(Workload& w,
                                           const std::vector<Tracer*>& tracers,
                                           Report& report,
                                           std::uint64_t tamper,
                                           double seconds) {
  {
    Checks checks(tamper);
    run_cycle(w, *tracers[0], checks);
    report.add_operation(checks);
  }
  std::vector<std::vector<Cycle>> cycles(tracers.size());
  const auto start = Clock::now();
  for (std::size_t i = 0;
       i < 3 * tracers.size() || seconds_between(start, Clock::now()) < seconds;
       ++i) {
    Tracer& tracer = *tracers[i % tracers.size()];
    std::vector<Cycle>& mine = cycles[i % tracers.size()];
    tracer.set_cycle(static_cast<int>(mine.size()));
    Checks checks(tamper);
    mine.push_back(run_cycle(w, tracer, checks));
    tracer.set_cycle(-1);
    report.add_operation(checks);
    const Cycle& c = mine.back();
    std::fprintf(stderr, "cycle %zu%s: setup %.4f s, serve", i + 1,
                 tracer.on() ? " (traced)" : "", median(c.setup_s));
    for (const Serve& s : c.serves) std::fprintf(stderr, " %.4f", s.seconds);
    std::fprintf(stderr, " s\n");
  }
  return cycles;
}

void end_to_end_metrics(const std::vector<Cycle>& cycles, Report& report) {
  std::vector<double> setup, bytes_per_cube;
  for (const Cycle& c : cycles) {
    setup.insert(setup.end(), c.setup_s.begin(), c.setup_s.end());
    for (const Serve& s : c.serves)
      bytes_per_cube.push_back(ratio(1024.0 * s.rss_growth_kb, c.counts.cubes));
  }
  const Counts& k = cycles.back().counts;
  report.metric("jobs_per_sec", jobs_per_sec(cycles), "1/s");
  report.metric("setup_s", median(setup), "s");
  report.metric("peak_rss_mb", status_kb("VmHWM:") / 1024.0, "MB");
  report.metric("bytes_per_cube", median(bytes_per_cube), "B");
  report.metric("served_share", ratio(k.served, k.stream_arrivals), "ratio");
}

void per_layer_metrics(const std::vector<Cycle>& untraced,
                       const std::vector<Cycle>& traced, const Tracer& tracer,
                       const LayerValues& extras, Report& report) {
  const auto per_call = [&](const char* name) {
    return median(tracer.durations(name));
  };
  const auto per_cycle = [&](std::vector<const char*> names, bool self) {
    return median(tracer.cycle_sums(names, self));
  };
  const auto extra = [&](const std::string& name) {
    const auto it = extras.find(name);
    return it == extras.end() ? 0.0 : it->second;
  };
  const Counts& k = traced.back().counts;
  std::vector<double> growth;
  for (const Cycle& c : traced)
    for (const Serve& s : c.serves) growth.push_back(s.rss_growth_kb);
  const double serves = static_cast<double>(traced.back().serves.size());

  report.metric("core.size_s", per_call("core.size"), "s");
  report.metric("workload.demand_s", per_call("workload.demand"), "s");
  report.metric("trace.open_s", per_call("trace.open"), "s");
  report.metric("trace.scan_s", per_call("trace.scan"), "s");
  report.metric("trace.read_ns_per_record", extra("trace.read_ns_per_record"),
                "ns");
  report.metric("record.write_s",
                per_cycle({"record.write"}, false) / serves, "s");
  report.metric("record.bytes_per_job", ratio(k.audit_bytes, k.stream_arrivals),
                "B");
  report.metric("stream.ctor_s", per_call("stream.ctor"), "s");
  report.metric("stream.ingest_s",
                per_cycle({"stream.ingest"}, false) / serves, "s");
  report.metric("stream.finish_s",
                per_cycle({"stream.finish"}, false) / serves, "s");
  report.metric("stream.self_s",
                per_cycle({"stream.ingest", "stream.finish"}, true) / serves,
                "s");
  report.metric("stream.cubes", k.cubes, "count");
  report.metric("stream.arrivals_per_cube", ratio(k.stream_arrivals, k.cubes),
                "ratio");
  report.metric("stream.rss_growth_mb", median(growth) / 1024.0, "MB");
  report.metric("stream.latency_p99_ticks", k.latency_p99, "ticks");
  report.metric("stream.t2_speedup", extra("stream.t2_speedup"), "ratio");
  report.metric("stream.parallel_route_share",
                extra("stream.parallel_route_share"), "ratio");
  report.metric("online.replacements_per_kjob",
                ratio(1000.0 * k.replacements, k.stream_arrivals), "count");
  report.metric("online.comp_yield", ratio(k.replacements, k.comps_started),
                "ratio");
  const NetworkStats& n = k.network;
  report.metric("sim.msgs_per_job",
                ratio(static_cast<double>(n.total()), k.stream_arrivals),
                "count");
  report.metric("sim.flood_msgs_per_replacement",
                ratio(static_cast<double>(n.queries + n.replies + n.moves),
                      k.replacements),
                "count");
  report.metric("sim.heartbeats_per_job",
                ratio(static_cast<double>(n.heartbeats), k.stream_arrivals),
                "count");
  report.metric("sim.heartbeat_elided_share",
                ratio(static_cast<double>(n.heartbeat_skips),
                      static_cast<double>(n.heartbeats)),
                "ratio");
  report.metric("tracing_overhead",
                ratio(jobs_per_sec(traced), jobs_per_sec(untraced)), "ratio");
}

bool parse(int argc, char** argv, Options& opts) {
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const bool has_value = i + 1 < argc;
    if (a == "--workload" && has_value) {
      opts.workload = argv[++i];
    } else if (a == "--seed" && has_value) {
      opts.seed = std::stoull(argv[++i]);
    } else if (a == "--seconds" && has_value) {
      opts.seconds = std::stod(argv[++i]);
    } else if (a == "--trace" && has_value) {
      const std::string v = argv[++i];
      if (v != "0" && v != "1") return false;
      opts.trace = v == "1";
    } else if (a == "--work-dir" && has_value) {
      opts.work_dir = argv[++i];
    } else if (a == "--smoke") {
      opts.smoke = true;
    } else if (a == "--tamper-digest") {
      opts.tamper = true;
    } else {
      return false;
    }
  }
  return !opts.work_dir.empty() && opts.seconds > 0.0;
}

}  // namespace

int main(int argc, char** argv) {
  Options opts;
  try {
    if (!parse(argc, argv, opts)) throw std::invalid_argument("bad arguments");
  } catch (const std::exception&) {
    std::cerr << "usage: cmvrp_perfbench --workload "
                 "sparse-2d|flood-3d|replay-4d --seed N "
                 "--seconds S --trace 0|1 --work-dir DIR [--smoke] "
                 "[--tamper-digest]\n";
    return 2;
  }
  const std::unique_ptr<Workload> workload = make_workload(opts);
  if (workload == nullptr) {
    std::cerr << "unknown workload: " << opts.workload << "\n";
    return 2;
  }
  try {
    std::filesystem::create_directories(opts.work_dir);
    workload->generate();
    Report report;
    const std::uint64_t tamper = opts.tamper ? 1 : 0;
    Tracer off(false);
    if (!opts.trace) {
      end_to_end_metrics(
          run_cycles(*workload, {&off}, report, tamper, opts.seconds)[0],
          report);
    } else {
      // Untraced and traced cycles alternate over the window: their
      // jobs_per_sec ratio is the tracing overhead. Then the workload's
      // extra checked runs.
      Tracer tracer(true);
      const std::vector<std::vector<Cycle>> cycles = run_cycles(
          *workload, {&off, &tracer}, report, tamper, opts.seconds);
      const LayerValues extras = workload->traced_extras(tracer, report);
      Checks spans(0);
      const std::optional<std::string> bad = tracer.self_time_violation();
      spans.expect(!bad, "span self time out of range: " + bad.value_or(""));
      report.add_operation(spans);
      per_layer_metrics(cycles[0], cycles[1], tracer, extras, report);
      tracer.write(opts.work_dir + "/" + opts.workload + ".spans.json");
    }
    report.print();
    return report.correct() ? 0 : 1;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
