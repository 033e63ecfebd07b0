// Sharded streaming engine: the bit-identical-across-thread-counts
// contract, batch invariance, incremental ingest, and the worker pool.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstring>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "online/capacity_search.h"
#include "online/pairing.h"
#include "stream/engine.h"
#include "stream/pool.h"
#include "stream/shard.h"
#include "stream/slot_table.h"
#include "util/digest.h"
#include "util/hash.h"
#include "util/rng.h"
#include "workload/generators.h"

#include "stream_checks.h"

namespace cmvrp {
namespace {

// `count` uniform arrivals over [0, side)^dim in shuffled order.
std::vector<Job> uniform_stream(int dim, std::int64_t side, std::int64_t count,
                                std::uint64_t seed) {
  Point hi = Point::origin(dim);
  for (int a = 0; a < dim; ++a) hi[a] = side - 1;
  Rng rng(seed);
  const DemandMap d = uniform_demand(Box(Point::origin(dim), hi), count, rng);
  Rng order(seed + 1);
  return stream_from_demand(d, ArrivalOrder::kShuffled, order);
}

std::vector<Job> test_stream(std::int64_t box_side, std::int64_t count,
                             std::uint64_t seed) {
  return uniform_stream(2, box_side, count, seed);
}

StreamConfig test_config(double capacity, int threads,
                         std::int64_t batch = 64) {
  StreamConfig cfg;
  cfg.online.capacity = capacity;
  cfg.online.cube_side = 4;
  cfg.online.anchor = Point{0, 0};
  cfg.online.seed = 7;
  cfg.threads = threads;
  cfg.batch_size = batch;
  return cfg;
}

// --- the headline contract --------------------------------------------------

TEST(StreamDeterminism, IdenticalAcrossThreadCounts) {
  const auto jobs = test_stream(32, 600, 11);
  const StreamResult one = serve_stream(2, test_config(60.0, 1), jobs);
  ASSERT_GT(one.metrics.jobs_served, 0u);
  ASSERT_GT(one.cubes, 10u);  // the workload actually spans many cubes
  for (const int threads : {2, 8}) {
    const StreamResult many =
        serve_stream(2, test_config(60.0, threads), jobs);
    expect_identical(one, many);
  }
}

TEST(StreamDeterminism, IdenticalAcrossBatchSizes) {
  const auto jobs = test_stream(24, 400, 13);
  const StreamResult base = serve_stream(2, test_config(60.0, 2, 64), jobs);
  for (const std::int64_t batch : {1, 7, 1000}) {
    const StreamResult other =
        serve_stream(2, test_config(60.0, 2, batch), jobs);
    expect_identical(base, other);
  }
  EXPECT_EQ(base.batches, (400 + 63) / 64u);
}

TEST(StreamDeterminism, SeedChangesDelaysButNotOutcome) {
  const auto jobs = test_stream(24, 300, 17);
  StreamConfig a = test_config(60.0, 2);
  StreamConfig b = a;
  b.online.seed = 999;
  const StreamResult ra = serve_stream(2, a, jobs);
  const StreamResult rb = serve_stream(2, b, jobs);
  // Delay draws differ, but the protocol outcome is delay-invariant.
  EXPECT_EQ(ra.served_jobs, rb.served_jobs);
  EXPECT_EQ(ra.metrics.jobs_served, rb.metrics.jobs_served);
}

// --- engine mechanics -------------------------------------------------------

TEST(StreamEngine, IncrementalIngestMatchesOneShot) {
  const auto jobs = test_stream(24, 300, 23);
  const StreamResult oneshot = serve_stream(2, test_config(60.0, 2), jobs);

  StreamEngine engine(2, test_config(60.0, 2));
  const std::size_t cut = jobs.size() / 3;
  engine.ingest({jobs.begin(), jobs.begin() + static_cast<long>(cut)});
  engine.ingest({jobs.begin() + static_cast<long>(cut), jobs.end()});
  expect_identical(oneshot, engine.finish());
}

TEST(StreamEngine, EveryJobAccountedServedOrFailed) {
  const auto jobs = test_stream(8, 250, 29);
  // Deliberately undersized capacity: the cube pools must run dry.
  const StreamResult r = serve_stream(2, test_config(3.0, 2), jobs);
  EXPECT_GT(r.failed_jobs.size(), 0u);
  EXPECT_EQ(r.metrics.jobs_served, r.served_jobs.size());
  EXPECT_EQ(r.metrics.jobs_failed, r.failed_jobs.size());
  std::set<std::int64_t> all(r.served_jobs.begin(), r.served_jobs.end());
  all.insert(r.failed_jobs.begin(), r.failed_jobs.end());
  EXPECT_EQ(all.size(), jobs.size());  // disjoint and complete
}

TEST(StreamEngine, TheoryCapacityServesEverything) {
  // Lemma 3.3.1's capacity serves every job in every dimension, at every
  // thread count. The l = 3 and l = 4 streams are the scenario registry's
  // uniform3d/8x8x8/n1500 and uniform4d/6x6x6x6/n1000.
  struct Input {
    int dim;
    std::int64_t side;
    std::int64_t count;
    std::uint64_t seed;
  };
  for (const Input& in : {Input{2, 24, 400, 31}, Input{3, 8, 1500, 601},
                          Input{4, 6, 1000, 603}}) {
    const auto jobs = uniform_stream(in.dim, in.side, in.count, in.seed);
    StreamConfig cfg;
    cfg.online = default_online_config(demand_of_stream(jobs, in.dim), 7);
    for (const int threads : {1, 2, 4}) {
      cfg.threads = threads;
      const StreamResult r = serve_stream(in.dim, cfg, jobs);
      EXPECT_EQ(r.metrics.jobs_failed, 0u) << in.dim << "-D, " << threads;
      EXPECT_EQ(r.served_jobs.size(), jobs.size())
          << in.dim << "-D, " << threads;
    }
  }
}

// --- substrate: per-cube seeds and the worker pool --------------------------

TEST(CubeStreamSeed, DeterministicAndCornerSensitive) {
  const Point a{0, 0}, b{4, 0}, c{0, 4};
  EXPECT_EQ(cube_stream_seed(1, a), cube_stream_seed(1, a));
  EXPECT_NE(cube_stream_seed(1, a), cube_stream_seed(1, b));
  EXPECT_NE(cube_stream_seed(1, a), cube_stream_seed(1, c));
  EXPECT_NE(cube_stream_seed(1, a), cube_stream_seed(2, a));
}

TEST(WorkerPool, RunsEveryIndexConcurrently) {
  WorkerPool pool(4);
  std::atomic<int> sum{0};
  std::vector<std::atomic<int>> hits(4);
  for (int rep = 0; rep < 50; ++rep) {
    pool.run([&](int w) {
      sum += w;
      ++hits[static_cast<std::size_t>(w)];
    });
  }
  EXPECT_EQ(sum.load(), 50 * (0 + 1 + 2 + 3));
  for (const auto& h : hits) EXPECT_EQ(h.load(), 50);
}

TEST(WorkerPool, InlineWhenSingleWorker) {
  WorkerPool pool(1);
  int calls = 0;
  pool.run([&](int w) {
    EXPECT_EQ(w, 0);
    ++calls;  // no synchronization needed: runs on this thread
  });
  EXPECT_EQ(calls, 1);
}

TEST(WorkerPool, PropagatesWorkerException) {
  WorkerPool pool(3);
  EXPECT_THROW(pool.run([](int w) {
                 if (w == 1) throw std::runtime_error("boom");
               }),
               std::runtime_error);
  // The pool must survive a throwing generation.
  std::atomic<int> ok{0};
  pool.run([&](int) { ++ok; });
  EXPECT_EQ(ok.load(), 3);
}

// --- flat cube-slot routing -------------------------------------------------

TEST(CubeSlotTable, CornersMatchPairingIncludingNegatives) {
  // Both divide paths: side 3 exercises the floor-division fallback, side
  // 4 the power-of-two shift — negative coordinates included, where naive
  // integer division and floor division disagree.
  for (const std::int64_t side : {std::int64_t{3}, std::int64_t{4}}) {
    const CubePairing pairing(2, Point{0, 0}, side);
    const Box region(Point{-10, -10}, Point{10, 10});
    const CubeSlotTable table =
        CubeSlotTable::build(2, Point{0, 0}, side, region);
    ASSERT_FALSE(table.empty());
    std::set<std::uint32_t> seen;
    for (std::int64_t x = -10; x <= 10; ++x) {
      for (std::int64_t y = -10; y <= 10; ++y) {
        const Point p{x, y};
        Point corner = p;
        const std::uint32_t slot = table.slot_of_position(p, &corner);
        ASSERT_NE(slot, CubeSlotTable::kNoSlot);
        EXPECT_EQ(corner, pairing.cube_corner(p));
        EXPECT_EQ(table.corner_of(slot), corner);
        seen.insert(slot);
      }
    }
    // Every cube intersecting the region owns exactly one slot.
    EXPECT_EQ(seen.size(), table.size());
    // Outside the region: no slot, but the corner still comes out right.
    const Point far{1000, -1000};
    Point corner = far;
    EXPECT_EQ(table.slot_of_position(far, &corner), CubeSlotTable::kNoSlot);
    EXPECT_EQ(corner, pairing.cube_corner(far));
  }
}

TEST(CubeSlotTable, EmptyWithoutRegionOrWhenOversized) {
  EXPECT_TRUE(CubeSlotTable::build(2, Point{0, 0}, 4, std::nullopt).empty());
  // A region spanning more cubes than max_slots degrades to overflow
  // hashing instead of allocating without bound.
  const Box huge(Point{0, 0}, Point{1023, 1023});
  EXPECT_TRUE(CubeSlotTable::build(2, Point{0, 0}, 1, huge, 1000).empty());
}

TEST(StreamFlatState, RegionAndOverflowServeBitIdentically) {
  const auto jobs = test_stream(32, 600, 29);
  StreamConfig with = test_config(60.0, 2);
  with.region = Box(Point{0, 0}, Point{31, 31});
  const StreamResult flat = serve_stream(2, with, jobs);
  const StreamResult overflow = serve_stream(2, test_config(60.0, 2), jobs);
  EXPECT_GT(flat.cube_slots, 0u);
  EXPECT_EQ(overflow.cube_slots, 0u);
  expect_identical(flat, overflow);

  // A region covering only part of the stream routes the rest through
  // the overflow tier — still bit-identical.
  StreamConfig half = test_config(60.0, 2);
  half.region = Box(Point{0, 0}, Point{15, 31});
  expect_identical(flat, serve_stream(2, half, jobs));
}

TEST(StreamFlatState, ParallelRoutingPassMatchesSerial) {
  const auto jobs = test_stream(32, 4000, 31);
  StreamConfig serial = test_config(60.0, 1, 2048);
  serial.region = Box(Point{0, 0}, Point{31, 31});
  StreamConfig parallel = test_config(60.0, 4, 2048);
  parallel.region = serial.region;
  const StreamResult a = serve_stream(2, serial, jobs);
  const StreamResult b = serve_stream(2, parallel, jobs);
  // The big batches put the multi-shard run on the scatter/fold path.
  EXPECT_EQ(a.routed_parallel_batches, 0u);
  EXPECT_GT(b.routed_parallel_batches, 0u);
  expect_identical(a, b);
}

// --- latency timestamps and admission control -------------------------------

StreamConfig admission_config(double capacity, int threads, std::int64_t batch,
                              AdmissionPolicy admission) {
  StreamConfig cfg = test_config(capacity, threads, batch);
  cfg.online.admission = admission;
  cfg.online.queue_limit = 3;
  cfg.online.service_ticks = 4;
  cfg.online.sample_stride = 4;
  return cfg;
}

// A stream that saturates single cubes: runs of 40 consecutive arrivals
// at one point, hopping between three cubes — with service_ticks 4 and
// queue_limit 3, every run overflows its cube's backlog.
std::vector<Job> burst_stream(std::int64_t count) {
  const Point spots[] = {Point{1, 1}, Point{6, 2}, Point{2, 6}};
  std::vector<Job> jobs;
  for (std::int64_t i = 0; i < count; ++i)
    jobs.push_back({spots[(i / 40) % 3], i});
  return jobs;
}

TEST(StreamLatency, IdenticalAcrossThreadsAndBatches) {
  const auto jobs = test_stream(32, 600, 37);
  StreamConfig base = test_config(60.0, 1, 32);
  base.online.sample_stride = 4;
  const StreamResult ref = serve_stream(2, base, jobs);
  EXPECT_EQ(ref.latency.count(), ref.metrics.jobs_served);
  EXPECT_GT(ref.timeseries.samples, 0u);
  for (const int threads : {1, 2, 8}) {
    for (const std::int64_t batch : {32, 256}) {
      StreamConfig c = test_config(60.0, threads, batch);
      c.online.sample_stride = 4;
      expect_identical(ref, serve_stream(2, c, jobs));
      // Sampling only observes: unsampled, the run differs from the
      // reference in its timeseries alone.
      c.online.sample_stride = 0;
      StreamResult unsampled = serve_stream(2, c, jobs);
      EXPECT_EQ(unsampled.timeseries.samples, 0u);
      unsampled.timeseries = ref.timeseries;
      expect_identical(ref, unsampled);
    }
  }
}

TEST(StreamLatency, AdmissionOffLeavesNoDropsAndNoSamples) {
  const auto jobs = test_stream(16, 300, 41);
  const StreamResult r = serve_stream(2, test_config(40.0, 2), jobs);
  EXPECT_TRUE(r.shed_jobs.empty());
  EXPECT_EQ(r.jobs_shed, 0u);
  EXPECT_EQ(r.jobs_rejected, 0u);
  EXPECT_EQ(r.latency.count(), r.metrics.jobs_served);
  EXPECT_EQ(r.timeseries.samples, 0u);  // sampling is off by default
}

TEST(StreamAdmission, BoundedPoliciesPartitionAndStayDeterministic) {
  const auto jobs = burst_stream(240);
  for (const AdmissionPolicy policy :
       {AdmissionPolicy::kReject, AdmissionPolicy::kShed}) {
    const StreamResult r =
        serve_stream(2, admission_config(40.0, 1, 64, policy), jobs);
    // The bursts actually overflow the bounded backlogs.
    EXPECT_GT(r.jobs_shed + r.jobs_rejected, 0u);
    EXPECT_EQ(r.shed_jobs.size(), r.jobs_shed + r.jobs_rejected);
    EXPECT_EQ(r.latency.count(), r.metrics.jobs_served);
    // served + failed + shed partition the arrivals exactly.
    std::set<std::int64_t> all(r.served_jobs.begin(), r.served_jobs.end());
    all.insert(r.failed_jobs.begin(), r.failed_jobs.end());
    all.insert(r.shed_jobs.begin(), r.shed_jobs.end());
    EXPECT_EQ(all.size(), jobs.size());
    EXPECT_EQ(r.served_jobs.size() + r.failed_jobs.size() +
                  r.shed_jobs.size(),
              jobs.size());
    // The sampled backlog never exceeds the queue limit.
    EXPECT_LE(r.timeseries.max_queue_depth, 3);
    EXPECT_GT(r.timeseries.samples, 0u);
    // Thread count and batch size cannot move any of it.
    expect_identical(r,
                     serve_stream(2, admission_config(40.0, 4, 17, policy),
                                  jobs));
  }
}

TEST(StreamAdmission, PoliciesProduceDistinctOutcomes) {
  const auto jobs = burst_stream(240);
  const StreamResult unbounded = serve_stream(
      2, admission_config(40.0, 2, 64, AdmissionPolicy::kUnbounded), jobs);
  const StreamResult reject = serve_stream(
      2, admission_config(40.0, 2, 64, AdmissionPolicy::kReject), jobs);
  const StreamResult shed = serve_stream(
      2, admission_config(40.0, 2, 64, AdmissionPolicy::kShed), jobs);
  EXPECT_EQ(unbounded.jobs_shed + unbounded.jobs_rejected, 0u);
  EXPECT_GT(reject.jobs_rejected, 0u);
  EXPECT_EQ(reject.jobs_shed, 0u);
  EXPECT_GT(shed.jobs_shed, 0u);
  EXPECT_EQ(shed.jobs_rejected, 0u);
  // Reject drops the newest arrivals, shed evicts the oldest waiters —
  // under the same bursts they must drop different index sets.
  EXPECT_NE(reject.shed_jobs, shed.shed_jobs);
}

// --- the outcome sets -------------------------------------------------------
//
// Each shard logs its cubes' failed and dropped indices in processing
// order, the engine keeps the ingested indices as runs, and finish()
// merges the logs and takes them from the runs to get the served set.
// These pin what that bookkeeping must keep: sorted sets whatever the
// processing order, duplicate indices, and a finish() that can be
// repeated.

bool sorted(const std::vector<std::int64_t>& v) {
  return std::is_sorted(v.begin(), v.end());
}

TEST(StreamOutcomeLog, SecondFinishReportsEveryArrivalSinceConstruction) {
  struct Case {
    std::vector<Job> jobs;
    StreamConfig cfg;
  };
  // Undersized W, so both ingests fail some jobs; and bounded admission,
  // so each finish() drains backlogs into the logs.
  const Case cases[] = {
      {test_stream(16, 600, 47), test_config(3.0, 4, 32)},
      {burst_stream(240),
       admission_config(40.0, 4, 32, AdmissionPolicy::kShed)}};
  for (const Case& c : cases) {
    const std::size_t cut = c.jobs.size() / 2;
    StreamEngine engine(2, c.cfg);
    engine.ingest(c.jobs.data(), cut);
    const StreamResult first = engine.finish();
    engine.ingest(c.jobs.data() + cut, c.jobs.size() - cut);
    const StreamResult second = engine.finish();
    EXPECT_EQ(first.served_jobs.size() + first.failed_jobs.size() +
                  first.shed_jobs.size(),
              cut);
    EXPECT_GT(second.failed_jobs.size() + second.shed_jobs.size(), 0u);
    for (const StreamResult* r : {&first, &second})
      for (const auto* set : {&r->served_jobs, &r->failed_jobs, &r->shed_jobs})
        EXPECT_TRUE(sorted(*set));
    // The second result partitions the arrivals of both ingests...
    std::vector<std::int64_t> all = second.served_jobs;
    all.insert(all.end(), second.failed_jobs.begin(),
               second.failed_jobs.end());
    all.insert(all.end(), second.shed_jobs.begin(), second.shed_jobs.end());
    std::sort(all.begin(), all.end());
    std::vector<std::int64_t> arrivals;
    for (const Job& job : c.jobs) arrivals.push_back(job.index);
    std::sort(arrivals.begin(), arrivals.end());
    EXPECT_EQ(all, arrivals);
    // ...and keeps every outcome the first one reported.
    const auto contains = [](const std::vector<std::int64_t>& outer,
                             const std::vector<std::int64_t>& inner) {
      return std::includes(outer.begin(), outer.end(), inner.begin(),
                           inner.end());
    };
    EXPECT_TRUE(contains(second.served_jobs, first.served_jobs));
    EXPECT_TRUE(contains(second.failed_jobs, first.failed_jobs));
    EXPECT_TRUE(contains(second.shed_jobs, first.shed_jobs));
  }
}

TEST(StreamOutcomeLog, OutOfOrderRunsMergeSortedAtEveryThreadAndBatch) {
  // Runs a shard logs out of order: a stream whose indices descend, and
  // bounded admission, which serves queued jobs after later arrivals.
  std::vector<Job> descending = test_stream(8, 250, 53);
  for (std::size_t i = 0; i < descending.size(); ++i)
    descending[i].index = static_cast<std::int64_t>(descending.size() - i);
  struct Case {
    const std::vector<Job>* jobs;
    StreamConfig (*config)(int threads, std::int64_t batch);
  };
  const std::vector<Job> bursts = burst_stream(240);
  const Case cases[] = {
      {&descending,
       [](int t, std::int64_t b) { return test_config(3.0, t, b); }},
      {&bursts,
       [](int t, std::int64_t b) {
         return admission_config(40.0, t, b, AdmissionPolicy::kShed);
       }},
      {&bursts, [](int t, std::int64_t b) {
         return admission_config(40.0, t, b, AdmissionPolicy::kReject);
       }}};
  for (const Case& c : cases) {
    const StreamResult ref = serve_stream(2, c.config(1, 1), *c.jobs);
    EXPECT_GT(ref.failed_jobs.size() + ref.shed_jobs.size(), 0u);
    EXPECT_TRUE(sorted(ref.served_jobs));
    EXPECT_TRUE(sorted(ref.failed_jobs));
    EXPECT_TRUE(sorted(ref.shed_jobs));
    for (const int threads : {1, 2, 4})
      for (const std::int64_t batch : {1, 32, 256})
        expect_identical(ref, serve_stream(2, c.config(threads, batch),
                                           *c.jobs));
  }
}

TEST(StreamOutcomeLog, CubeOrderedStreamMatchesShuffled) {
  // By §3.2's decentralization a cube's outcome depends only on its own
  // arrival subsequence, so regrouping the stream by cube (a stable sort,
  // which keeps each cube's order) changes nothing but processing order.
  const auto shuffled = test_stream(12, 400, 59);
  const CubePairing pairing(2, Point{0, 0}, 4);
  std::vector<Job> grouped = shuffled;
  std::stable_sort(grouped.begin(), grouped.end(),
                   [&pairing](const Job& a, const Job& b) {
                     return pairing.cube_corner(a.position) <
                            pairing.cube_corner(b.position);
                   });
  // The premise: regrouped, the indices no longer ascend.
  ASSERT_FALSE(std::is_sorted(
      grouped.begin(), grouped.end(),
      [](const Job& a, const Job& b) { return a.index < b.index; }));
  for (const int threads : {1, 4}) {
    const StreamResult a = serve_stream(2, test_config(3.0, threads), shuffled);
    const StreamResult b = serve_stream(2, test_config(3.0, threads), grouped);
    EXPECT_GT(a.failed_jobs.size(), 0u);
    EXPECT_EQ(index_set_digest(a.served_jobs),
              index_set_digest(b.served_jobs));
    EXPECT_EQ(index_set_digest(a.failed_jobs),
              index_set_digest(b.failed_jobs));
    EXPECT_TRUE(a.metrics == b.metrics);
    EXPECT_EQ(a.counters.digest(), b.counters.digest());
    expect_identical(a, b);
  }
}

// The served/failed/dropped sets an observer sees, rebuilt from its
// JobOutcome stream and sorted on demand.
struct OutcomeSets : StreamObserver {
  std::vector<std::int64_t> served, failed, dropped;
  void on_batch(const JobOutcome* outcomes, std::size_t count) override {
    for (std::size_t i = 0; i < count; ++i) {
      const JobOutcome& o = outcomes[i];
      (o.kind == OutcomeKind::kServed   ? served
       : o.kind == OutcomeKind::kFailed ? failed
                                        : dropped)
          .push_back(o.job.index);
    }
  }
  void sort_all() {
    for (auto* set : {&served, &failed, &dropped})
      std::sort(set->begin(), set->end());
  }
};

TEST(StreamOutcomeLog, SetsMatchTheObserverOnEveryIndexShape) {
  // Each input is a list of segments ingested one after another, with
  // optional failure injections before each segment.
  struct Input {
    const char* name;
    std::vector<std::vector<Job>> segments;
    StreamConfig (*config)(int threads, std::int64_t batch);
    bool inject = false;
  };
  const auto undersized = [](int t, std::int64_t b) {
    return test_config(3.0, t, b);
  };
  const auto reindexed = [](std::vector<Job> jobs, auto index_of) {
    for (std::size_t i = 0; i < jobs.size(); ++i)
      jobs[i].index = index_of(static_cast<std::int64_t>(i));
    return jobs;
  };
  std::vector<Input> inputs;
  // Gaps of varying width between ascending indices.
  inputs.push_back({"gaps",
                    {reindexed(test_stream(16, 500, 61),
                               [](std::int64_t i) { return 3 * i + i / 7; })},
                    undersized});
  // Two segments that both count from 0: every index arrives twice.
  inputs.push_back({"restart",
                    {test_stream(16, 300, 62), test_stream(16, 300, 63)},
                    undersized});
  // Indices that descend.
  inputs.push_back(
      {"descending",
       {reindexed(test_stream(16, 400, 64),
                  [](std::int64_t i) { return 1000 - i; })},
       undersized});
  // Indices at both ends of int64: up to the largest, down to the
  // smallest.
  inputs.push_back(
      {"extremes",
       {reindexed(test_stream(16, 200, 67),
                  [](std::int64_t i) { return INT64_MAX - 199 + i; }),
        reindexed(test_stream(16, 200, 68),
                  [](std::int64_t i) { return INT64_MIN + 199 - i; })},
       undersized});
  // Bounded admission: finish() drains the backlogs into the sets.
  inputs.push_back({"shed", {burst_stream(240)}, [](int t, std::int64_t b) {
                      return admission_config(40.0, t, b,
                                              AdmissionPolicy::kShed);
                    }});
  inputs.push_back({"reject", {burst_stream(240)}, [](int t, std::int64_t b) {
                      return admission_config(40.0, t, b,
                                              AdmissionPolicy::kReject);
                    }});
  // Silent-done and break injections between segments.
  const std::vector<Job> injected = test_stream(16, 600, 65);
  inputs.push_back({"injections",
                    {std::vector<Job>(injected.begin(), injected.begin() + 300),
                     std::vector<Job>(injected.begin() + 300, injected.end())},
                    [](int t, std::int64_t b) {
                      return test_config(6.0, t, b);
                    },
                    true});
  for (const Input& in : inputs) {
    std::size_t arrivals = 0;
    for (const auto& segment : in.segments) arrivals += segment.size();
    std::optional<StreamResult> first;
    for (const int threads : {1, 2, 8}) {
      for (const std::int64_t batch : {32, 256}) {
        SCOPED_TRACE(testing::Message() << in.name << ", threads " << threads
                                        << ", batch " << batch);
        OutcomeSets seen;
        StreamEngine engine(2, in.config(threads, batch));
        engine.set_observer(&seen);
        Rng pick(66);
        for (const auto& segment : in.segments) {
          if (in.inject) {
            engine.inject_silent_done(
                Point{pick.next_int(0, 15), pick.next_int(0, 15)});
            engine.inject_break_after(
                Point{pick.next_int(0, 15), pick.next_int(0, 15)},
                pick.next_double(0.0, 0.5));
          }
          engine.ingest(segment);
        }
        const StreamResult r = engine.finish();
        seen.sort_all();
        EXPECT_EQ(r.served_jobs, seen.served);
        EXPECT_EQ(r.failed_jobs, seen.failed);
        EXPECT_EQ(r.shed_jobs, seen.dropped);
        EXPECT_EQ(r.served_jobs.size() + r.failed_jobs.size() +
                      r.shed_jobs.size(),
                  arrivals);
        EXPECT_EQ(r.metrics.jobs_served, r.served_jobs.size());
        if (!first) {
          // Every input fails or drops some of its arrivals.
          EXPECT_GT(r.failed_jobs.size() + r.shed_jobs.size(), 0u);
          first = r;
        } else {
          expect_identical(*first, r);
        }
      }
    }
  }
}

// --- the ascending-corner fold pin ------------------------------------------

TEST(StreamFoldOrder, PerCubeMetricsFoldReproducesResultBitForBit) {
  const auto jobs = test_stream(32, 600, 43);
  StreamEngine engine(2, test_config(60.0, 4));
  engine.ingest(jobs);
  const StreamResult r = engine.finish();
  const auto cubes = engine.per_cube_metrics();
  ASSERT_GT(cubes.size(), 10u);
  // The introspection is strictly ascending by corner — the documented
  // operand sequence of finish()'s fold.
  for (std::size_t i = 1; i < cubes.size(); ++i)
    EXPECT_TRUE(cubes[i - 1].first < cubes[i].first);
  OnlineMetrics ascending;
  for (const auto& [corner, m] : cubes) ascending.merge(m);
  // Bit-for-bit, double fields included: only this order is guaranteed
  // to reproduce result.metrics.
  EXPECT_TRUE(ascending == r.metrics);
}

TEST(StreamFoldOrder, MergeOrderMovesDoubleSums) {
  // Why the pin exists: OnlineMetrics::merge sums doubles, and float
  // addition is not associative — permuting the merge order of these
  // three operands provably changes the total.
  OnlineMetrics x, y, z;
  x.total_energy_spent = 0.1;
  y.total_energy_spent = 0.2;
  z.total_energy_spent = 0.3;
  OnlineMetrics xyz = x;
  xyz.merge(y);
  xyz.merge(z);
  OnlineMetrics zyx = z;
  zyx.merge(y);
  zyx.merge(x);
  EXPECT_NE(xyz.total_energy_spent, zyx.total_energy_spent);
}

// --- the lent transport ------------------------------------------------------
//
// A shard lends one event queue and one flood-clamp table to whichever
// cube it is serving. The loan must be invisible: a cube interleaved
// with others on one shard serves exactly as it does alone.

// Collects every outcome the engine reports, in report order.
struct OutcomeCollector : StreamObserver {
  std::vector<JobOutcome> outcomes;
  void on_batch(const JobOutcome* batch, std::size_t count) override {
    outcomes.insert(outcomes.end(), batch, batch + count);
  }
};

TEST(StreamLentTransport, InterleavedCubesServeAsIfAlone) {
  // Three 4x4 cubes on one shard; W = 8 is undersized, so every cube
  // floods. Cube (0,0) gets a 150-arrival head start, so when the three
  // interleave its clock runs hundreds of ticks ahead of the others' —
  // and its vehicle ids, like every cube's, are 0..15, so each cube's
  // flood clamps land on the same channel keys.
  const std::vector<Point> corners{Point{0, 0}, Point{4, 0}, Point{0, 4}};
  Rng rng(31);
  std::vector<Job> jobs;
  const auto arrive = [&](const Point& corner) {
    const Point p{corner[0] + rng.next_int(0, 3),
                  corner[1] + rng.next_int(0, 3)};
    jobs.push_back({p, static_cast<std::int64_t>(jobs.size())});
  };
  for (int i = 0; i < 150; ++i) arrive(corners[0]);
  for (int i = 0; i < 60; ++i)
    for (const Point& corner : corners) arrive(corner);

  const StreamConfig cfg = test_config(8.0, 1);
  OutcomeCollector shared_log;
  StreamEngine shared(2, cfg);
  shared.set_observer(&shared_log);
  shared.ingest(jobs);
  const StreamResult together = shared.finish();
  const auto shared_cubes = shared.per_cube_metrics();
  ASSERT_EQ(shared_cubes.size(), 3u);

  // The premise: the head start put cube (0,0)'s clock far ahead.
  SimTime lead_clock = 0;
  SimTime first_other = -1;
  for (const JobOutcome& o : shared_log.outcomes) {
    if (o.job.index < 150) lead_clock = std::max(lead_clock, o.timing.done_at);
    if (o.corner != corners[0] && first_other < 0)
      first_other = o.timing.arrived_at;
  }
  EXPECT_GE(lead_clock - first_other, 200);

  const CubePairing pairing(2, cfg.online.anchor, cfg.online.cube_side);
  std::vector<std::int64_t> served, failed;
  for (const auto& [corner, shared_metrics] : shared_cubes) {
    EXPECT_GT(shared_metrics.computations_started, 0u) << corner.to_string();
    std::vector<Job> alone_jobs;
    for (const Job& job : jobs)
      if (pairing.cube_corner(job.position) == corner)
        alone_jobs.push_back(job);
    OutcomeCollector alone_log;
    StreamEngine alone(2, cfg);
    alone.set_observer(&alone_log);
    alone.ingest(alone_jobs);
    const StreamResult r = alone.finish();
    const auto alone_cubes = alone.per_cube_metrics();
    ASSERT_EQ(alone_cubes.size(), 1u);
    EXPECT_EQ(alone_cubes[0].first, corner);
    EXPECT_TRUE(alone_cubes[0].second == shared_metrics) << corner.to_string();
    served.insert(served.end(), r.served_jobs.begin(), r.served_jobs.end());
    failed.insert(failed.end(), r.failed_jobs.begin(), r.failed_jobs.end());
    // Outcome by outcome, timings included, in the cube's own order.
    std::vector<JobOutcome> mine;
    for (const JobOutcome& o : shared_log.outcomes)
      if (o.corner == corner) mine.push_back(o);
    ASSERT_EQ(mine.size(), alone_log.outcomes.size()) << corner.to_string();
    for (std::size_t i = 0; i < mine.size(); ++i) {
      EXPECT_EQ(mine[i].job.index, alone_log.outcomes[i].job.index);
      EXPECT_EQ(mine[i].kind, alone_log.outcomes[i].kind);
      EXPECT_TRUE(mine[i].timing == alone_log.outcomes[i].timing)
          << corner.to_string() << " job " << mine[i].job.index;
    }
  }
  std::sort(served.begin(), served.end());
  std::sort(failed.begin(), failed.end());
  EXPECT_EQ(together.served_jobs, served);
  EXPECT_EQ(together.failed_jobs, failed);
}

// --- golden digests ---------------------------------------------------------
//
// Every other test here compares the engine with itself (threads vs
// threads, batch vs batch), so a self-consistent change to the event
// order would pass them all. These constants were recorded from the
// closure-scheduling event queue that preceded the typed calendar
// transport (src/sim/event_queue.h); they pin the exact (time,
// insertion) firing order, every delay draw, and everything downstream
// of both.

std::uint64_t double_bits(double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof bits);
  return bits;
}

// Folds every deterministic protocol output of one run into one word:
// service and computation counts, message counts by kind, travel, and
// the energy doubles' bit patterns.
std::uint64_t metrics_fingerprint(const OnlineMetrics& m) {
  std::uint64_t h = 0;
  for (const std::uint64_t v :
       {m.jobs_served, m.jobs_failed, m.replacements, m.computations_started,
        m.computations_failed, m.monitor_initiations, m.network.queries,
        m.network.replies, m.network.moves, m.network.heartbeats,
        m.network.heartbeat_skips, m.total_travel,
        double_bits(m.total_energy_spent), double_bits(m.max_energy_spent)})
    h = mix64(h ^ v);
  return h;
}

// The stream report adds the served/failed/shed sets, the latency
// histogram, and the Tier-A counters.
std::uint64_t stream_fingerprint(const StreamResult& r) {
  std::uint64_t h = metrics_fingerprint(r.metrics);
  for (const std::uint64_t v :
       {index_set_digest(r.served_jobs), index_set_digest(r.failed_jobs),
        index_set_digest(r.shed_jobs), r.latency.digest(),
        r.counters.digest()})
    h = mix64(h ^ v);
  return h;
}

StreamConfig pinned_config(int dim, double capacity, std::int64_t side,
                           std::int64_t stride, int threads) {
  StreamConfig cfg;
  cfg.online.capacity = capacity;
  cfg.online.cube_side = side;
  cfg.online.anchor = Point::origin(dim);
  cfg.online.seed = 11;
  cfg.online.monitor_stride = stride;
  cfg.online.obs.counters = true;
  cfg.threads = threads;
  return cfg;
}

TEST(GoldenDigest, FloodHeavy3D) {
  // W = 8 against a theory value of ~(4·27+3)·ω_c: Phase I runs
  // constantly, so nearly every delivery is a flood message.
  const auto jobs = uniform_stream(3, 12, 3456, 5);
  for (const int threads : {1, 2}) {
    const StreamResult r =
        serve_stream(3, pinned_config(3, 8.0, 4, 16, threads), jobs);
    EXPECT_EQ(r.metrics.jobs_served, 3456u) << threads;
    EXPECT_EQ(r.metrics.replacements, 366u) << threads;
    EXPECT_EQ(r.metrics.network.total(), 408686u) << threads;
    EXPECT_EQ(stream_fingerprint(r), 10413447102977357427ULL) << threads;
  }
}

TEST(GoldenDigest, MonitoringHeavy4D) {
  // Stride 1 settles the §3.2.5 ring after every arrival; silent-done
  // vehicles leave their pairs to ring-initiated computations.
  const auto jobs = uniform_stream(4, 6, 1296, 9);
  for (const int threads : {1, 2}) {
    StreamEngine engine(4, pinned_config(4, 6.0, 2, 1, threads));
    for (const Point& home : {Point{0, 0, 0, 0}, Point{2, 2, 2, 2},
                              Point{4, 0, 4, 0}})
      engine.inject_silent_done(home);
    engine.ingest(jobs);
    const StreamResult r = engine.finish();
    EXPECT_GT(r.metrics.monitor_initiations, 0u) << threads;
    EXPECT_EQ(r.metrics.jobs_served, 1296u) << threads;
    EXPECT_EQ(r.metrics.network.total(), 40458u) << threads;
    EXPECT_EQ(stream_fingerprint(r), 10055833584392412749ULL) << threads;
  }
}

TEST(GoldenDigest, RingHeavyStride1) {
  // An undersized fleet (W = 5 on side-6 cubes) whose §3.2.5 ring keeps
  // changing: silent-done homes leave pairs to ring-initiated searches,
  // and break-after injections between ingest segments (one of them at
  // longevity 0) kill vehicles mid-stream. Recorded on the engine that
  // rescanned the whole ring every round.
  const auto jobs = uniform_stream(2, 24, 3000, 23);
  constexpr std::size_t kSegments = 5;
  struct Pinned {
    std::int64_t stride;
    std::uint64_t served;
    std::uint64_t messages;
    std::uint64_t fingerprint;
  };
  for (const Pinned& pin : {Pinned{1, 1321, 875614, 12462715684536538314ULL},
                            Pinned{3, 1330, 512479, 15591254774081063069ULL}}) {
    const std::int64_t stride = pin.stride;
    for (const int threads : {1, 2}) {
      StreamEngine engine(2, pinned_config(2, 5.0, 6, stride, threads));
      for (const Point& home : {Point{0, 0}, Point{7, 3}, Point{14, 20},
                                Point{23, 11}, Point{9, 16}, Point{18, 5}})
        engine.inject_silent_done(home);
      Rng pick(29);
      for (std::size_t s = 0; s < kSegments; ++s) {
        for (int k = 0; k < 4; ++k) {
          const Point home{pick.next_int(0, 23), pick.next_int(0, 23)};
          const double longevity =
              s == 2 && k == 0 ? 0.0 : pick.next_double(0.2, 0.9);
          engine.inject_break_after(home, longevity);
        }
        const std::size_t begin = jobs.size() * s / kSegments;
        const std::size_t end = jobs.size() * (s + 1) / kSegments;
        engine.ingest(jobs.data() + begin, end - begin);
      }
      const StreamResult r = engine.finish();
      SCOPED_TRACE(testing::Message()
                   << "stride " << stride << ", threads " << threads);
      EXPECT_GT(r.metrics.monitor_initiations, 0u);
      EXPECT_GT(r.metrics.jobs_failed, 0u);
      EXPECT_EQ(r.metrics.jobs_served, pin.served);
      EXPECT_EQ(r.metrics.network.total(), pin.messages);
      EXPECT_EQ(stream_fingerprint(r), pin.fingerprint);
    }
  }
}

TEST(GoldenDigest, ChromeTraceBytes) {
  const auto jobs = test_stream(16, 400, 17);
  StreamConfig cfg = test_config(8.0, 1);
  cfg.online.obs.spans = true;
  StreamEngine engine(2, cfg);
  engine.ingest(jobs);
  const StreamResult r = engine.finish();
  ASSERT_GT(r.counters.spans_emitted, 0u);
  std::ostringstream chrome;
  export_chrome_trace(chrome, 2, engine.span_sources(), 0.0);
  // FNV-1a over the exported bytes (wall_ms pinned to 0).
  std::uint64_t h = 1469598103934665603ULL;
  for (const char c : chrome.str())
    h = (h ^ static_cast<unsigned char>(c)) * 1099511628211ULL;
  EXPECT_EQ(chrome.str().size(), 1597538u);
  EXPECT_EQ(h, 16168230527240763727ULL);
}

// --- the cube record --------------------------------------------------------

TEST(HeartbeatTable, RingRebuildsKeepItWithinTwiceTheRing) {
  // GoldenDigest.RingHeavyStride1's input, served cube by cube on
  // hand-built cubes: its ring keeps changing, so without the bound the
  // table would keep every channel the ring ever beaconed. While a cube's
  // ring is not stale nothing was delivered since the last rebuild, so
  // the clock is the rebuild's and the bound must hold as it left it.
  const auto jobs = uniform_stream(2, 24, 3000, 23);
  constexpr std::size_t kSegments = 5;
  for (const auto& [stride, served] :
       {std::pair<std::int64_t, std::uint64_t>{1, 1321}, {3, 1330}}) {
    SCOPED_TRACE(testing::Message() << "stride " << stride);
    const OnlineConfig cfg = pinned_config(2, 5.0, 6, stride, 1).online;
    const CubePairing pairing(2, cfg.anchor, cfg.cube_side);
    std::map<Point, std::unique_ptr<TestCube>> cubes;
    const auto cube_of = [&](const Point& p) -> TestCube& {
      auto& cube = cubes[pairing.cube_corner(p)];
      if (cube == nullptr)
        cube = std::make_unique<TestCube>(2, cfg, pairing.cube_corner(p));
      return *cube;
    };
    std::uint64_t checks = 0, shrinks = 0;
    std::map<Point, std::size_t> last_size;
    const auto check = [&](TestCube& cube) {
      const FleetCore& core = cube.server.core();
      const Network& net = cube.server.network();
      if (net.heartbeat_channels() < last_size[core.corner()]) ++shrinks;
      last_size[core.corner()] = net.heartbeat_channels();
      if (core.ring_stale()) return;
      ++checks;
      EXPECT_LE(net.heartbeat_channels(),
                2 * core.ring_beats() + net.heartbeat_clamps_ahead());
    };
    for (const Point& home : {Point{0, 0}, Point{7, 3}, Point{14, 20},
                              Point{23, 11}, Point{9, 16}, Point{18, 5}})
      cube_of(home).server.inject_silent_done(home);
    Rng pick(29);
    for (std::size_t s = 0; s < kSegments; ++s) {
      for (int k = 0; k < 4; ++k) {
        const Point home{pick.next_int(0, 23), pick.next_int(0, 23)};
        const double longevity =
            s == 2 && k == 0 ? 0.0 : pick.next_double(0.2, 0.9);
        cube_of(home).server.inject_break_after(home, longevity);
      }
      for (std::size_t i = jobs.size() * s / kSegments;
           i < jobs.size() * (s + 1) / kSegments; ++i) {
        TestCube& cube = cube_of(jobs[i].position);
        cube.serve(jobs[i]);
        check(cube);
      }
    }
    std::uint64_t total_served = 0;
    for (auto& [corner, cube] : cubes) {
      cube->finish();
      check(*cube);
      total_served += cube->server.metrics().jobs_served;
    }
    // The same serving as the engine's, and the bound was exercised.
    EXPECT_EQ(total_served, served);
    EXPECT_GT(checks, 1000u);
    EXPECT_GT(shrinks, 0u);
  }
}

TEST(CubeRecord, RegionIndicesAreCheckedInDebugBuilds) {
#ifdef NDEBUG
  GTEST_SKIP() << "region indices are checked only without NDEBUG";
#else
  TestCube cube(2, test_config(10.0, 1).online, Point{0, 0});
  const auto fleet = cube.server.core().vehicles();
  ASSERT_EQ(fleet.size(), 16u);
  EXPECT_EQ(fleet[15].id, 15u);
  EXPECT_THROW(static_cast<void>(fleet[16]), check_error);
#endif
}

}  // namespace
}  // namespace cmvrp
