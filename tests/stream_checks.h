// Assertions and drivers shared by the stream-engine test suites.
#pragma once

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <vector>

#include "stream/engine.h"
#include "stream/shard.h"
#include "workload/generators.h"

namespace cmvrp {

// Every deterministic field of two runs agrees: the engine's contract
// across thread counts, batch sizes, routing tiers and replay paths.
inline void expect_identical(const StreamResult& a, const StreamResult& b) {
  EXPECT_TRUE(a.metrics == b.metrics);
  EXPECT_EQ(a.served_jobs, b.served_jobs);
  EXPECT_EQ(a.failed_jobs, b.failed_jobs);
  EXPECT_EQ(a.shed_jobs, b.shed_jobs);
  EXPECT_EQ(a.jobs_shed, b.jobs_shed);
  EXPECT_EQ(a.jobs_rejected, b.jobs_rejected);
  EXPECT_TRUE(a.latency == b.latency);
  EXPECT_EQ(a.latency.digest(), b.latency.digest());
  EXPECT_TRUE(a.timeseries == b.timeseries);
  EXPECT_TRUE(a.counters == b.counters);
  EXPECT_EQ(a.counters.digest(), b.counters.digest());
  EXPECT_EQ(a.cubes, b.cubes);
  EXPECT_EQ(a.jobs_ingested, b.jobs_ingested);
}

// One hand-built cube with everything a stream engine would lend it:
// the cube constants, a transport and an outcome log, owned here so they
// outlive the server.
struct TestCube {
  TestCube(int dim, const OnlineConfig& config, const Point& corner)
      : params(dim, config),
        transport(config.max_message_delay,
                  static_cast<std::size_t>(params.pairing.cube_volume())),
        block(CubeServer::create(params, corner, transport)),
        server(*block) {}

  void serve(const Job& job) { server.serve(job, log, nullptr); }
  void finish() { server.finish(log, nullptr); }

  CubeParams params;
  Transport transport;
  OutcomeLog log;
  CubeServer::Ptr block;
  CubeServer& server;
};

// Serves `jobs` (all inside the cube) and finishes the cube.
inline void serve_all(TestCube& cube, const std::vector<Job>& jobs) {
  for (const Job& job : jobs) cube.serve(job);
  cube.finish();
}

// `count` arrivals at `p`, indexed from `first`.
inline std::vector<Job> repeated(const Point& p, int count,
                                 std::int64_t first = 0) {
  std::vector<Job> jobs;
  for (int i = 0; i < count; ++i) jobs.push_back({p, first + i});
  return jobs;
}

}  // namespace cmvrp
