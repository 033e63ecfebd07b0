#include "exp/scenario.h"

#include <utility>

#include "util/check.h"
#include "util/rng.h"
#include "workload/stream_gen.h"

namespace cmvrp {

void ScenarioRegistry::add(Scenario s) {
  CMVRP_CHECK_MSG(!s.name.empty(), "scenario needs a name");
  CMVRP_CHECK_MSG(s.demand != nullptr,
                  "scenario " << s.name << " needs a demand factory");
  CMVRP_CHECK_MSG(s.jobs != nullptr,
                  "scenario " << s.name << " needs a jobs factory");
  CMVRP_CHECK_MSG(find(s.name) == nullptr,
                  "duplicate scenario name: " << s.name);
  scenarios_.push_back(std::move(s));
}

const Scenario* ScenarioRegistry::find(const std::string& name) const {
  for (const auto& s : scenarios_)
    if (s.name == name) return &s;
  return nullptr;
}

const Scenario& ScenarioRegistry::at(const std::string& name) const {
  const Scenario* s = find(name);
  CMVRP_CHECK_MSG(s != nullptr, "unknown scenario: " << name);
  return *s;
}

std::vector<const Scenario*> ScenarioRegistry::match(
    const std::string& filter) const {
  std::vector<const Scenario*> out;
  for (const auto& s : scenarios_) {
    if (filter.empty() || s.name.find(filter) != std::string::npos ||
        s.generator.find(filter) != std::string::npos)
      out.push_back(&s);
  }
  return out;
}

std::vector<std::string> ScenarioRegistry::names() const {
  std::vector<std::string> out;
  out.reserve(scenarios_.size());
  for (const auto& s : scenarios_) out.push_back(s.name);
  return out;
}

namespace {

// Demand-native scenario: jobs are the demand expanded with a fixed
// arrival order and order seed.
Scenario from_demand(std::string name, std::string generator,
                     std::string description, Box region,
                     std::function<DemandMap()> demand,
                     std::uint64_t order_seed,
                     ArrivalOrder order = ArrivalOrder::kShuffled) {
  Scenario s;
  s.name = std::move(name);
  s.generator = std::move(generator);
  s.description = std::move(description);
  s.dim = region.dim();
  s.region = region;
  s.demand = demand;
  s.jobs = [demand, order, order_seed] {
    Rng rng(order_seed);
    return stream_from_demand(demand(), order, rng);
  };
  return s;
}

// Stream-native scenario: the demand map is induced by the stream.
Scenario from_stream(std::string name, std::string generator,
                     std::string description, Box region,
                     std::function<std::vector<Job>()> jobs) {
  Scenario s;
  s.name = std::move(name);
  s.generator = std::move(generator);
  s.description = std::move(description);
  s.dim = region.dim();
  s.region = region;
  s.jobs = jobs;
  const int dim = region.dim();
  s.demand = [jobs, dim] { return demand_of_stream(jobs(), dim); };
  return s;
}

// The heavy-tailed grid workload of the Algorithm 1 benches: ~n demand
// points with demand uniform in [1, 50], dropped on [0, n)^2.
DemandMap grid_workload(std::int64_t n, std::uint64_t seed) {
  Rng rng(seed);
  DemandMap d(2);
  for (std::int64_t k = 0; k < n; ++k) {
    const double amount = static_cast<double>(rng.next_int(1, 50));
    d.add(Point{rng.next_int(0, n - 1), rng.next_int(0, n - 1)}, amount);
  }
  return d;
}

ScenarioRegistry build_builtin() {
  ScenarioRegistry r;

  // --- uniform ------------------------------------------------------------
  r.add(from_demand("uniform/8x8/n32", "uniform",
                    "32 unit demands, 8x8 box (smoke-sized)",
                    Box(Point{0, 0}, Point{7, 7}),
                    [] {
                      Rng rng(1);
                      return uniform_demand(Box(Point{0, 0}, Point{7, 7}), 32,
                                            rng);
                    },
                    2));
  r.add(from_demand("uniform/12x12/n60", "uniform",
                    "60 unit demands, 12x12 box (Thm 1.4.1 bench case)",
                    Box(Point{0, 0}, Point{11, 11}),
                    [] {
                      Rng rng(101);
                      return uniform_demand(Box(Point{0, 0}, Point{11, 11}),
                                            60, rng);
                    },
                    1101));
  r.add(from_demand("uniform/10x10/n80", "uniform",
                    "80 unit demands, 10x10 box (Thm 1.4.2 bench case)",
                    Box(Point{0, 0}, Point{9, 9}),
                    [] {
                      Rng rng(201);
                      return uniform_demand(Box(Point{0, 0}, Point{9, 9}), 80,
                                            rng);
                    },
                    202));
  r.add(from_demand("uniform/10x10/n40", "uniform",
                    "40 unit demands, 10x10 box (Clarke-Wright case)",
                    Box(Point{0, 0}, Point{9, 9}),
                    [] {
                      Rng rng(305);
                      return uniform_demand(Box(Point{0, 0}, Point{9, 9}), 40,
                                            rng);
                    },
                    1305));
  r.add(from_demand("uniform/10x10/n70", "uniform",
                    "70 unit demands, 10x10 box (baselines bench case)",
                    Box(Point{0, 0}, Point{9, 9}),
                    [] {
                      Rng rng(301);
                      return uniform_demand(Box(Point{0, 0}, Point{9, 9}), 70,
                                            rng);
                    },
                    302));

  // --- clustered ----------------------------------------------------------
  r.add(from_demand("clustered/16x16/c3/n80", "clustered",
                    "3 Gaussian hotspots, 80 demands, sigma 1.5",
                    Box(Point{0, 0}, Point{15, 15}),
                    [] {
                      Rng rng(102);
                      return clustered_demand(Box(Point{0, 0}, Point{15, 15}),
                                              3, 80, 1.5, rng);
                    },
                    1102));
  r.add(from_demand("clustered/12x12/c2/n90", "clustered",
                    "2 hotspots, 90 demands, sigma 1.2 (online case)",
                    Box(Point{0, 0}, Point{11, 11}),
                    [] {
                      Rng rng(203);
                      return clustered_demand(Box(Point{0, 0}, Point{11, 11}),
                                              2, 90, 1.2, rng);
                    },
                    204));
  r.add(from_demand("clustered/12x12/c2/n80", "clustered",
                    "2 hotspots, 80 demands, sigma 1.0 (baselines case)",
                    Box(Point{0, 0}, Point{11, 11}),
                    [] {
                      Rng rng(303);
                      return clustered_demand(Box(Point{0, 0}, Point{11, 11}),
                                              2, 80, 1.0, rng);
                    },
                    304));

  // --- line / point / square / ridge (Fig 2.1 shapes) ---------------------
  r.add(from_demand("line/len24/d40", "line",
                    "demand 40 on every point of a length-24 line",
                    Box(Point{0, 0}, Point{23, 0}),
                    [] { return line_demand(24, 40.0, Point{0, 0}); }, 1108));
  r.add(from_demand(
      "line/len12/d8/rr", "line",
      "demand 8 on a length-12 line, round-robin arrivals (online case)",
      Box(Point{0, 0}, Point{11, 0}),
      [] { return line_demand(12, 8.0, Point{0, 0}); }, 205,
      ArrivalOrder::kRoundRobin));
  r.add(from_demand("point/d300", "point", "demand 300 at the single point (5,5)",
                    Box(Point{5, 5}, Point{5, 5}),
                    [] { return point_demand(300.0, Point{5, 5}); }, 1110));
  r.add(from_demand("square/a6/d25", "square",
                    "demand 25 on every point of a 6x6 square",
                    Box(Point{0, 0}, Point{5, 5}),
                    [] { return square_demand(6, 25.0, Point{0, 0}); }, 1111));
  r.add(from_demand("ridge/12x12/p12", "ridge",
                    "fault-line decay demand, peak 12",
                    Box(Point{0, 0}, Point{11, 11}),
                    [] {
                      Rng rng(103);
                      return ridge_demand(Box(Point{0, 0}, Point{11, 11}),
                                          12.0, rng);
                    },
                    1103));

  // --- stream-native: bursts, smart dust, alternating pairs ---------------
  r.add(from_stream("burst/p4x4/n120", "burst",
                    "120 jobs arriving at the single point (4,4)",
                    Box(Point{0, 0}, Point{9, 9}), [] {
                      std::vector<Job> jobs;
                      for (int i = 0; i < 120; ++i)
                        jobs.push_back({Point{4, 4}, i});
                      return jobs;
                    }));
  r.add(from_stream("burst/p4x4/n90", "burst",
                    "90 jobs at (4,4) (baselines case)",
                    Box(Point{0, 0}, Point{9, 9}), [] {
                      std::vector<Job> jobs;
                      for (int i = 0; i < 90; ++i)
                        jobs.push_back({Point{4, 4}, i});
                      return jobs;
                    }));
  r.add(from_stream("smartdust/12x12/n150", "smartdust",
                    "150 random-walk events, 5% jumps (online case)",
                    Box(Point{0, 0}, Point{11, 11}), [] {
                      Rng rng(206);
                      return smart_dust_stream(Box(Point{0, 0}, Point{11, 11}),
                                               150, 0.05, rng);
                    }));
  r.add(from_stream("smartdust/16x16/n200", "smartdust",
                    "200 random-walk events, 5% jumps (ablations case)",
                    Box(Point{0, 0}, Point{15, 15}), [] {
                      Rng rng(77);
                      return smart_dust_stream(Box(Point{0, 0}, Point{15, 15}),
                                               200, 0.05, rng);
                    }));
  r.add(from_stream("alternating/len8/n40", "alternating",
                    "the Ch. 4 two-point alternating stream, 40 jobs",
                    Box(Point{0, 0}, Point{8, 0}), [] {
                      return alternating_stream(Point{0, 0}, Point{8, 0}, 40);
                    }));

  // --- streaming-engine workloads (`stream --scenario`, stream_scaling) --
  // Large shuffled uniform streams: arrivals interleave across many cubes,
  // which is what gives the sharded engine parallel work.
  r.add(from_demand("uniform/32x32/n2000", "uniform",
                    "2000 unit demands, 32x32 box (small stream case)",
                    Box(Point{0, 0}, Point{31, 31}),
                    [] {
                      Rng rng(401);
                      return uniform_demand(Box(Point{0, 0}, Point{31, 31}),
                                            2000, rng);
                    },
                    402));
  r.add(from_demand("uniform/64x64/n20000", "uniform",
                    "20000 unit demands, 64x64 box (stream scaling case)",
                    Box(Point{0, 0}, Point{63, 63}),
                    [] {
                      Rng rng(403);
                      return uniform_demand(Box(Point{0, 0}, Point{63, 63}),
                                            20000, rng);
                    },
                    404));

  // --- higher dimensions (l = 3 and l = 4; Point::kMaxDim = 4) ------------
  r.add(from_demand("uniform3d/6x6x6/n48", "uniform3d",
                    "48 unit demands in a 6^3 box (l = 3 sweep case)",
                    Box(Point{0, 0, 0}, Point{5, 5, 5}),
                    [] {
                      Rng rng(501);
                      return uniform_demand(
                          Box(Point{0, 0, 0}, Point{5, 5, 5}), 48, rng);
                    },
                    502));
  r.add(from_demand("clustered3d/8x8x8/c2/n60", "clustered3d",
                    "2 Gaussian hotspots in an 8^3 box, 60 demands",
                    Box(Point{0, 0, 0}, Point{7, 7, 7}),
                    [] {
                      Rng rng(503);
                      return clustered_demand(
                          Box(Point{0, 0, 0}, Point{7, 7, 7}), 2, 60, 1.2,
                          rng);
                    },
                    504));
  r.add(from_demand("point3d/d60", "point3d",
                    "demand 60 at the single point (2,2,2)",
                    Box(Point{2, 2, 2}, Point{2, 2, 2}),
                    [] { return point_demand(60.0, Point{2, 2, 2}); }, 505));
  r.add(from_demand("uniform4d/4x4x4x4/n32", "uniform4d",
                    "32 unit demands in a 4^4 box (l = 4 sweep case)",
                    Box(Point{0, 0, 0, 0}, Point{3, 3, 3, 3}),
                    [] {
                      Rng rng(506);
                      return uniform_demand(
                          Box(Point{0, 0, 0, 0}, Point{3, 3, 3, 3}), 32,
                          rng);
                    },
                    507));
  r.add(from_demand("point4d/d40", "point4d",
                    "demand 40 at the single point (1,1,1,1)",
                    Box(Point{1, 1, 1, 1}, Point{1, 1, 1, 1}),
                    [] { return point_demand(40.0, Point{1, 1, 1, 1}); },
                    508));

  // --- higher-dimension *stream* scenarios (stream_scaling's obs and dims
  // sections; dim_sweep covers offline+online; these give the engine ℓ =
  // 3/4 work) ----------------------------------------------------------
  r.add(from_demand("uniform3d/8x8x8/n1500", "uniform3d",
                    "1500 unit demands in an 8^3 box (small stream, l = 3)",
                    Box(Point{0, 0, 0}, Point{7, 7, 7}),
                    [] {
                      Rng rng(601);
                      return uniform_demand(
                          Box(Point{0, 0, 0}, Point{7, 7, 7}), 1500, rng);
                    },
                    602));
  r.add(from_demand("uniform4d/6x6x6x6/n1000", "uniform4d",
                    "1000 unit demands in a 6^4 box (small stream, l = 4)",
                    Box(Point{0, 0, 0, 0}, Point{5, 5, 5, 5}),
                    [] {
                      Rng rng(603);
                      return uniform_demand(
                          Box(Point{0, 0, 0, 0}, Point{5, 5, 5, 5}), 1000,
                          rng);
                    },
                    604));
  r.add(from_demand("uniform3d/16x16x16/n8000", "uniform3d",
                    "8000 unit demands in a 16^3 box (stream scaling, l = 3)",
                    Box(Point{0, 0, 0}, Point{15, 15, 15}),
                    [] {
                      Rng rng(605);
                      return uniform_demand(
                          Box(Point{0, 0, 0}, Point{15, 15, 15}), 8000, rng);
                    },
                    606));
  r.add(from_demand("uniform4d/8x8x8x8/n4000", "uniform4d",
                    "4000 unit demands in an 8^4 box (stream scaling, l = 4)",
                    Box(Point{0, 0, 0, 0}, Point{7, 7, 7, 7}),
                    [] {
                      Rng rng(607);
                      return uniform_demand(
                          Box(Point{0, 0, 0, 0}, Point{7, 7, 7, 7}), 4000,
                          rng);
                    },
                    608));

  // --- streaming adversarial generators (workload/stream_gen.h) -----------
  // The same sink-based generators that emit straight into trace files;
  // collected here so suites can name them. Spans are cubes·side per axis.
  r.add(from_stream("rrboundary/s4c8/n4000", "rrboundary",
                    "round-robin across cube walls, side 4, 8 cubes/axis",
                    Box(Point{0, 0}, Point{31, 31}), [] {
                      return collect_jobs([](const JobSink& sink) {
                        boundary_round_robin_stream(2, 4, 8, 4000, sink);
                      });
                    }));
  r.add(from_stream("rrboundary3d/s4c4/n3000", "rrboundary3d",
                    "round-robin across cube walls in 3-D, side 4, 4 cubes",
                    Box(Point{0, 0, 0}, Point{15, 15, 15}), [] {
                      return collect_jobs([](const JobSink& sink) {
                        boundary_round_robin_stream(3, 4, 4, 3000, sink);
                      });
                    }));
  r.add(from_stream("hotspot/s4c8/n4000/b64", "hotspot",
                    "bursty hotspot migration, bursts of 64 across 64 cubes",
                    Box(Point{0, 0}, Point{31, 31}), [] {
                      return collect_jobs([](const JobSink& sink) {
                        Rng rng(611);
                        bursty_hotspot_stream(2, 4, 8, 4000, 64, rng, sink);
                      });
                    }));
  r.add(from_stream("hotspot3d/s4c4/n2400/b48", "hotspot3d",
                    "bursty hotspot migration in 3-D, bursts of 48",
                    Box(Point{0, 0, 0}, Point{15, 15, 15}), [] {
                      return collect_jobs([](const JobSink& sink) {
                        Rng rng(612);
                        bursty_hotspot_stream(3, 4, 4, 2400, 48, rng, sink);
                      });
                    }));
  r.add(from_stream("hotspot4d/s2c3/n1200/b32", "hotspot4d",
                    "bursty hotspot migration in 4-D, bursts of 32",
                    Box(Point{0, 0, 0, 0}, Point{5, 5, 5, 5}), [] {
                      return collect_jobs([](const JobSink& sink) {
                        Rng rng(613);
                        bursty_hotspot_stream(4, 2, 3, 1200, 32, rng, sink);
                      });
                    }));
  r.add(from_stream("gradient/32x32/n4000/sg2", "gradient",
                    "drifting-gradient arrivals, sigma 2",
                    Box(Point{0, 0}, Point{31, 31}), [] {
                      return collect_jobs([](const JobSink& sink) {
                        Rng rng(614);
                        drifting_gradient_stream(
                            Box(Point{0, 0}, Point{31, 31}), 4000, 2.0, rng,
                            sink);
                      });
                    }));
  r.add(from_stream("heavytail2d/s4c8/n4000/a1.2", "heavytail2d",
                    "Pareto(1.2) dwell hotspot migration, 64 cubes",
                    Box(Point{0, 0}, Point{31, 31}), [] {
                      return collect_jobs([](const JobSink& sink) {
                        Rng rng(616);
                        heavy_tailed_hotspot_stream(2, 4, 8, 4000, 1.2, rng,
                                                    sink);
                      });
                    }));
  // Saturating overload workloads (admission-control suites): the same
  // adversarial generators squeezed into 4 cubes, so bursts dwarf any
  // bounded backlog and a low-capacity fleet sits at the §3.2 phase
  // transition — these are the streams that actually shed/reject.
  r.add(from_stream("hotspot/s4c2/n2000/b128", "hotspot",
                    "saturating hotspot: bursts of 128 into only 4 cubes",
                    Box(Point{0, 0}, Point{7, 7}), [] {
                      return collect_jobs([](const JobSink& sink) {
                        Rng rng(618);
                        bursty_hotspot_stream(2, 4, 2, 2000, 128, rng, sink);
                      });
                    }));
  r.add(from_stream("heavytail2d/s4c2/n2000/a1.1", "heavytail2d",
                    "saturating Pareto(1.1) dwell hotspot, only 4 cubes",
                    Box(Point{0, 0}, Point{7, 7}), [] {
                      return collect_jobs([](const JobSink& sink) {
                        Rng rng(619);
                        heavy_tailed_hotspot_stream(2, 4, 2, 2000, 1.1, rng,
                                                    sink);
                      });
                    }));
  r.add(from_stream("heavytail3d/s4c4/n2400/a1.5", "heavytail3d",
                    "Pareto(1.5) dwell hotspot migration in 3-D",
                    Box(Point{0, 0, 0}, Point{15, 15, 15}), [] {
                      return collect_jobs([](const JobSink& sink) {
                        Rng rng(617);
                        heavy_tailed_hotspot_stream(3, 4, 4, 2400, 1.5, rng,
                                                    sink);
                      });
                    }));
  // Mixture streams: several generators merged by arrival index with the
  // TraceMux rule (merge_streams), re-indexed 0..N-1 — the in-memory
  // face of multi-trace replay (multi-depot arrivals served by one
  // fleet).
  r.add(from_stream("mix/hotspot+gradient/32x32/n8000", "mix",
                    "hotspot + gradient sources merged by arrival index",
                    Box(Point{0, 0}, Point{31, 31}), [] {
                      auto hotspot = collect_jobs([](const JobSink& sink) {
                        Rng rng(611);
                        bursty_hotspot_stream(2, 4, 8, 4000, 64, rng, sink);
                      });
                      auto gradient = collect_jobs([](const JobSink& sink) {
                        Rng rng(614);
                        drifting_gradient_stream(
                            Box(Point{0, 0}, Point{31, 31}), 4000, 2.0, rng,
                            sink);
                      });
                      return merge_streams({hotspot, gradient});
                    }));
  r.add(from_stream("mix/heavytail+boundary/32x32/n8000", "mix",
                    "Pareto-dwell hotspot + cube-wall round-robin merged",
                    Box(Point{0, 0}, Point{31, 31}), [] {
                      auto heavy = collect_jobs([](const JobSink& sink) {
                        Rng rng(616);
                        heavy_tailed_hotspot_stream(2, 4, 8, 4000, 1.2, rng,
                                                    sink);
                      });
                      auto boundary = collect_jobs([](const JobSink& sink) {
                        boundary_round_robin_stream(2, 4, 8, 4000, sink);
                      });
                      return merge_streams({heavy, boundary});
                    }));
  r.add(from_stream("gradient4d/6x6x6x6/n1200/sg1", "gradient4d",
                    "drifting-gradient arrivals in 4-D, sigma 1",
                    Box(Point{0, 0, 0, 0}, Point{5, 5, 5, 5}), [] {
                      return collect_jobs([](const JobSink& sink) {
                        Rng rng(615);
                        drifting_gradient_stream(
                            Box(Point{0, 0, 0, 0}, Point{5, 5, 5, 5}), 1200,
                            1.0, rng, sink);
                      });
                    }));

  // --- heavy-tailed grids (Algorithm 1 benches) ---------------------------
  for (const std::int64_t n : {16, 32, 64, 128}) {
    r.add(from_demand("grid/n" + std::to_string(n) + "/s11", "grid",
                      "~n heavy-tailed demands on [0,n)^2, seed 11",
                      Box(Point{0, 0}, Point{n - 1, n - 1}),
                      [n] { return grid_workload(n, 11); },
                      static_cast<std::uint64_t>(2000 + n)));
  }
  for (const std::int64_t n : {64, 128, 256, 512, 1024}) {
    r.add(from_demand("grid/n" + std::to_string(n) + "/s7", "grid",
                      "~n heavy-tailed demands on [0,n)^2, seed 7",
                      Box(Point{0, 0}, Point{n - 1, n - 1}),
                      [n] { return grid_workload(n, 7); },
                      static_cast<std::uint64_t>(3000 + n)));
  }

  return r;
}

}  // namespace

const ScenarioRegistry& ScenarioRegistry::builtin() {
  static const ScenarioRegistry registry = build_builtin();
  return registry;
}

}  // namespace cmvrp
