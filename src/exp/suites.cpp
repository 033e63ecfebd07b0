#include "exp/suites.h"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "broken/scenario.h"
#include "core/algorithm1.h"
#include "core/bounds.h"
#include "core/closed_forms.h"
#include "core/cube_bound.h"
#include "core/offline_planner.h"
#include "core/omega.h"
#include "exp/harness.h"
#include "exp/scenario.h"
#include "flow/transportation.h"
#include "graph/graph.h"
#include "graph/graph_omega.h"
#include "grid/dense_grid.h"
#include "grid/neighborhood.h"
#include "lp/simplex.h"
#include "online/capacity_search.h"
#include "online/pairing.h"
#include "sim/event_queue.h"
#include "sim/network.h"
#include "stream/engine.h"
#include "stream/won_search.h"
#include "transfer/cube_collector.h"
#include "transfer/line_collector.h"
#include "transfer/theorem51.h"
#include "util/digest.h"
#include "util/rng.h"
#include "util/timer.h"
#include "vrp/cvrp.h"
#include "vrp/greedy_baseline.h"
#include "workload/generators.h"

namespace cmvrp {

namespace {

std::string fmt(double v) {
  std::ostringstream os;
  os << v;
  return os.str();
}

// E4 — Theorem 1.4.1 and Corollaries 2.2.4–2.2.7: the offline sandwich
//   ω_c ≤ ω* = max_T ω_T ≤ Woff ≤ plan energy ≤ (2·3^ℓ + ℓ)·ω_c.
void suite_offline(BenchRun& b) {
  const auto& reg = ScenarioRegistry::builtin();
  const std::vector<std::string> cases = {
      "uniform/12x12/n60", "clustered/16x16/c3/n80", "line/len24/d40",
      "point/d300",        "square/a6/d25",          "ridge/12x12/p12"};
  for (const auto& name : cases) {
    const Scenario& sc = reg.at(name);
    b.run_case(name, [&b, &sc](MetricRow& row) {
      const DemandMap demand = sc.demand();
      const CubeBound cb = cube_bound(demand);
      const double omega_star = omega_star_flow(demand);
      const double cube_max = max_omega_over_cubes(demand);
      const OfflinePlan plan = plan_offline(demand);
      const PlanCheck check = verify_plan(plan, demand);
      if (!check.ok) {
        b.fail(sc.name + ": plan failed: " + check.issue);
        return;
      }
      // Ordering checks from the corollaries.
      const bool ordered = cb.omega_c <= omega_star + 1e-6 &&
                           cube_max <= omega_star + 1e-6 &&
                           check.max_energy <= plan.capacity_bound + 1e-6;
      if (!ordered) b.fail(sc.name + ": sandwich violated");
      row.metric("omega_c", cb.omega_c)
          .metric("omega* (flow)", omega_star)
          .metric("max cube omega", cube_max)
          .metric("plan energy", check.max_energy)
          .metric("upper (20*omega_c)", plan.capacity_bound)
          .metric("plan/omega*", check.max_energy / omega_star, 2)
          .metric("plan/omega_c",
                  check.max_energy / std::max(cb.omega_c, 1e-9), 2)
          .metric("upper/plan",
                  plan.capacity_bound / std::max(check.max_energy, 1e-9), 2);
    });
  }
  b.note(
      "Shape check: omega_c <= cube-omega <= omega* <= plan energy <= "
      "20*omega_c on every workload — Theorem 1.4.1's constant-factor "
      "sandwich, realized.");
}

// E6 — Theorem 1.4.2: Won = Θ(Woff), via the Chapter 3 strategy.
void suite_online(BenchRun& b) {
  const auto& reg = ScenarioRegistry::builtin();
  const std::vector<std::string> cases = {
      "uniform/10x10/n80", "clustered/12x12/c2/n90", "line/len12/d8/rr",
      "burst/p4x4/n120", "smartdust/12x12/n150"};
  double worst_ratio = 0.0;
  for (const auto& name : cases) {
    const Scenario& sc = reg.at(name);
    b.run_case(name, [&b, &sc, &worst_ratio](MetricRow& row) {
      const auto jobs = sc.jobs();
      const auto r = find_min_online_capacity(jobs, 2, /*seed=*/5, 0.1);
      const double ratio = r.won_empirical / std::max(r.omega_c, 1e-9);
      worst_ratio = std::max(worst_ratio, ratio);
      const double msgs_per_job =
          static_cast<double>(r.at_minimum.network.total()) /
          static_cast<double>(jobs.size());
      if (r.won_empirical > r.won_theory + 0.2)
        b.fail(sc.name + ": empirical exceeded the theorem bound");
      row.metric("omega_c", r.omega_c)
          .metric("Won empirical", r.won_empirical)
          .metric("Won theory (38*w_c)", r.won_theory)
          .metric("Won/omega_c", ratio, 2)
          .metric("msgs/job @min", msgs_per_job, 1)
          .metric("replacements @min", r.at_minimum.replacements);
    });
  }
  b.note("Shape check: Won always below the Lemma 3.3.1 bound and within a "
         "bounded factor of omega_c (worst ratio here: " +
         fmt(worst_ratio) +
         "; unit-job granularity inflates tiny-omega_c workloads).");
}

// E1 — Figure 2.1(a), §2.1.1: demand d at every point of an a×a square.
void suite_square(BenchRun& b) {
  const double d = 100.0;
  for (const std::int64_t a : {1, 2, 4, 8, 16, 32, 64}) {
    b.run_case("a=" + std::to_string(a), [&b, a, d](MetricRow& row) {
      const double w1 = example_square_w1(static_cast<double>(a), d);
      const Box square(Point{0, 0}, Point{a - 1, a - 1});
      const double omega = omega_for_box(
          square, d * static_cast<double>(a) * static_cast<double>(a));
      row.metric("W1 (paper)", w1).metric("omega_square (Eq 1.1)", omega);
      if (a <= 32) {  // plan construction is cheap, verification is O(support)
        const DemandMap demand = square_demand(a, d, Point{0, 0});
        const OfflinePlan plan = plan_offline(demand);
        const PlanCheck check = verify_plan(plan, demand);
        if (!check.ok) {
          b.fail("plan verification failed: " + check.issue);
          return;
        }
        row.metric("plan max energy", check.max_energy)
            .metric("W1/d", w1 / d)
            .metric("plan/omega", check.max_energy / omega);
      } else {
        row.metric("plan max energy", "-")
            .metric("W1/d", w1 / d)
            .metric("plan/omega", "-");
      }
    });
  }
  b.note("Shape check: W1/d climbs toward 1 as a grows (paper: \"when a "
         "approaches infinity, W approaches d\"); plan/omega stays below "
         "the 2*3^l+l = 20 constant.");
}

// E2 — Figure 2.1(b)/2.2, §2.1.2: demand d on every point of a line.
void suite_line(BenchRun& b) {
  for (const double d : {8.0, 32.0, 128.0, 512.0, 2048.0}) {
    b.run_case("d=" + fmt(d), [&b, d](MetricRow& row) {
      const double w2 = example_line_w2(d);
      // Fig 2.2 strategy with capacity 2*W2: each vehicle at offset
      // |y| <= r (r = floor(W2)) reaches the line spending |y| and serves
      // 2W2 - |y|.
      const auto r = static_cast<std::int64_t>(std::floor(w2));
      double supply_per_point = 0.0;
      for (std::int64_t y = -r; y <= r; ++y)
        supply_per_point += 2.0 * w2 - static_cast<double>(std::abs(y));
      const bool covers = supply_per_point + 1e-9 >= d;

      const std::int64_t len = 256;
      const Box line(Point{0, 0}, Point{len - 1, 0});
      const double omega = omega_for_box(line, d * static_cast<double>(len));

      row.metric("W2", w2)
          .metric("2*W2 strategy supply/point", supply_per_point, 1)
          .metric_bool("covers d?", covers)
          .metric("omega_line(len=256)", omega);
      if (d <= 512.0) {
        const DemandMap demand = line_demand(64, d, Point{0, 0});
        const OfflinePlan plan = plan_offline(demand);
        const PlanCheck check = verify_plan(plan, demand);
        if (!check.ok) {
          b.fail("plan failed: " + check.issue);
          return;
        }
        row.metric("plan max energy", check.max_energy);
      } else {
        row.metric("plan max energy", "-");
      }
      if (!covers) b.fail("Fig 2.2 strategy failed to cover d=" + fmt(d));
    });
  }
  b.note("Shape check: W2 grows as sqrt(d) (W2^2 ~ d/2); the 2*W2 strategy "
         "always covers; omega of a long finite line tracks W2.");
}

// E3 — Figure 2.1(c)/2.3, §2.1.3: demand d at a single point.
void suite_point(BenchRun& b) {
  for (const double d : {64.0, 512.0, 4096.0, 32768.0, 262144.0}) {
    b.run_case("d=" + fmt(d), [&b, d](MetricRow& row) {
      const double w3 = example_point_w3(d);
      // Fig 2.3: vehicles in the (2w+1)x(2w+1) L-inf square with
      // w=floor(W3) walk to the center (cost = L1 distance <= 2w) with
      // capacity 3*W3.
      const auto w = static_cast<std::int64_t>(std::floor(w3));
      double supply = 0.0;
      for (std::int64_t x = -w; x <= w; ++x)
        for (std::int64_t y = -w; y <= w; ++y)
          supply += 3.0 * w3 - static_cast<double>(std::abs(x) + std::abs(y));
      const bool covers = supply + 1e-9 >= d;

      DemandMap demand(2);
      demand.set(Point{0, 0}, d);
      const double omega = omega_for_set({Point{0, 0}}, demand);
      const OfflinePlan plan = plan_offline(demand);
      const PlanCheck check = verify_plan(plan, demand);
      if (!check.ok || !covers) {
        b.fail("failure at d=" + fmt(d) + ": " +
               (check.ok ? "recall undersupplies" : check.issue));
        return;
      }
      row.metric("W3", w3)
          .metric("3*W3 recall supply", supply, 1)
          .metric_bool("covers d?", covers)
          .metric("omega* (Eq 1.1)", omega)
          .metric("plan max energy", check.max_energy)
          .metric("W3^3*4/d", 4.0 * w3 * w3 * w3 / d);
    });
  }
  b.note("Shape check: W3 ~ (d/4)^(1/3) (last column -> 1); the 3*W3 recall "
         "always covers; omega* is the tighter L1-ball version of the same "
         "cube-root law.");
}

// E7 — Figure 4.1 / §4.2: the broken-vehicle lower bound is not tight.
void suite_broken(BenchRun& b) {
  for (const std::int64_t r1 : {2, 4, 8, 16, 32, 64}) {
    b.run_case("r1=" + std::to_string(r1), [r1](MetricRow& row) {
      const auto s = make_fig41(r1, /*r2=*/4 * r1 + 2);
      const auto m = measure_fig41(s);
      row.metric("LP bound (2*r1)", m.lp_bound)
          .metric("paper travel formula", m.paper_travel, 0)
          .metric("true requirement", m.true_requirement, 0)
          .metric("ratio true/LP", m.ratio, 2)
          .metric("ratio/r1", m.ratio / static_cast<double>(r1), 3);
    });
  }
  b.note("Shape check: ratio grows linearly in r1 (last column converges to "
         "~2) — with breakdowns, arrival order matters and the LP bound is "
         "weak, exactly as §4.2 concludes.");
}

// E5 — Algorithm 1 (§2.3): 2(2·3^ℓ+ℓ)-approximation quality, and the
// linear-time claim as a harness-timed scaling sweep (time/n² must stay
// flat as n² grows 256×).
void suite_alg1(BenchRun& b) {
  const auto& reg = ScenarioRegistry::builtin();
  BenchSection& approx = b.section("approximation");
  for (const std::int64_t n : {16, 32, 64, 128}) {
    const Scenario& sc = reg.at("grid/n" + std::to_string(n) + "/s11");
    const DemandMap d = sc.demand();
    approx.run_case("n=" + std::to_string(n), [&b, n, d](MetricRow& row) {
      const auto r = algorithm1(d, n);
      const auto cb = cube_bound(d);
      const double omega_star = n <= 64 ? omega_star_flow(d) : cb.omega_c;
      const double cells = static_cast<double>(r.cells_touched) /
                           (static_cast<double>(n) * static_cast<double>(n));
      // Claimed guarantee: Woff <= estimate <= 2(2·3^l+l)·Woff.
      if (r.estimate + 1e-9 < cb.omega_c ||
          r.estimate > 2.0 * 20.0 * 20.0 * cb.omega_c + 1e-9)
        b.fail("approximation guarantee violated at n=" + std::to_string(n));
      row.metric("exit rule", r.exit_rule)
          .metric("estimate", r.estimate)
          .metric("omega_c", cb.omega_c)
          .metric("omega* (flow)", omega_star)
          .metric("estimate/omega*",
                  r.estimate / std::max(omega_star, 1e-9), 2)
          .metric("cells/n^2", cells, 3);
    });
  }
  BenchSection& scaling = b.section("scaling");
  for (const std::int64_t n : {64, 128, 256, 512, 1024}) {
    const Scenario& sc = reg.at("grid/n" + std::to_string(n) + "/s7");
    const DemandMap d = sc.demand();
    scaling.run_case("n=" + std::to_string(n), [n, d](MetricRow& row) {
      const auto r = algorithm1(d, n);
      const double n2 = static_cast<double>(n) * static_cast<double>(n);
      row.metric("estimate", r.estimate)
          .metric("cells touched", r.cells_touched)
          .metric("cells/n^2", static_cast<double>(r.cells_touched) / n2, 3);
    });
  }
  b.note("Shape check: cells/n^2 < 4/3 at every n (geometric level sums = "
         "linear time; the ms/rep column divided by n^2 must stay flat); "
         "estimate within the claimed factor of the exact optimum.");
}

// E8 — Chapter 5: inter-vehicle energy transfers.
void suite_transfer(BenchRun& b) {
  BenchSection& ta = b.section("thm511");
  bool ratios_bounded = true;
  for (const double d : {4.0, 16.0, 64.0, 256.0, 1024.0}) {
    ta.run_case("d=" + fmt(d), [d, &ratios_bounded](MetricRow& row) {
      const DemandMap demand = square_demand(8, d, Point{0, 0});
      const auto bounds = transfer_bounds(demand);
      const double ratio = bounds.woff_upper / bounds.wtrans_lower;
      ratios_bounded = ratios_bounded && ratio < 300.0;
      row.metric("Wtrans lower (Thm 5.1.1)", bounds.wtrans_lower)
          .metric("Woff upper (Lem 2.2.5)", bounds.woff_upper)
          .metric("ratio upper/lower", ratio, 2)
          .metric("binding square side", bounds.binding_side);
    });
  }
  if (!ratios_bounded) b.fail("Theta relationship violated");
  b.note("thm511 shape check: the ratio stays bounded while demand scales "
         "256x — the two quantities are the same order (Thm 5.1.1).");

  BenchSection& tb = b.section("line_collector");
  for (const std::int64_t n : {8, 32, 128, 512}) {
    for (const double d : {4.0, 32.0}) {
      const std::string base =
          "N=" + std::to_string(n) + "/d=" + fmt(d) + "/";
      tb.run_case(base + "fixed_a1=1", [n, d](MetricRow& row) {
        const std::vector<double> lane(static_cast<std::size_t>(n), d);
        const double total = d * static_cast<double>(n);
        TransferParams p;
        p.model = TransferCostModel::kFixed;
        p.a1 = 1.0;
        const double formula = line_collector_w_fixed(n, total, p.a1);
        const double sim = min_line_collector_w(lane, p);
        const auto trace = simulate_line_collector(lane, sim, p);
        row.metric("W formula", formula)
            .metric("W simulated", sim)
            .metric("sim/formula", sim / formula, 4)
            .metric("peak tank / (N*W)",
                    trace.max_tank_level / (static_cast<double>(n) * sim), 3);
      });
      tb.run_case(base + "var_a2=.01", [n, d](MetricRow& row) {
        const std::vector<double> lane(static_cast<std::size_t>(n), d);
        const double total = d * static_cast<double>(n);
        TransferParams p;
        p.model = TransferCostModel::kVariable;
        p.a2 = 0.01;
        const double formula = line_collector_w_variable(n, total, p.a2);
        const double sim = min_line_collector_w(lane, p);
        const auto trace = simulate_line_collector(lane, sim, p);
        row.metric("W formula", formula)
            .metric("W simulated", sim)
            .metric("sim/formula", sim / formula, 4)
            .metric("peak tank / (N*W)",
                    trace.max_tank_level / (static_cast<double>(n) * sim), 3);
      });
    }
  }
  b.note("line_collector shape check: W = Theta(avg d); fixed-cost "
         "simulation matches the closed form exactly, variable-cost stays "
         "at/below it (the paper charges every transfer at the full W); the "
         "peak tank is ~N*W — C = infinity is genuinely needed.");

  BenchSection& tc = b.section("cube_collector");
  for (const double hot : {50.0, 200.0, 800.0}) {
    tc.run_case("hot=" + fmt(hot), [hot](MetricRow& row) {
      DemandMap d(2);
      d.set(Point{3, 3}, hot);
      const OfflinePlan plan = plan_offline(d);
      TransferParams pf;
      pf.model = TransferCostModel::kFixed;
      pf.a1 = 0.5;
      TransferParams pv;
      pv.model = TransferCostModel::kVariable;
      pv.a2 = 0.01;
      const auto rf = cube_collector_requirements(d, 8, pf);
      const auto rv = cube_collector_requirements(d, 8, pv);
      row.metric("no-transfer plan W", plan.max_energy())
          .metric("collector W (fixed a1=.5)", rf.required_w)
          .metric("collector W (var a2=.01)", rv.required_w)
          .metric("savings factor", plan.max_energy() / rf.required_w, 2);
    });
  }
  b.note("cube_collector shape check: transfers turn max-demand into "
         "avg-demand — the savings factor grows with the skew (§5.2's "
         "point).");
}

// E9 — Baselines: centralized greedy vs the distributed strategy;
// Clarke–Wright for context.
void suite_baselines(BenchRun& b) {
  const auto& reg = ScenarioRegistry::builtin();
  BenchSection& cap = b.section("capacity");
  for (const auto& name : {"uniform/10x10/n70", "clustered/12x12/c2/n80",
                           "burst/p4x4/n90"}) {
    const Scenario& sc = reg.at(name);
    cap.run_case(name, [&sc](MetricRow& row) {
      const auto jobs = sc.jobs();
      const double greedy_w = greedy_min_capacity(sc.region, jobs, 0.1);
      const auto greedy_run = run_greedy_baseline(sc.region, greedy_w, jobs);
      const auto r = find_min_online_capacity(jobs, 2, /*seed=*/5, 0.1);
      row.metric("greedy min W", greedy_w)
          .metric("strategy min W (Won)", r.won_empirical)
          .metric("strategy/greedy", r.won_empirical / greedy_w, 2)
          .metric("greedy travel @min", greedy_run.total_travel)
          .metric("strategy msgs/job",
                  static_cast<double>(r.at_minimum.network.total()) /
                      static_cast<double>(jobs.size()),
                  1);
    });
  }
  b.note("capacity context: greedy's omniscience buys a constant factor at "
         "most — consistent with Won = Θ(Woff): no scheduler beats the "
         "Θ(ω*) energy floor.");

  // Clarke–Wright on a uniform instance: classic CVRP route lengths.
  BenchSection& cw = b.section("clarke_wright");
  cw.run_case("uniform/10x10/n40", [&b, &reg](MetricRow& row) {
    const DemandMap d = reg.at("uniform/10x10/n40").demand();
    CvrpInstance inst;
    inst.depot = Point{5, 5};
    inst.vehicle_capacity = 12.0;
    for (const auto& p : d.support()) {
      inst.customers.push_back(p);
      inst.demands.push_back(d.at(p));
    }
    const auto sol = clarke_wright(inst);
    const bool valid = cvrp_solution_valid(inst, sol);
    if (!valid) b.fail("Clarke-Wright produced an invalid CVRP solution");
    row.metric("routes", static_cast<std::int64_t>(sol.routes.size()))
        .metric("total length", sol.total_length)
        .metric_bool("valid", valid);
  });
  b.note("clarke_wright context (central depot, Q = 12): the classic "
         "objective (total route length from one depot) and the paper's "
         "(min per-vehicle energy, dispersed depots) optimize different "
         "resources — the reason CMVRP needs its own theory (§1.1).");
}

// E11 — ablations over the Chapter 3 strategy's design choices.
void suite_ablations(BenchRun& b) {
  const Scenario& sc = ScenarioRegistry::builtin().at("smartdust/16x16/n200");
  const auto jobs = sc.jobs();
  const DemandMap demand = demand_of_stream(jobs, 2);
  const OnlineConfig base = [&] {
    OnlineConfig c = default_online_config(demand, 5);
    c.capacity = 10.0;
    return c;
  }();

  const auto run_with = [&jobs](const OnlineConfig& cfg) {
    StreamConfig stream;
    stream.online = cfg;
    return serve_stream(2, stream, jobs).metrics;
  };

  BenchSection& sides = b.section("cube_side");
  for (const std::int64_t side : {2, 3, 4, 6, 8}) {
    sides.run_case("side=" + std::to_string(side),
                   [&, side](MetricRow& row) {
                     OnlineConfig cfg = base;
                     cfg.cube_side = side;
                     const auto m = run_with(cfg);
                     row.metric("failed", m.jobs_failed)
                         .metric("replacements", m.replacements)
                         .metric("msgs/job",
                                 static_cast<double>(m.network.total()) /
                                     static_cast<double>(jobs.size()),
                                 1)
                         .metric("max travel+serve", m.max_energy_spent);
                   });
  }
  b.note("cube_side: theory picks max(2, ceil(omega_c)) = " +
         std::to_string(base.cube_side) +
         " — smaller cubes localize searches but shrink the idle pool; "
         "larger cubes pay longer replacement travel and bigger floods.");

  BenchSection& ring = b.section("monitoring");
  for (const bool enabled : {true, false}) {
    ring.run_case(enabled ? "ring=on" : "ring=off",
                  [&, enabled](MetricRow& row) {
                    StreamConfig cfg;
                    cfg.online = base;
                    cfg.online.enable_monitoring = enabled;
                    StreamEngine engine(2, cfg);
                    std::vector<Point> hottest = demand.support();
                    std::sort(hottest.begin(), hottest.end(),
                              [&demand](const Point& a, const Point& c) {
                                if (demand.at(a) != demand.at(c))
                                  return demand.at(a) > demand.at(c);
                                return a < c;
                              });
                    for (std::size_t k = 0;
                         k < std::min<std::size_t>(12, hottest.size()); ++k)
                      engine.inject_silent_done(hottest[k]);
                    engine.ingest(jobs);
                    const OnlineMetrics m = engine.finish().metrics;
                    row.metric("failed", m.jobs_failed)
                        .metric("monitor rescues", m.monitor_initiations)
                        .metric("heartbeats", m.network.heartbeats);
                  });
  }
  b.note("monitoring: 12 hottest sensors fail silently — the ring is what "
         "makes silent failures survivable.");

  BenchSection& delays = b.section("delay");
  std::optional<std::uint64_t> reference_served;
  for (const SimTime delay : {0, 1, 3, 9, 27}) {
    delays.run_case("delay=" + std::to_string(delay),
                    [&, delay](MetricRow& row) {
                      OnlineConfig cfg = base;
                      cfg.max_message_delay = delay;
                      const auto m = run_with(cfg);
                      if (!reference_served) reference_served = m.jobs_served;
                      if (m.jobs_served != *reference_served)
                        b.fail("delay changed the outcome — protocol bug");
                      row.metric("served", m.jobs_served)
                          .metric("failed", m.jobs_failed)
                          .metric("events processed proxy",
                                  m.network.total());
                    });
  }
  b.note("delay: protocol outcome is delay-invariant (served must not "
         "move); only message latency changes.");

  BenchSection& radii = b.section("radius");
  for (const std::int64_t radius : {1, 2, 3}) {
    radii.run_case("radius=" + std::to_string(radius),
                   [&, radius](MetricRow& row) {
                     OnlineConfig cfg = base;
                     cfg.neighbor_radius = radius;
                     const auto m = run_with(cfg);
                     row.metric("served", m.jobs_served)
                         .metric("failed", m.jobs_failed)
                         .metric("msgs/job",
                                 static_cast<double>(m.network.total()) /
                                     static_cast<double>(jobs.size()),
                                 1);
                   });
  }
  b.note("radius: paper uses 2; radius 1 still connects a cube, radius 3 "
         "fattens the flood. Outcomes are radius-invariant, only message "
         "counts move.");
}

// E12 — general graphs (the paper's Chapter 6 open direction).
void suite_graphs(BenchRun& b) {
  const std::int64_t n = 12;
  const Box box = Box::cube(Point{0, 0}, n);

  const auto vecify = [](const SpatialGraph& sg, const DemandMap& d) {
    std::vector<double> v(sg.points.size(), 0.0);
    for (const auto& [p, val] : d) {
      auto it = sg.index.find(p);
      if (it != sg.index.end()) v[it->second] = val;
    }
    return v;
  };

  struct Case {
    Point at;
    double amount;
  };
  for (const Case& c : {Case{Point{6, 6}, 60.0}, Case{Point{0, 0}, 60.0},
                        Case{Point{6, 6}, 240.0}}) {
    const std::string name =
        "at" + c.at.to_string() + "/d=" + fmt(c.amount);
    b.run_case(name, [&, c](MetricRow& row) {
      DemandMap d(2);
      d.set(c.at, c.amount);

      const SpatialGraph grid = make_grid_graph(box);
      // Vertical wall two columns right of the demand, with one gap.
      std::vector<Point> wall;
      for (std::int64_t y = 0; y < n; ++y)
        if (y != n - 1) wall.push_back(Point{c.at[0] + 2, y});
      const SpatialGraph walled = make_grid_with_holes(box, wall);
      const SpatialGraph torus = make_torus(n);
      const SpatialGraph roads =
          make_weighted_roadways(box, {c.at[1]}, /*side_cost=*/5);

      row.metric("grid omega*",
                 graph_omega_star_flow(grid.graph, vecify(grid, d)))
          .metric("lattice check", omega_star_flow(d))
          .metric("walled grid",
                  graph_omega_star_flow(walled.graph, vecify(walled, d)))
          .metric("torus", graph_omega_star_flow(torus.graph, vecify(torus, d)))
          .metric("roadways (x5 side cost)",
                  graph_omega_star_flow(roads.graph, vecify(roads, d)));
    });
  }
  b.note("Shape check: interior demand — grid == lattice (anchor) and the "
         "torus matches too; corner demand — the torus beats the grid (no "
         "truncated balls); walls raise omega*; 5x side streets raise it "
         "more (the highway only helps along one row). Note: lattice omega* "
         "can dip below the finite grid's when the infinite lattice offers "
         "more suppliers than the n x n box.");
}

// E10 — substrate micro-benchmarks: the primitives every experiment leans
// on, timed by the harness (inner loops keep each case measurable).
void suite_substrates(BenchRun& b) {
  // Each case reports its own us/iter from an inner loop; the harness
  // ms/rep column times the whole loop.
  const auto looped = [](std::int64_t iters,
                         const std::function<double()>& body,
                         MetricRow& row) {
    WallTimer timer;
    double last = 0.0;
    for (std::int64_t i = 0; i < iters; ++i) last = body();
    const double ms = timer.elapsed_ms();
    row.metric("iters", iters)
        .wall_metric("us/iter", 1000.0 * ms / static_cast<double>(iters), 3)
        .metric("value", last);
  };

  b.run_case("l1_ball_volume/r=100000", [&](MetricRow& row) {
    looped(100000,
           [] { return static_cast<double>(l1_ball_volume(2, 100000)); }, row);
  });
  b.run_case("box_neighborhood_dp/64x64/r=4096", [&](MetricRow& row) {
    const std::vector<std::int64_t> sides{64, 64};
    looped(2000,
           [&sides] {
             return static_cast<double>(box_neighborhood_volume(sides, 4096));
           },
           row);
  });
  b.run_case("neighborhood_bfs/r=16", [&](MetricRow& row) {
    const std::vector<Point> t{Point{0, 0}, Point{5, 3}, Point{9, 9}};
    looped(200,
           [&t] { return static_cast<double>(neighborhood_volume(t, 16)); },
           row);
  });
  b.run_case("omega_for_box/s=64", [&](MetricRow& row) {
    const Box box = Box::cube(Point{0, 0}, 64);
    looped(200, [&box] { return omega_for_box(box, 1e9); }, row);
  });
  b.run_case("prefix_sums/n=256", [&](MetricRow& row) {
    Rng rng(3);
    DemandMap d(2);
    for (std::int64_t k = 0; k < 256; ++k)
      d.add(Point{rng.next_int(0, 255), rng.next_int(0, 255)}, 1.0);
    const DenseGrid grid = DenseGrid::from_demand(d);
    looped(20,
           [&grid] {
             const PrefixSums ps(grid);
             return ps.max_cube_sum(4);
           },
           row);
  });
  b.run_case("simplex_lp/span=3", [&](MetricRow& row) {
    Rng rng(5);
    DemandMap d(2);
    for (int k = 0; k < 6; ++k)
      d.add(Point{rng.next_int(0, 3), rng.next_int(0, 3)},
            static_cast<double>(rng.next_int(1, 9)));
    looped(20, [&d] { return lp_value_at_radius(d, 2); }, row);
  });
  b.run_case("dinic_oracle/n=128", [&](MetricRow& row) {
    Rng rng(7);
    DemandMap d(2);
    for (std::int64_t k = 0; k < 128; ++k)
      d.add(Point{rng.next_int(0, 15), rng.next_int(0, 15)}, 1.0);
    looped(20,
           [&d] {
             return transportation_feasible(d, 3, 2.0).feasible ? 1.0 : 0.0;
           },
           row);
  });
  b.run_case("snake_index_round_trip/s=64", [&](MetricRow& row) {
    const CubePairing pairing(2, Point{0, 0}, 64);
    const Point p{32, 32};
    looped(100000,
           [&pairing, &p] {
             const auto k = pairing.snake_index(p);
             return static_cast<double>(
                 pairing.snake_vertex(Point{0, 0}, k)[0]);
           },
           row);
  });
  b.run_case("network_delivery/n=1000", [&](MetricRow& row) {
    looped(20,
           [] {
             Transport t(/*max_delay=*/3, /*vehicles=*/7);
             Network net(t, Rng(1));
             std::size_t delivered = 0;
             net.set_receiver(
                 [](void* count, const Delivery&) {
                   ++*static_cast<std::size_t*>(count);
                 },
                 &delivered);
             for (int i = 0; i < 1000; ++i)
               net.send(static_cast<std::size_t>(i % 7), (i + 1) % 7,
                        Message{});
             t.queue.run_to_quiescence();
             return static_cast<double>(delivered);
           },
           row);
  });
  // Layer cases in ns/op: one timed body performs `ops` operations.
  const auto per_op = [](std::int64_t ops, const std::function<double()>& body,
                         MetricRow& row) {
    WallTimer timer;
    const double value = body();
    const double ms = timer.elapsed_ms();
    row.metric("ops", ops)
        .wall_metric("ns/op", 1e6 * ms / static_cast<double>(ops), 2)
        .metric("value", value);
  };
  b.run_case("event_queue/schedule_step", [&](MetricRow& row) {
    // The calendar queue alone, at flood-like occupancy: 64 deliveries
    // in flight at delays 1..4, each firing schedules a successor until
    // `ops` have been scheduled. One op = one schedule + one fire.
    constexpr std::int64_t kOps = 2'000'000;
    struct Flood {
      EventQueue q;
      std::int64_t scheduled = 0;
      std::uint64_t sum = 0;
      void add(std::uint32_t id) {
        q.schedule_after(1 + (scheduled++ & 3), Delivery{id, 0, Message{}});
      }
    };
    per_op(kOps,
           [] {
             Flood f;
             f.q.bind(
                 [](void* self, const Delivery& d) {
                   auto& fl = *static_cast<Flood*>(self);
                   fl.sum += d.to;
                   if (fl.scheduled < kOps) fl.add(d.to);
                 },
                 &f);
             for (std::uint32_t id = 0; id < 64; ++id) f.add(id);
             f.q.run_to_quiescence(kOps);
             return static_cast<double>(f.sum);
           },
           row);
  });
  b.run_case("network_send/heartbeat", [&](MetricRow& row) {
    // A §3.2.5 ring of 64 vehicles beaconing their predecessors over beat
    // slots resolved once: every beat draws a delay and advances its
    // channel's FIFO clamp, and none enters the queue.
    constexpr std::int64_t kOps = 2'000'000;
    per_op(kOps,
           [&b] {
             Transport t(/*max_delay=*/3, /*vehicles=*/64);
             Network net(t, Rng(1));
             std::vector<std::uint32_t> ring;
             for (std::size_t v = 0; v < 64; ++v)
               ring.push_back(net.heartbeat_slot(v, (v + 63) % 64));
             for (std::int64_t i = 0; i < kOps; i += 64)
               net.beat_all(ring.data(), ring.size());
             if (!t.queue.empty())
               b.fail("an elided heartbeat entered the queue");
             return static_cast<double>(net.stats().heartbeat_skips);
           },
           row);
  });
  b.run_case("phase1_flood/3d-s4", [&](MetricRow& row) {
    // Phase I alone, in the flood-3d cube: one healthy 64-vehicle 3-D
    // cube of side 4 at W = 8, no monitoring ring. Each round builds the
    // cube afresh on one transport and serves the same arrivals until its
    // fleet is spent, so every exhausted vehicle floods the cube
    // (Algorithm 2) and Phase II relays its move. One op = one message
    // sent; the value is the messages, which the seeds fix.
    constexpr int kRounds = 40;
    OnlineConfig cfg;
    cfg.capacity = 8.0;
    cfg.cube_side = 4;
    cfg.anchor = Point::origin(3);
    cfg.enable_monitoring = false;
    const CubeParams params(3, cfg);
    Transport transport(cfg.max_message_delay,
                        static_cast<std::size_t>(params.pairing.cube_volume()));
    const auto regions =
        std::make_unique<std::byte[]>(FleetCore::region_bytes(params));
    Rng rng(11);
    std::vector<Job> jobs;
    for (std::int64_t i = 0; i < 512; ++i)
      jobs.push_back({Point{rng.next_int(0, 3), rng.next_int(0, 3),
                            rng.next_int(0, 3)},
                      i});
    std::uint64_t messages = 0;
    std::uint64_t floods = 0;
    WallTimer timer;
    for (int round = 0; round < kRounds; ++round) {
      Network net(transport, Rng(static_cast<std::uint64_t>(round) + 1));
      FleetCore core(params, cfg.anchor, net, regions.get());
      core.bind_network();
      const Network::Lend lend(net);
      for (const Job& job : jobs) {
        core.serve_job(job);
        transport.queue.run_to_quiescence();
      }
      messages += net.stats().total();
      floods += core.core_metrics().computations_started;
    }
    const double ms = timer.elapsed_ms();
    if (floods == 0) b.fail("phase1_flood: no computation started");
    row.metric("ops", messages)
        .wall_metric("ns/op", 1e6 * ms / static_cast<double>(messages), 2)
        .metric("value", messages);
  });
  b.run_case("monitor_settle/4d-s3", [&](MetricRow& row) {
    // Steady-state settles of one healthy 81-vehicle 4-D cube of side 3,
    // the replay-4d shape: each is one §3.2.5 round, 41 heartbeats over
    // the cached ring and no scan. The value is the heartbeats sent.
    constexpr std::int64_t kOps = 200'000;
    OnlineConfig cfg;
    cfg.capacity = 100.0;
    cfg.cube_side = 3;
    cfg.anchor = Point::origin(4);
    const CubeParams params(4, cfg);
    Transport transport(cfg.max_message_delay,
                        static_cast<std::size_t>(params.pairing.cube_volume()));
    Network net(transport, Rng(1));
    const auto regions =
        std::make_unique<std::byte[]>(FleetCore::region_bytes(params));
    FleetCore core(params, cfg.anchor, net, regions.get());
    core.bind_network();
    const Network::Lend lend(net);
    core.settle();  // builds the ring and runs the first scan
    const std::uint64_t before = net.stats().heartbeats;
    per_op(kOps,
           [&] {
             for (std::int64_t i = 0; i < kOps; ++i) core.settle();
             return static_cast<double>(net.stats().heartbeats - before);
           },
           row);
    if (core.metrics().monitor_initiations != 0)
      b.fail("a healthy fleet's ring initiated a search");
  });
  // A cold cube against a warm one: the perfbench sparse-2d shape (a
  // 256^2 uniform stream, 2.5 arrivals per point, sized by the program's
  // rule: side 2, so 16,384 cubes of ~10 arrivals), served whole at
  // threads 1 in two orders. `cold` is the arrival order, shuffled across
  // cubes, so nearly every arrival finds its cube's state out of cache;
  // `warm` is the same stream stable-sorted by cube, each cube's arrivals
  // back to back. Every cube sees the same subsequence either way, so the
  // served sets must agree; the gap is the cost of cold cube state. One
  // op = one arrival, engine construction and finish() included.
  struct CubeArrivals {
    StreamConfig config;
    std::vector<Job> order[2];                // [0] cold, [1] warm
    std::optional<std::uint64_t> served[2];   // served-set digests
  };
  std::optional<CubeArrivals> arrivals;
  const auto cube_arrivals = [&arrivals]() -> CubeArrivals& {
    if (arrivals) return *arrivals;
    arrivals.emplace();
    const Box box(Point{0, 0}, Point{255, 255});
    Rng rng(301);
    const DemandMap d = uniform_demand(box, 163840, rng);
    Rng order(302);
    arrivals->order[0] = stream_from_demand(d, ArrivalOrder::kShuffled, order);
    arrivals->config.online = default_online_config(d, 301);
    arrivals->config.region = d.bounding_box();
    const CubePairing pairing(2, arrivals->config.online.anchor,
                              arrivals->config.online.cube_side);
    arrivals->order[1] = arrivals->order[0];
    std::stable_sort(arrivals->order[1].begin(), arrivals->order[1].end(),
                     [&pairing](const Job& x, const Job& y) {
                       return pairing.cube_corner(x.position) <
                              pairing.cube_corner(y.position);
                     });
    return *arrivals;
  };
  // Set-up, in the same shape: the demand pass over the shuffled stream
  // (one op = one arrival) and the ω_c scan of its demand (per call).
  std::optional<DemandMap> stream_demand;
  b.run_case("demand_of_stream/2d-256", [&](MetricRow& row) {
    const std::vector<Job>& jobs = cube_arrivals().order[0];
    per_op(static_cast<std::int64_t>(jobs.size()),
           [&] {
             stream_demand = demand_of_stream(jobs, 2);
             return static_cast<double>(stream_demand->support_size());
           },
           row);
  });
  b.run_case("cube_bound/2d-256", [&](MetricRow& row) {
    if (!stream_demand)
      stream_demand = demand_of_stream(cube_arrivals().order[0], 2);
    looped(20, [&] { return cube_bound(*stream_demand).omega_c; }, row);
  });
  for (const int warm : {0, 1}) {
    b.run_case(warm ? "cube_arrival/warm-2d-s2" : "cube_arrival/cold-2d-s2",
               [&, warm](MetricRow& row) {
                 CubeArrivals& a = cube_arrivals();
                 const std::vector<Job>& jobs = a.order[warm];
                 per_op(static_cast<std::int64_t>(jobs.size()),
                        [&] {
                          const StreamResult r =
                              serve_stream(2, a.config, jobs);
                          a.served[warm] = index_set_digest(r.served_jobs);
                          return static_cast<double>(r.served_jobs.size());
                        },
                        row);
               });
  }
  if (arrivals && arrivals->served[0] && arrivals->served[1] &&
      *arrivals->served[0] != *arrivals->served[1])
    b.fail("cube_arrival: the cube-sorted stream served a different set");
  b.run_case("cube_record/construct-2d-s2", [&](MetricRow& row) {
    // Materialization alone, in the cube_arrival shape: a 128^2 grid of
    // its cubes, each built on one transport as its first arrival would
    // build it. One op = one CubeServer::create (the frees are untimed).
    const CubeParams params(2, cube_arrivals().config.online);
    Transport transport(params.config.max_message_delay,
                        static_cast<std::size_t>(params.pairing.cube_volume()));
    constexpr std::int64_t kGrid = 128;
    const std::int64_t side = params.config.cube_side;
    const Point& anchor = params.config.anchor;
    std::vector<CubeServer::Ptr> cubes;
    cubes.reserve(kGrid * kGrid);
    per_op(kGrid * kGrid,
           [&] {
             for (std::int64_t c = 0; c < kGrid * kGrid; ++c)
               cubes.push_back(CubeServer::create(
                   params,
                   Point{anchor[0] + (c / kGrid) * side,
                         anchor[1] + (c % kGrid) * side},
                   transport));
             return static_cast<double>(cubes.size());
           },
           row);
  });
  b.run_case("online_point_burst/n=50", [&](MetricRow& row) {
    std::vector<Job> jobs;
    for (int i = 0; i < 50; ++i) jobs.push_back({Point{2, 2}, i});
    looped(5,
           [&jobs] {
             StreamConfig cfg;
             cfg.online.capacity = 8.0;
             cfg.online.cube_side = 6;
             cfg.online.anchor = Point{0, 0};
             cfg.online.seed = 3;
             return serve_stream(2, cfg, jobs).metrics.jobs_failed == 0 ? 1.0
                                                                         : 0.0;
           },
           row);
  });
  b.note("Substrate primitives; keeping these fast keeps every experiment "
         "above laptop-scale. Track us/iter across PRs via the JSON "
         "artifact.");
}

// E13 — the theory holds for every fixed dimension ℓ; sweep ℓ = 2, 3, 4
// (Point::kMaxDim = 4): the Thm 1.4.1 sandwich with the ℓ-dependent
// constant 2·3^ℓ + ℓ, plus full online runs of the strategy at ℓ = 3, 4.
void suite_dim_sweep(BenchRun& b) {
  const auto& reg = ScenarioRegistry::builtin();

  BenchSection& offline = b.section("offline_sandwich");
  for (const auto& name :
       {"uniform/12x12/n60", "uniform3d/6x6x6/n48", "clustered3d/8x8x8/c2/n60",
        "point3d/d60", "uniform4d/4x4x4x4/n32", "point4d/d40"}) {
    const Scenario& sc = reg.at(name);
    offline.run_case(name, [&b, &sc](MetricRow& row) {
      const DemandMap demand = sc.demand();
      const int l = demand.dim();
      const double upper_factor =
          2.0 * std::pow(3.0, static_cast<double>(l)) + static_cast<double>(l);
      const CubeBound cb = cube_bound(demand);
      const double omega_star = omega_star_flow(demand);
      const OfflinePlan plan = plan_offline(demand);
      const PlanCheck check = verify_plan(plan, demand);
      if (!check.ok) {
        b.fail(sc.name + ": plan failed: " + check.issue);
        return;
      }
      if (cb.omega_c > omega_star + 1e-6 ||
          check.max_energy > plan.capacity_bound + 1e-6)
        b.fail(sc.name + ": sandwich violated at l=" + std::to_string(l));
      row.metric("l", l)
          .metric("omega_c", cb.omega_c)
          .metric("omega* (flow)", omega_star)
          .metric("plan energy", check.max_energy)
          .metric("upper factor (2*3^l+l)", upper_factor, 0)
          .metric("plan/omega_c",
                  check.max_energy / std::max(cb.omega_c, 1e-9), 2);
    });
  }

  BenchSection& online = b.section("online_strategy");
  for (const auto& name : {"uniform3d/6x6x6/n48", "uniform4d/4x4x4x4/n32"}) {
    const Scenario& sc = reg.at(name);
    online.run_case(name, [&b, &sc](MetricRow& row) {
      const auto jobs = sc.jobs();
      const DemandMap demand = demand_of_stream(jobs, sc.dim);
      StreamConfig cfg;
      cfg.online = default_online_config(demand, /*seed=*/5);
      const OnlineMetrics m = serve_stream(sc.dim, cfg, jobs).metrics;
      if (m.jobs_failed != 0)
        b.fail(sc.name + ": strategy dropped jobs at the Lemma 3.3.1 "
               "capacity");
      row.metric("l", sc.dim)
          .metric("capacity W", cfg.online.capacity)
          .metric("cube side", cfg.online.cube_side)
          .metric("served", m.jobs_served)
          .metric("failed", m.jobs_failed)
          .metric("msgs/job",
                  static_cast<double>(m.network.total()) /
                      static_cast<double>(jobs.size()),
                  1)
          .metric("max energy", m.max_energy_spent);
    });
  }

  b.note("Shape check: the sandwich holds with the l-dependent constant at "
         "every dimension, and the Chapter 3 strategy serves complete "
         "streams at l = 3 and 4 — the paper's 'constant dimension l' "
         "really is a free parameter of the implementation.");
}

// A full engine run with wall-clock throughput.
struct StreamProbe {
  StreamResult result;
  double ms = 0.0;
  double jobs_per_sec = 0.0;
};

StreamProbe probe_stream(int dim, const StreamConfig& cfg,
                         const std::vector<Job>& jobs) {
  StreamProbe p;
  WallTimer timer;
  p.result = serve_stream(dim, cfg, jobs);
  p.ms = timer.elapsed_ms();
  p.jobs_per_sec = p.ms > 0.0
                       ? 1000.0 * static_cast<double>(jobs.size()) / p.ms
                       : 0.0;
  return p;
}

bool same_stream_outcome(const StreamResult& a, const StreamResult& b) {
  return a.metrics == b.metrics && a.served_jobs == b.served_jobs &&
         a.failed_jobs == b.failed_jobs && a.shed_jobs == b.shed_jobs &&
         a.jobs_shed == b.jobs_shed && a.jobs_rejected == b.jobs_rejected &&
         a.latency == b.latency && a.timeseries == b.timeseries &&
         a.counters == b.counters && a.cubes == b.cubes;
}

// The serving outcome alone — everything same_stream_outcome compares
// except the counter registry. Used where one run has counters on and
// the other off: the obs layer must not perturb serving, but obs-gated
// counter fields are legitimately zero on the off side.
bool same_serving_outcome(const StreamResult& a, const StreamResult& b) {
  return a.metrics == b.metrics && a.served_jobs == b.served_jobs &&
         a.failed_jobs == b.failed_jobs && a.shed_jobs == b.shed_jobs &&
         a.jobs_shed == b.jobs_shed && a.jobs_rejected == b.jobs_rejected &&
         a.latency == b.latency && a.timeseries == b.timeseries &&
         a.cubes == b.cubes;
}

// E15 — streaming engine scaling: throughput vs threads and batch size on
// the large-grid scenario; outcomes must stay bit-identical throughout.
void suite_stream_scaling(BenchRun& b) {
  const Scenario& sc = ScenarioRegistry::builtin().at("uniform/64x64/n20000");
  const auto jobs = sc.jobs();
  StreamConfig cfg;
  cfg.online.capacity = 24.0;
  cfg.online.cube_side = 4;
  cfg.online.anchor = Point{0, 0};
  cfg.online.seed = 7;
  cfg.batch_size = 256;
  // Dense cube-slot routing: the scenario's bounding region lets the
  // engine precompute the corner→slot table, so every in-region job takes
  // the flat-array path (no per-job hashing on the route or serve side).
  cfg.region = sc.region;
  // PR 5 throughput lever: amortize the §3.2.5 monitoring sweep + drain
  // across batched arrivals (one settle per 16 arrivals per cube instead
  // of one per arrival). Outcome metrics — served/failed/replacements/
  // cubes and the served/failed set hashes — are unchanged vs the
  // stride-1 baseline (heartbeats are protocol no-ops on failure-free
  // streams); only jobs/sec moves.
  cfg.online.monitor_stride = 16;

  const unsigned hw = std::thread::hardware_concurrency();

  // The determinism reference is served outside the timed cases, so it
  // holds under --warmup or a --filter that skips the threads=1 case; it
  // also warms caches and the allocator before the first timed case.
  const StreamResult reference = serve_stream(2, cfg, jobs);

  // The speedup column divides by the threads=1 case's own time, so that
  // row reads 1.00 (and every row 0 when --filter skips it).
  std::optional<double> ms_at_1;
  BenchSection& threads = b.section("threads");
  for (const int t : {1, 2, 4, 8}) {
    threads.run_case("threads=" + std::to_string(t),
                     [&, t](MetricRow& row) {
                       StreamConfig c = cfg;
                       c.threads = t;
                       const StreamProbe p = probe_stream(2, c, jobs);
                       if (!same_stream_outcome(reference, p.result))
                         b.fail("thread count changed the stream outcome");
                       if (t == 1) ms_at_1 = p.ms;
                       row.metric("hw threads", static_cast<int>(hw))
                           .metric("served", p.result.metrics.jobs_served)
                           .metric("failed", p.result.metrics.jobs_failed)
                           .metric("replacements",
                                   p.result.metrics.replacements)
                           .metric("cubes", p.result.cubes)
                           .metric("cube slots", p.result.cube_slots)
                           .wall_metric("routing ms",
                                        p.result.stages.route_ms, 2)
                           .wall_metric("jobs/sec", p.jobs_per_sec, 0)
                           .wall_metric("speedup vs 1t",
                                        ms_at_1 && p.ms > 0.0 ? *ms_at_1 / p.ms
                                                              : 0.0,
                                        2);
                     });
  }

  BenchSection& batches = b.section("batch_size");
  for (const std::int64_t batch : {32, 256, 2048}) {
    batches.run_case("batch=" + std::to_string(batch),
                     [&, batch](MetricRow& row) {
                       StreamConfig c = cfg;
                       c.threads = hw >= 4 ? 4 : 2;
                       c.batch_size = batch;
                       const StreamProbe p = probe_stream(2, c, jobs);
                       if (!same_stream_outcome(reference, p.result))
                         b.fail("batch size changed the stream outcome");
                       row.metric("batches", p.result.batches)
                           .metric("served", p.result.metrics.jobs_served)
                           .wall_metric("jobs/sec", p.jobs_per_sec, 0);
                     });
  }

  // Large ℓ = 3/4 streams under the theory config: throughput and
  // determinism at 1 and 2 threads in higher dimensions (the engine's
  // per-cube fleets are side^l vehicles, so jobs/sec legitimately drops
  // with l; the artifact tracks by how much).
  BenchSection& dims = b.section("dims");
  for (const char* name :
       {"uniform3d/16x16x16/n8000", "uniform4d/8x8x8x8/n4000"}) {
    const Scenario& dsc = ScenarioRegistry::builtin().at(name);
    const auto djobs = dsc.jobs();
    StreamConfig dcfg;
    dcfg.online = default_online_config(demand_of_stream(djobs, dsc.dim), 7);
    dcfg.batch_size = 256;
    dcfg.region = dsc.region;  // dense cube-slot routing (flat shard state)
    std::optional<StreamResult> dref;
    for (const int t : {1, 2}) {
      dims.run_case(dsc.name + "/threads=" + std::to_string(t),
                    [&, t](MetricRow& row) {
                      StreamConfig c = dcfg;
                      c.threads = t;
                      const StreamProbe p = probe_stream(dsc.dim, c, djobs);
                      if (!dref) dref = p.result;
                      else if (!same_stream_outcome(*dref, p.result))
                        b.fail(dsc.name +
                               ": thread count changed the stream outcome");
                      row.metric("l", dsc.dim)
                          .metric("served", p.result.metrics.jobs_served)
                          .metric("failed", p.result.metrics.jobs_failed)
                          .metric("cubes", p.result.cubes)
                          .wall_metric("jobs/sec", p.jobs_per_sec, 0);
                    });
    }
  }

  // --- obs: Tier-A counters + the Lemma 3.3.1 flood bound -----------------
  // Counters on: serving outcomes must be untouched, and every Phase I
  // computation's Query count must respect the Lemma 3.3.1 flood bound
  // s^l * (2r+1)^l — queries relay only inside the serving cube's
  // radius-r neighbor graph, so the per-computation flood cannot exceed
  // vehicles x neighbors. messages-per-replacement turns the "~60
  // messages per replacement" folklore into a recorded number the CI
  // artifact tracks run over run. Checked at l = 2 (the scaling
  // workload) and at l = 3/4 (smoke-sized streams under the theory
  // capacity, where replacements actually occur).
  BenchSection& obs = b.section("obs");
  obs.run_case("l=2/" + sc.name, [&](MetricRow& row) {
    StreamConfig c = cfg;
    c.threads = hw >= 4 ? 4 : 2;
    c.online.obs.counters = true;
    const StreamProbe p = probe_stream(2, c, jobs);
    if (!same_serving_outcome(reference, p.result))
      b.fail("enabling counters changed the serving outcome");
    const CubeCounters& k = p.result.counters;
    const std::uint64_t bound = query_flood_bound(
        c.online.cube_side, c.online.neighbor_radius, 2);
    if (k.max_queries_per_comp > bound)
      b.fail("Lemma 3.3.1 violated at l = 2: a computation sent " +
             std::to_string(k.max_queries_per_comp) + " queries, bound " +
             std::to_string(bound));
    row.metric("l", 2)
        .metric("messages", k.messages_total())
        .metric("replacements", k.replacements)
        .metric("msgs/replacement", k.messages_per_replacement(), 1)
        .metric("max queries/comp", k.max_queries_per_comp)
        .metric("flood bound", bound)
        .metric("cascade p99", p.result.counters.cascade.percentile(99.0));
  });
  for (const auto& name :
       {std::string("uniform3d/8x8x8/n1500"),
        std::string("uniform4d/6x6x6x6/n1000")}) {
    const Scenario& dsc = ScenarioRegistry::builtin().at(name);
    obs.run_case("l=" + std::to_string(dsc.dim) + "/" + name,
                 [&b, &dsc](MetricRow& row) {
                   const auto djobs = dsc.jobs();
                   // Deliberately undersized capacity (vs the Lemma 3.3.1
                   // search): vehicles exhaust, so Phase I computations and
                   // replacement floods actually occur — at theory capacity
                   // the bound check is vacuous (zero queries).
                   StreamConfig c;
                   c.online.capacity = 6.0;
                   c.online.cube_side = 2;
                   c.online.anchor = Point::origin(dsc.dim);
                   c.online.seed = 7;
                   c.online.obs.counters = true;
                   c.batch_size = 128;
                   c.region = dsc.region;
                   const StreamProbe p = probe_stream(dsc.dim, c, djobs);
                   const CubeCounters& k = p.result.counters;
                   const std::uint64_t bound = query_flood_bound(
                       c.online.cube_side, c.online.neighbor_radius, dsc.dim);
                   if (k.max_queries_per_comp > bound)
                     b.fail("Lemma 3.3.1 violated at l = " +
                            std::to_string(dsc.dim) + ": a computation sent " +
                            std::to_string(k.max_queries_per_comp) +
                            " queries, bound " + std::to_string(bound));
                   row.metric("l", dsc.dim)
                       .metric("messages", k.messages_total())
                       .metric("replacements", k.replacements)
                       .metric("msgs/replacement", k.messages_per_replacement(),
                               1)
                       .metric("max queries/comp", k.max_queries_per_comp)
                       .metric("flood bound", bound);
                 });
  }

  // --- obs_overhead: the off-by-default fast path ------------------------
  // Single-thread serve throughput with counters off vs on. The off path
  // is the acceptance target (<= 2% regression vs the pre-obs engine —
  // structurally near-zero: one dead branch per hook); the on/off ratio
  // is recorded so a future hook that leaks work onto the off path, or
  // an expensive on path, shows up in the artifact diff.
  BenchSection& overhead = b.section("obs_overhead");
  std::optional<double> off_jps;
  overhead.run_case("counters=off", [&](MetricRow& row) {
    StreamConfig c = cfg;
    c.threads = 1;
    const StreamProbe p = probe_stream(2, c, jobs);
    if (!same_stream_outcome(reference, p.result))
      b.fail("counters-off run diverged from the reference outcome");
    off_jps = p.jobs_per_sec;
    row.wall_metric("jobs/sec", p.jobs_per_sec, 0);
  });
  overhead.run_case("counters=on", [&](MetricRow& row) {
    StreamConfig c = cfg;
    c.threads = 1;
    c.online.obs.counters = true;
    const StreamProbe p = probe_stream(2, c, jobs);
    if (!same_serving_outcome(reference, p.result))
      b.fail("enabling counters changed the serving outcome");
    row.wall_metric("jobs/sec", p.jobs_per_sec, 0)
        .wall_metric("on/off ratio",
                     off_jps && *off_jps > 0.0 ? p.jobs_per_sec / *off_jps
                                               : 0.0,
                     3);
  });
  overhead.run_case("spans=on", [&](MetricRow& row) {
    StreamConfig c = cfg;
    c.threads = 1;
    c.online.obs.counters = true;
    c.online.obs.spans = true;
    const StreamProbe p = probe_stream(2, c, jobs);
    if (!same_serving_outcome(reference, p.result))
      b.fail("enabling span tracing changed the serving outcome");
    row.wall_metric("jobs/sec", p.jobs_per_sec, 0)
        .wall_metric("on/off ratio",
                     off_jps && *off_jps > 0.0 ? p.jobs_per_sec / *off_jps
                                               : 0.0,
                     3)
        .metric("span records", p.result.counters.spans_emitted);
  });

  b.note("Stream scaling: 20000 jobs over 256 cubes (side 4). Outcomes "
         "are bit-identical across every thread count and batch size; "
         "speedup tracks physical cores (the 'hw threads' column says what "
         "this machine can show). The dims section extends both claims to "
         "l = 3 and l = 4 streams. The obs section checks the Lemma 3.3.1 "
         "query-flood bound at l = 2/3/4 and records messages-per-"
         "replacement; obs_overhead records the counters-off fast path "
         "against the counters-on and spans-on runs at one thread.");
}

// CI smoke: one tiny offline case and one tiny online case, seconds total.
void suite_smoke(BenchRun& b) {
  const auto& reg = ScenarioRegistry::builtin();

  BenchSection& offline = b.section("offline");
  const Scenario& sc = reg.at("uniform/8x8/n32");
  offline.run_case(sc.name, [&b, &sc](MetricRow& row) {
    const DemandMap demand = sc.demand();
    const CubeBound cb = cube_bound(demand);
    const double omega_star = omega_star_flow(demand);
    const OfflinePlan plan = plan_offline(demand);
    const PlanCheck check = verify_plan(plan, demand);
    if (!check.ok) {
      b.fail("smoke plan failed: " + check.issue);
      return;
    }
    if (cb.omega_c > omega_star + 1e-6 ||
        check.max_energy > plan.capacity_bound + 1e-6)
      b.fail("smoke sandwich violated");
    row.metric("omega_c", cb.omega_c)
        .metric("omega* (flow)", omega_star)
        .metric("plan energy", check.max_energy)
        .metric("upper (20*omega_c)", plan.capacity_bound)
        .metric("plan/omega_c", check.max_energy / std::max(cb.omega_c, 1e-9),
                2);
  });

  BenchSection& online = b.section("online");
  const Scenario& st = reg.at("alternating/len8/n40");
  online.run_case(st.name, [&b, &st](MetricRow& row) {
    const auto jobs = st.jobs();
    const DemandMap demand = demand_of_stream(jobs, 2);
    StreamConfig cfg;
    cfg.online = default_online_config(demand, /*seed=*/3);
    const OnlineMetrics m = serve_stream(2, cfg, jobs).metrics;
    if (m.jobs_failed != 0) b.fail("smoke online run dropped jobs");
    row.metric("capacity W", cfg.online.capacity)
        .metric("served", m.jobs_served)
        .metric("failed", m.jobs_failed)
        .metric("msgs", m.network.total())
        .metric("max energy", m.max_energy_spent);
  });

  b.note("Smoke: the Thm 1.4.1 sandwich and a full online run at the "
         "Lemma 3.3.1 capacity, in seconds — the CI quick-bench gate.");
}

}  // namespace

void register_builtin_suites() {
  static const bool registered = [] {
    register_suite({"offline",
                    "E4: Theorem 1.4.1 offline bounds across workloads "
                    "(l = 2, upper factor 2*3^2+2 = 20)",
                    suite_offline});
    register_suite({"online",
                    "E6: Theorem 1.4.2 — empirical Won vs offline bounds "
                    "(l = 2, Lemma 3.3.1 factor 4*3^2+2 = 38)",
                    suite_online});
    register_suite({"square",
                    "E1: square demand (Fig 2.1a), d = 100 per point",
                    suite_square});
    register_suite({"line",
                    "E2: line demand (Fig 2.1b) and the Fig 2.2 strategy",
                    suite_line});
    register_suite({"point",
                    "E3: point demand (Fig 2.1c) and the Fig 2.3 recall",
                    suite_point});
    register_suite({"broken",
                    "E7: Fig 4.1 — weighted LP bound vs true requirement",
                    suite_broken});
    register_suite({"alg1",
                    "E5: Algorithm 1 — approximation quality and the "
                    "linear-time scaling claim",
                    suite_alg1});
    register_suite({"transfer",
                    "E8: Chapter 5 — transfer bounds, line collector closed "
                    "forms, pooling ablation",
                    suite_transfer});
    register_suite({"baselines",
                    "E9: centralized greedy vs the distributed strategy; "
                    "Clarke-Wright for context",
                    suite_baselines});
    register_suite({"ablations",
                    "E11: strategy ablations (smart-dust stream, 200 jobs, "
                    "W fixed at 10)",
                    suite_ablations});
    register_suite({"graphs",
                    "E12: omega* on general graphs (extension; grid column "
                    "anchors against the lattice implementation)",
                    suite_graphs});
    register_suite({"substrates",
                    "E10: substrate micro-benchmarks (harness-timed)",
                    suite_substrates});
    register_suite({"dim_sweep",
                    "E13: the offline sandwich and the online strategy at "
                    "l = 2, 3, 4 (Point::kMaxDim)",
                    suite_dim_sweep});
    register_suite({"stream_scaling",
                    "E15: streaming engine throughput vs threads/batch on "
                    "the large-grid stream",
                    suite_stream_scaling});
    register_suite({"smoke",
                    "CI quick gate: tiny offline sandwich + tiny online run",
                    suite_smoke});
    return true;
  }();
  (void)registered;
}

}  // namespace cmvrp
