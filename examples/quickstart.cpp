// Quickstart: the CMVRP pipeline end to end on a small scenario.
//
//   1. Describe demand on the grid (here: a hotspot plus background).
//   2. Compute the paper's bounds: ω_c ≤ Woff ≤ (2·3^ℓ+ℓ)·ω_c (Thm 1.4.1)
//      and the Algorithm 1 linear-time estimate.
//   3. Materialize the Lemma 2.2.5 offline plan and verify it.
//   4. Replay the same demand as an online stream through the Chapter 3
//      distributed strategy and compare energy budgets (Thm 1.4.2).
#include <algorithm>
#include <iostream>

#include "core/algorithm1.h"
#include "core/bounds.h"
#include "core/offline_planner.h"
#include "online/capacity_search.h"
#include "stream/engine.h"
#include "util/table.h"
#include "workload/generators.h"

int main() {
  using namespace cmvrp;

  // 1. Demand: 200 clustered events in a 32x32 field.
  Rng rng(2008);
  const Box field(Point{0, 0}, Point{31, 31});
  DemandMap demand = clustered_demand(field, /*clusters=*/3, /*count=*/200,
                                      /*sigma=*/2.5, rng);
  std::cout << "Demand: " << demand.total() << " unit jobs over "
            << demand.support_size() << " vertices, max per vertex "
            << demand.max_demand() << "\n\n";

  // 2. Offline bounds.
  const OffBounds bounds = offline_bounds(demand, 32.0 * 32.0);
  const Algorithm1Result alg1 = algorithm1(demand, 32);

  // 3. Constructive plan (Lemma 2.2.5).
  const OfflinePlan plan = plan_offline(demand);
  const PlanCheck check = verify_plan(plan, demand);

  Table t({"quantity", "value", "source"});
  t.row().cell("omega_c (lower bound)").cell(bounds.omega_c).cell(
      "Cor. 2.2.7");
  t.row().cell("Woff upper bound").cell(bounds.upper).cell("Lem. 2.2.5");
  t.row().cell("plan max energy").cell(check.max_energy).cell(
      "constructive plan");
  t.row().cell("Algorithm 1 estimate").cell(alg1.estimate).cell("Alg. 1");
  t.row().cell("plan verified").cell(check.ok ? "yes" : check.issue).cell(
      "verify_plan");
  t.print(std::cout);

  // 4. Online strategy on the same demand as a stream. Lemma 3.3.1's
  // capacity is deliberately generous; deploy a quarter of it so the
  // replacement machinery (diffusing computations) actually exercises.
  Rng order(7);
  const auto jobs = stream_from_demand(demand, ArrivalOrder::kShuffled, order);
  StreamConfig config;
  config.online = default_online_config(demand);
  config.online.capacity = std::max(6.0, config.online.capacity / 4.0);
  const OnlineMetrics m = serve_stream(2, config, jobs).metrics;
  const bool ok = m.jobs_failed == 0;

  std::cout << "\nOnline strategy (W = " << config.online.capacity
            << ", cube side " << config.online.cube_side << "):\n";
  Table t2({"metric", "value"});
  t2.row().cell("all jobs served").cell_bool(ok);
  t2.row().cell("jobs served").cell(m.jobs_served);
  t2.row().cell("replacements").cell(m.replacements);
  t2.row().cell("diffusing computations").cell(m.computations_started);
  t2.row().cell("messages (query/reply/move)")
      .cell(m.network.queries + m.network.replies + m.network.moves);
  t2.row().cell("max energy spent").cell(m.max_energy_spent);
  t2.print(std::cout);

  std::cout << "\nTheorem 1.4.2 in action: online max energy "
            << m.max_energy_spent << " vs offline plan " << check.max_energy
            << " (both Θ(omega_c = " << bounds.omega_c << "))\n";
  return ok && check.ok ? 0 : 1;
}
