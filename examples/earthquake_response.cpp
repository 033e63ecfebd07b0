// Example 3 of the paper (§2.1.3, Figures 2.1(c) and 2.3): all demand at a
// single point — "using the mobile vehicles to detect the earthquake."
//
// Offline: W₃ solves W(2W+1)² = d; capacity 3W₃ suffices by pulling in the
// (2W₃+1)-square around the epicenter. This example also runs the online
// strategy against an aftershock sequence at the same epicenter, including
// a variant where the first responders break (Chapter 4 flavour).
#include <iostream>

#include "core/closed_forms.h"
#include "core/offline_planner.h"
#include "core/omega.h"
#include "online/capacity_search.h"
#include "online/pairing.h"
#include "stream/engine.h"
#include "util/table.h"
#include "workload/generators.h"

int main() {
  using namespace cmvrp;

  std::cout << "Offline (Fig 2.3): capacity 3*W3 via the square recall\n";
  Table t({"d (jobs at epicenter)", "W3 (paper)", "3*W3", "omega* (exact)",
           "plan max energy", "plan ok"});
  for (double d : {64.0, 512.0, 4096.0, 32768.0}) {
    const Point epicenter{0, 0};
    const DemandMap demand = point_demand(d, epicenter);
    const double w3 = example_point_w3(d);
    const double omega = omega_for_set({epicenter}, demand);
    const OfflinePlan plan = plan_offline(demand);
    const PlanCheck check = verify_plan(plan, demand);
    t.row()
        .cell(d, 0)
        .cell(w3)
        .cell(3.0 * w3)
        .cell(omega)
        .cell(check.max_energy)
        .cell_bool(check.ok);
  }
  t.print(std::cout);

  std::cout << "\nOnline: 300 aftershocks at the epicenter, distributed "
               "strategy with replacements\n";
  const Point epicenter{12, 12};
  std::vector<Job> shocks;
  for (int i = 0; i < 300; ++i) shocks.push_back({epicenter, i});
  const DemandMap demand = demand_of_stream(shocks, 2);
  StreamConfig config;
  config.online = default_online_config(demand, 3);

  Table t2({"variant", "served", "failed", "replacements",
            "monitor rescues", "max energy"});
  {
    const OnlineMetrics m = serve_stream(2, config, shocks).metrics;
    t2.row()
        .cell("healthy fleet")
        .cell(m.jobs_served)
        .cell(m.jobs_failed)
        .cell(m.replacements)
        .cell(m.monitor_initiations)
        .cell(m.max_energy_spent);
  }
  {
    StreamEngine engine(2, config);
    const CubePairing pairing(2, config.online.anchor, config.online.cube_side);
    // The epicenter's own vehicle and its partner are damaged by the
    // quake: they break after a quarter of their energy.
    engine.inject_break_after(epicenter, 0.25);
    engine.inject_break_after(pairing.partner(epicenter), 0.25);
    engine.ingest(shocks);
    const OnlineMetrics m = engine.finish().metrics;
    t2.row()
        .cell("damaged first responders")
        .cell(m.jobs_served)
        .cell(m.jobs_failed)
        .cell(m.replacements)
        .cell(m.monitor_initiations)
        .cell(m.max_energy_spent);
  }
  t2.print(std::cout);
  return 0;
}
