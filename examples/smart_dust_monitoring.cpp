// Smart Dust scenario (§1.2): a field of micro-sensors tracks a moving
// phenomenon; events arrive online at unpredictable positions. Some
// sensors are defective (break early) and some fail silently — the
// monitoring ring and diffusing computations keep coverage alive, which is
// exactly the robustness claim the paper's motivation makes ("if one
// micro-robot dies, the rest of them can shift and cover").
#include <algorithm>
#include <iostream>

#include "online/capacity_search.h"
#include "stream/engine.h"
#include "util/table.h"
#include "workload/generators.h"

int main() {
  using namespace cmvrp;

  const Box field(Point{0, 0}, Point{23, 23});
  Rng rng(42);
  const auto jobs = smart_dust_stream(field, /*count=*/400,
                                      /*jump_probability=*/0.04, rng);
  const DemandMap demand = demand_of_stream(jobs, 2);

  StreamConfig config;
  config.online = default_online_config(demand, /*seed=*/9);
  // Budget sensors tightly (a fraction of the Lemma 3.3.1 bound) so
  // exhaustion, replacement, and the monitoring ring all come into play.
  config.online.capacity = std::max(8.0, config.online.capacity / 2.5);
  std::cout << "Smart Dust field 24x24, " << jobs.size()
            << " events, deployed capacity W = " << config.online.capacity
            << " (0.4x Lemma 3.3.1), cube side " << config.online.cube_side
            << "\n\n";

  // Failure injections target the busiest sensors — the ones that will
  // actually exhaust and need the protocol's help.
  std::vector<Point> hottest = demand.support();
  std::sort(hottest.begin(), hottest.end(),
            [&](const Point& a, const Point& b) {
              if (demand.at(a) != demand.at(b))
                return demand.at(a) > demand.at(b);
              return a < b;
            });
  if (hottest.size() > 12) hottest.resize(12);

  Table t({"scenario", "served", "failed", "replacements",
           "monitor rescues", "messages", "max energy"});

  // Serves the stream on `engine` (injections already applied) and
  // tabulates the outcome.
  auto report = [&](const char* name, StreamEngine& engine) {
    engine.ingest(jobs);
    const OnlineMetrics m = engine.finish().metrics;
    t.row()
        .cell(name)
        .cell(m.jobs_served)
        .cell(m.jobs_failed)
        .cell(m.replacements)
        .cell(m.monitor_initiations)
        .cell(m.network.total())
        .cell(m.max_energy_spent);
  };

  {  // Scenario 1 (§3.2.5): everything healthy.
    StreamEngine engine(2, config);
    report("all healthy", engine);
  }
  {  // Scenario 2: the busiest vehicles fail to initiate replacements.
    StreamEngine engine(2, config);
    for (const auto& p : hottest) engine.inject_silent_done(p);
    report("hot spots silent-done", engine);
  }
  {  // Scenario 3: the busiest sensors are defective and break early.
    StreamEngine engine(2, config);
    for (std::size_t k = 0; k < std::min<std::size_t>(8, hottest.size()); ++k)
      engine.inject_break_after(hottest[k], /*longevity=*/0.3);
    report("hot spots break early", engine);
  }
  {  // Degraded protocol: monitoring off — silent failures now cost jobs.
    StreamConfig no_ring = config;
    no_ring.online.enable_monitoring = false;
    StreamEngine engine(2, no_ring);
    for (const auto& p : hottest) engine.inject_silent_done(p);
    report("silent-done, no ring", engine);
  }

  t.print(std::cout);
  std::cout << "\nThe ring (§3.2.5) turns silent failures back into served "
               "jobs at a heartbeat-message overhead.\n";
  return 0;
}
