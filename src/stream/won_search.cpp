#include "stream/won_search.h"

#include <algorithm>

#include "core/cube_bound.h"
#include "grid/demand_map.h"
#include "online/capacity_search.h"
#include "stream/engine.h"
#include "util/check.h"

namespace cmvrp {

namespace {

bool succeeds(const std::vector<Job>& jobs, int dim,
              const OnlineConfig& config, OnlineMetrics* metrics_out) {
  StreamConfig stream;
  stream.online = config;
  const StreamResult r = serve_stream(dim, stream, jobs);
  if (metrics_out != nullptr) *metrics_out = r.metrics;
  return r.metrics.jobs_failed == 0;
}

}  // namespace

CapacitySearchResult find_min_online_capacity(const std::vector<Job>& jobs,
                                              int dim, std::uint64_t seed,
                                              double tol) {
  CMVRP_CHECK(!jobs.empty());
  CMVRP_CHECK(tol > 0.0);
  const DemandMap demand = demand_of_stream(jobs, dim);
  OnlineConfig config = default_online_config(demand, seed);
  const CubeBound cb = cube_bound(demand);

  CapacitySearchResult result;
  result.omega_c = cb.omega_c;
  result.won_theory = won_upper_bound(cb.omega_c, dim);

  // Bracket: serving even one job costs >= 1, and replacements need
  // travel, so start the lower end at 0; grow the upper end until the
  // strategy succeeds (the theory bound should already work).
  double hi = std::max(result.won_theory, 4.0);
  config.capacity = hi;
  OnlineMetrics hi_metrics;
  ++result.simulations;
  while (!succeeds(jobs, dim, config, &hi_metrics)) {
    hi *= 2.0;
    CMVRP_CHECK_MSG(hi < 1e12, "online strategy never succeeded");
    config.capacity = hi;
    ++result.simulations;
  }
  result.at_minimum = hi_metrics;

  double lo = 0.0;
  while (hi - lo > tol) {
    const double mid = 0.5 * (lo + hi);
    config.capacity = mid;
    OnlineMetrics m;
    ++result.simulations;
    if (succeeds(jobs, dim, config, &m)) {
      hi = mid;
      result.at_minimum = m;
    } else {
      lo = mid;
    }
  }
  result.won_empirical = hi;
  return result;
}

}  // namespace cmvrp
