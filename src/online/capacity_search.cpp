#include "online/capacity_search.h"

#include <algorithm>

#include "core/cube_bound.h"
#include "util/check.h"

namespace cmvrp {

OnlineConfig default_online_config(const DemandMap& demand,
                                   std::uint64_t seed) {
  CMVRP_CHECK(!demand.empty());
  const CubeBound cb = cube_bound(demand);
  OnlineConfig config;
  config.cube_side = std::max<std::int64_t>(2, cb.cube_side);
  config.anchor = demand.bounding_box().lo();
  config.capacity = won_upper_bound(cb.omega_c, demand.dim());
  config.seed = seed;
  return config;
}

}  // namespace cmvrp
