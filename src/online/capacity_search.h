// Deployment sizing for the Chapter 3 strategy: the cube side and the
// Lemma 3.3.1 capacity a job stream's demand calls for.
//
// The empirical Won search that bisects W over full runs of the stream
// engine lives one layer up, in stream/won_search.h.
#pragma once

#include <cstdint>

#include "grid/demand_map.h"
#include "online/fleet_core.h"

namespace cmvrp {

// Builds the strategy's deployment parameters from the stream's demand:
// cube side max(2, ⌈ω_c⌉), anchor at the demand bounding box, and the
// Lemma 3.3.1 capacity (unless overridden afterwards).
OnlineConfig default_online_config(const DemandMap& demand,
                                   std::uint64_t seed = 1);

}  // namespace cmvrp
