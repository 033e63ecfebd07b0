// The Figure 4.1 counterexample (§4.2).
//
// Demands r₁ at two points i, j at distance 2r₁, arriving alternately.
// Every vehicle inside a circle of radius r₁+r₂ (r₂ ≫ r₁) is broken
// (p = 0) except the midpoint vehicle k (p = 1); everything outside is
// healthy but too far to help at W = O(r₁). The LP (4.1) bound is 2r₁,
// while actually serving the alternating stream forces k to shuttle:
//   travel  =  r₁ + (2r₁ − 1)·2r₁,
// so Woff-b = ω(r₁) — the lower bound is not tight (end of §4.2).
#pragma once

#include <cstdint>
#include <limits>
#include <vector>

#include "broken/longevity.h"
#include "grid/demand_map.h"
#include "grid/point.h"
#include "workload/generators.h"

namespace cmvrp {

// Fig. 4.1's longevities, evaluated on demand: 0 within `radius` of k
// except k itself, 1 elsewhere.
struct Fig41Longevity final : Longevity {
  Point k;
  std::int64_t radius = 0;

  double at(const Point& p) const override {
    return p != k && l1_distance(p, k) <= radius ? 0.0 : 1.0;
  }
  std::int64_t positive_reach(const std::vector<Point>&) const override {
    return std::numeric_limits<std::int64_t>::max();
  }
};

struct Fig41Scenario {
  std::int64_t r1 = 0;
  std::int64_t r2 = 0;
  Point i, j, k;        // demand points and the lone healthy insider
  DemandMap demand;     // d(i) = d(j) = r1
  Fig41Longevity longevity;  // around k, radius r1 + r2
  std::vector<Job> jobs;  // i, j, i, j, … (2·r1 arrivals)

  Fig41Scenario() : demand(2) {}
};

Fig41Scenario make_fig41(std::int64_t r1, std::int64_t r2);

struct Fig41Measurement {
  double lp_bound = 0.0;        // Theorem 4.1.1 value (should be ~2·r1)
  double true_requirement = 0.0;  // energy k actually needs (travel+service)
  double paper_travel = 0.0;    // r1 + (2r1-1)·2r1, the paper's count
  double ratio = 0.0;           // true_requirement / lp_bound (grows ~r1)
};

// Simulates vehicle k serving the alternating stream directly (every other
// vehicle inside the circle is broken; outsiders are out of range at
// W = O(r1)), and evaluates the LP bound on the same instance.
Fig41Measurement measure_fig41(const Fig41Scenario& scenario);

}  // namespace cmvrp
