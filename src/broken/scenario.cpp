#include "broken/scenario.h"

#include "util/check.h"

namespace cmvrp {

Fig41Scenario make_fig41(std::int64_t r1, std::int64_t r2) {
  CMVRP_CHECK(r1 >= 1);
  CMVRP_CHECK_MSG(r2 > 2 * r1, "the example needs r2 >> r1 (at least 2·r1)");
  Fig41Scenario s;
  s.r1 = r1;
  s.r2 = r2;
  s.k = Point{0, 0};
  s.i = Point{-r1, 0};
  s.j = Point{r1, 0};
  s.demand.set(s.i, static_cast<double>(r1));
  s.demand.set(s.j, static_cast<double>(r1));
  s.longevity.k = s.k;
  s.longevity.radius = r1 + r2;
  s.jobs = alternating_stream(s.i, s.j, 2 * r1);
  return s;
}

Fig41Measurement measure_fig41(const Fig41Scenario& s) {
  Fig41Measurement m;
  // LP bound via the weighted ω_T of Theorem 4.1.1 over the three
  // interesting subsets ({i}, {j}, {i,j} — the support).
  m.lp_bound = broken_lower_bound_enumerate(s.demand, s.longevity);

  // Direct simulation: only k can serve (insiders are broken; outsiders
  // would need W >= r2 to arrive, which is out of scope at W = O(r1)).
  // k follows the arrival sequence i, j, i, j, …
  double travel = 0.0;
  double service = 0.0;
  Point pos = s.k;
  for (const auto& job : s.jobs) {
    travel += static_cast<double>(l1_distance(pos, job.position));
    pos = job.position;
    service += 1.0;
  }
  m.true_requirement = travel + service;
  m.paper_travel = static_cast<double>(
      s.r1 + (2 * s.r1 - 1) * 2 * s.r1);
  CMVRP_CHECK_MSG(travel == m.paper_travel,
                  "simulated travel " << travel << " != paper formula "
                                      << m.paper_travel);
  m.ratio = m.true_requirement / m.lp_bound;
  return m;
}

}  // namespace cmvrp
