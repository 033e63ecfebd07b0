// The builtin experiment suites: each suite's scenario list and metric
// lambdas, registered with the harness; `cmvrp_cli bench --suite NAME`
// runs them.
//
// Suite names: offline, online, square, line, point, broken, alg1,
// transfer, baselines, ablations, graphs, substrates, smoke.
#pragma once

namespace cmvrp {

// Idempotent; call before find_suite / run_suite.
void register_builtin_suites();

}  // namespace cmvrp
