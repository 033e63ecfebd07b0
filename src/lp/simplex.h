// Dense two-phase primal simplex with Bland's anti-cycling rule.
//
// The paper's characterizations rest on LP (2.1), its dual (2.4), and the
// broken-vehicle LP (4.1). These are small, dense, and need exact-ish
// optima plus dual values (the α_i of Lemma 2.2.1), so a self-contained
// tableau simplex is the right tool; no external solver is used.
//
// Model accepted:
//   min / max  c'x
//   subject to a_k' x {<=, >=, =} b_k      for each constraint k
//              x >= 0                       (all variables non-negative)
#pragma once

#include <cstddef>
#include <string>
#include <utility>
#include <vector>

namespace cmvrp {

enum class LpStatus { kOptimal, kInfeasible, kUnbounded };

const char* to_string(LpStatus s);

enum class LpRelation { kLessEqual, kGreaterEqual, kEqual };

struct LpResult {
  LpStatus status = LpStatus::kInfeasible;
  double objective = 0.0;
  std::vector<double> x;      // primal values, one per variable
  std::vector<double> duals;  // one per constraint (shadow prices)
  std::size_t pivots = 0;     // total simplex pivots (both phases)
};

class LpProblem {
 public:
  // `maximize` selects the objective sense; default is minimization.
  explicit LpProblem(bool maximize = false) : maximize_(maximize) {}

  // Adds a variable x_j >= 0 with the given objective coefficient; returns
  // its index.
  std::size_t add_variable(double objective_coeff);

  // Adds the constraint  Σ coeffs[i].second · x_{coeffs[i].first}  rel  rhs.
  // Repeated variable indices within one constraint are summed.
  void add_constraint(
      const std::vector<std::pair<std::size_t, double>>& coeffs,
      LpRelation rel, double rhs);

  LpResult solve() const;

 private:
  struct Row {
    std::vector<std::pair<std::size_t, double>> coeffs;
    LpRelation rel;
    double rhs;
  };

  bool maximize_;
  std::vector<double> obj_;
  std::vector<Row> rows_;
};

}  // namespace cmvrp
