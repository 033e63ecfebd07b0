// Streaming summary statistics: the bench harness's per-case timing and
// the comparator's noise margins.
#pragma once

#include <cstddef>

namespace cmvrp {

// Numerically stable streaming mean / variance (Welford).
class RunningStats {
 public:
  void add(double x);
  void merge(const RunningStats& other);

  std::size_t count() const { return n_; }
  double mean() const;
  double variance() const;  // population variance; 0 when n < 2
  double stddev() const;
  double min() const;
  double max() const;
  double sum() const { return sum_; }

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
  double sum_ = 0.0;
};

}  // namespace cmvrp
