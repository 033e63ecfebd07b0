#include "util/stats.h"

#include <algorithm>
#include <cmath>

namespace cmvrp {

void RunningStats::add(double x) {
  if (n_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++n_;
  sum_ += x;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
}

void RunningStats::merge(const RunningStats& other) {
  if (other.n_ == 0) return;
  if (n_ == 0) {
    *this = other;
    return;
  }
  const double na = static_cast<double>(n_);
  const double nb = static_cast<double>(other.n_);
  const double delta = other.mean_ - mean_;
  const double n = na + nb;
  m2_ += other.m2_ + delta * delta * na * nb / n;
  mean_ = (na * mean_ + nb * other.mean_) / n;
  n_ += other.n_;
  sum_ += other.sum_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

double RunningStats::mean() const { return n_ == 0 ? 0.0 : mean_; }

double RunningStats::variance() const {
  return n_ < 2 ? 0.0 : m2_ / static_cast<double>(n_);
}

double RunningStats::stddev() const { return std::sqrt(variance()); }

double RunningStats::min() const { return n_ == 0 ? 0.0 : min_; }

double RunningStats::max() const { return n_ == 0 ? 0.0 : max_; }

}  // namespace cmvrp
