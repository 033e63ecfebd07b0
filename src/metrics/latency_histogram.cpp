#include "metrics/latency_histogram.h"

#include <algorithm>
#include <cmath>

#include "util/check.h"
#include "util/hash.h"

namespace cmvrp {

LatencyHistogram::LatencyHistogram(std::int64_t max_value)
    : max_value_(max_value) {
  CMVRP_CHECK_MSG(max_value >= 1, "histogram needs at least one bucket");
}

void LatencyHistogram::add(std::int64_t value) {
  CMVRP_CHECK_MSG(value >= 0,
                  "latency values are nonnegative sim-time deltas, got "
                      << value);
  if (value > observed_max_) observed_max_ = value;
  if (value > max_value_) {
    ++overflow_;
  } else if (value > 0 || !counts_.empty()) {
    const auto v = static_cast<std::size_t>(value);
    if (counts_.empty()) {
      counts_.assign(v + 1, 0);
      counts_[0] = zeros();
    } else if (v >= counts_.size()) {
      counts_.resize(v + 1, 0);
    }
    ++counts_[v];
  }
  ++count_;
}

void LatencyHistogram::merge(const LatencyHistogram& other) {
  CMVRP_CHECK_MSG(max_value_ == other.max_value_,
                  "merging histograms with different bucket ranges: "
                      << max_value_ << " vs " << other.max_value_);
  // Unless both arrays are unallocated (the zeros then follow from the
  // counts), fold other's buckets, its implicit zeros included, into an
  // allocated array.
  if (!counts_.empty() || !other.counts_.empty()) {
    if (counts_.empty()) counts_.assign(1, zeros());
    if (other.buckets() > counts_.size()) counts_.resize(other.buckets(), 0);
    for (std::size_t v = 0; v < other.buckets(); ++v)
      counts_[v] += other.bucket(v);
  }
  overflow_ += other.overflow_;
  count_ += other.count_;
  observed_max_ = std::max(observed_max_, other.observed_max_);
}

std::uint64_t LatencyHistogram::bucket(std::size_t v) const {
  if (counts_.empty()) return v == 0 ? zeros() : 0;
  return v < counts_.size() ? counts_[v] : 0;
}

std::size_t LatencyHistogram::buckets() const {
  return counts_.empty() ? 1 : counts_.size();
}

std::int64_t LatencyHistogram::percentile(double p) const {
  CMVRP_CHECK_MSG(p >= 0.0 && p <= 100.0,
                  "percentile must be in [0, 100], got " << p);
  if (count_ == 0) return 0;
  auto rank = static_cast<std::uint64_t>(
      std::ceil(p / 100.0 * static_cast<double>(count_)));
  rank = std::max<std::uint64_t>(rank, 1);
  rank = std::min<std::uint64_t>(rank, count_);
  std::uint64_t cumulative = 0;
  for (std::size_t v = 0; v < buckets(); ++v) {
    cumulative += bucket(v);
    if (cumulative >= rank) return static_cast<std::int64_t>(v);
  }
  return max_value_ + 1;  // the rank lands in the overflow bucket
}

std::uint64_t LatencyHistogram::digest() const {
  // Commutative fold over occupied buckets (each contribution depends
  // only on its (value, count) pair), then the scalars — so the digest,
  // like the histogram, is invariant to the order values were added.
  std::uint64_t h = 0;
  for (std::size_t v = 0; v < buckets(); ++v)
    if (bucket(v) != 0)
      h += mix64(mix64(static_cast<std::uint64_t>(v)) + bucket(v));
  h = mix64(h ^ count_);
  h = mix64(h ^ overflow_);
  h = mix64(h ^ static_cast<std::uint64_t>(observed_max_));
  h = mix64(h ^ static_cast<std::uint64_t>(max_value_));
  return h;
}

bool operator==(const LatencyHistogram& a, const LatencyHistogram& b) {
  if (a.max_value_ != b.max_value_ || a.count_ != b.count_ ||
      a.overflow_ != b.overflow_ || a.observed_max_ != b.observed_max_)
    return false;
  // Trailing zero buckets are representation noise, not content.
  const std::size_t n = std::max(a.buckets(), b.buckets());
  for (std::size_t v = 0; v < n; ++v)
    if (a.bucket(v) != b.bucket(v)) return false;
  return true;
}

}  // namespace cmvrp
