// Deterministic fixed-bucket latency histogram.
//
// Latencies in this codebase are integer sim-time deltas (SimTime ticks
// of a cube's protocol clock plus arrival-index ticks of admission
// wait), so percentiles need no sketch: one counter per integer value,
// grown lazily to the largest value observed, gives *exact* nearest-rank
// percentiles — and, unlike a t-digest or sampled reservoir, the whole
// state is a pure function of the multiset of values added. That is the
// property the streaming engine's bit-identical contract needs: merging
// per-cube histograms is a commutative integer-vector sum, so p50/p90/
// p99 and the digest come out identical for every thread count and batch
// size (the engine still folds cubes in ascending-corner order, same as
// OnlineMetrics).
//
// Values above max_value clamp into one overflow bucket: percentiles
// landing there report max_value + 1 (a sentinel recognizably past the
// bucket range), while observed_max() stays exact. Memory is
// O(largest in-range value added), not O(max_value): the bucket array
// stays unallocated until the first positive in-range value, and until
// then bucket 0 holds count() − overflow_count() samples. A histogram
// of zeros — every latency of a cube that never waits — is the header
// alone.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace cmvrp {

class LatencyHistogram {
 public:
  // Default clamp: far above any protocol-clock latency the engine
  // produces, tiny next to the lazy-growth allocation actually paid.
  static constexpr std::int64_t kDefaultMaxValue = 1 << 20;

  explicit LatencyHistogram(std::int64_t max_value = kDefaultMaxValue);

  // Records one latency; negative values are a caller bug (checked).
  void add(std::int64_t value);

  // Folds `other` in (same max_value required — checked). Commutative
  // and associative: bucket counts are integer sums.
  void merge(const LatencyHistogram& other);

  std::uint64_t count() const { return count_; }
  std::int64_t max_value() const { return max_value_; }
  std::uint64_t overflow_count() const { return overflow_; }
  // Exact largest value added (not clamped); 0 when empty.
  std::int64_t observed_max() const { return count_ == 0 ? 0 : observed_max_; }

  // Nearest-rank percentile over the *clamped* samples: the smallest
  // value whose cumulative count reaches ceil(p/100 · count), where
  // overflowed samples sit at max_value + 1. Exact (matches sorting the
  // clamped samples and indexing); 0 when empty. p must be in [0, 100].
  std::int64_t percentile(double p) const;

  // Order-invariant 64-bit digest of (value, count) pairs plus the
  // overflow bucket and observed max — equal iff the clamped multisets
  // (and observed maxima) are equal, for CI diffing.
  std::uint64_t digest() const;

  friend bool operator==(const LatencyHistogram& a, const LatencyHistogram& b);
  friend bool operator!=(const LatencyHistogram& a,
                         const LatencyHistogram& b) {
    return !(a == b);
  }

 private:
  // Samples of value v: counts_[v] once counts_ is allocated; before,
  // zeros() for v = 0 and none for the other values.
  std::uint64_t bucket(std::size_t v) const;
  // Buckets bucket() can report nonzero: counts_.size(), or 1 for the
  // zeros while counts_ is unallocated.
  std::size_t buckets() const;
  // Samples of value 0 while counts_ is unallocated.
  std::uint64_t zeros() const { return count_ - overflow_; }

  std::int64_t max_value_;
  // counts_[v] = samples of value v; empty until the first positive
  // in-range value (see the file comment).
  std::vector<std::uint64_t> counts_;
  std::uint64_t overflow_ = 0;         // samples with value > max_value_
  std::uint64_t count_ = 0;
  std::int64_t observed_max_ = 0;
};

}  // namespace cmvrp
