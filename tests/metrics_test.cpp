// metrics/: the latency histogram's exact-percentile contract (checked
// against a sort-the-samples oracle) and the stride-sampled timeseries'
// deterministic decimation.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "metrics/latency_histogram.h"
#include "metrics/timeseries.h"
#include "util/check.h"
#include "util/rng.h"

namespace cmvrp {
namespace {

// Oracle: nearest-rank percentile by literally sorting the clamped
// samples (values past max_value sit at the max_value + 1 sentinel,
// exactly like the histogram's overflow bucket).
std::int64_t oracle_percentile(std::vector<std::int64_t> values,
                               std::int64_t max_value, double p) {
  if (values.empty()) return 0;
  for (auto& v : values) v = std::min(v, max_value + 1);
  std::sort(values.begin(), values.end());
  auto rank = static_cast<std::uint64_t>(
      std::ceil(p / 100.0 * static_cast<double>(values.size())));
  rank = std::max<std::uint64_t>(rank, 1);
  rank = std::min<std::uint64_t>(rank, values.size());
  return values[static_cast<std::size_t>(rank - 1)];
}

const double kPercentiles[] = {0.0, 1.0, 25.0, 50.0, 90.0, 99.0, 99.9, 100.0};

void expect_matches_oracle(const std::vector<std::int64_t>& values,
                           std::int64_t max_value) {
  LatencyHistogram h(max_value);
  for (const auto v : values) h.add(v);
  ASSERT_EQ(h.count(), values.size());
  for (const double p : kPercentiles)
    EXPECT_EQ(h.percentile(p), oracle_percentile(values, max_value, p))
        << "p=" << p << " n=" << values.size() << " max=" << max_value;
}

TEST(LatencyHistogram, EmptyReportsZero) {
  LatencyHistogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.observed_max(), 0);
  EXPECT_EQ(h.overflow_count(), 0u);
  for (const double p : kPercentiles) EXPECT_EQ(h.percentile(p), 0);
  EXPECT_EQ(h, LatencyHistogram());
  EXPECT_EQ(h.digest(), LatencyHistogram().digest());
}

TEST(LatencyHistogram, TinySizesMatchOracle) {
  expect_matches_oracle({5}, 100);
  expect_matches_oracle({0}, 100);
  expect_matches_oracle({3, 9}, 100);
  expect_matches_oracle({9, 3}, 100);
  expect_matches_oracle({7, 7, 7}, 100);
}

TEST(LatencyHistogram, TiesMatchOracle) {
  std::vector<std::int64_t> values;
  for (int i = 0; i < 50; ++i) values.push_back(4);
  for (int i = 0; i < 50; ++i) values.push_back(11);
  expect_matches_oracle(values, 100);
}

TEST(LatencyHistogram, SingleBucketAllZeros) {
  std::vector<std::int64_t> values(17, 0);
  expect_matches_oracle(values, 100);
  LatencyHistogram h(100);
  for (const auto v : values) h.add(v);
  EXPECT_EQ(h.percentile(100.0), 0);
  EXPECT_EQ(h.observed_max(), 0);
}

TEST(LatencyHistogram, RandomStreamsMatchOracle) {
  Rng rng(42);
  for (const std::size_t n : {3u, 17u, 1000u}) {
    std::vector<std::int64_t> values;
    values.reserve(n);
    for (std::size_t i = 0; i < n; ++i)
      values.push_back(rng.next_int(0, 200));
    expect_matches_oracle(values, 1 << 20);
    // Tight clamp: the same stream with most mass overflowing.
    expect_matches_oracle(values, 16);
  }
}

TEST(LatencyHistogram, OverflowClampsToSentinel) {
  LatencyHistogram h(16);
  h.add(3);
  h.add(999);
  h.add(1000000);
  EXPECT_EQ(h.overflow_count(), 2u);
  EXPECT_EQ(h.observed_max(), 1000000);  // exact, not clamped
  EXPECT_EQ(h.percentile(0.0), 3);
  EXPECT_EQ(h.percentile(100.0), 17);  // max_value + 1 sentinel
  expect_matches_oracle({3, 999, 1000000}, 16);
}

TEST(LatencyHistogram, MergeEqualsBulkAdd) {
  Rng rng(7);
  std::vector<std::int64_t> values;
  for (int i = 0; i < 400; ++i) values.push_back(rng.next_int(0, 40));
  LatencyHistogram whole(32), left(32), right(32);
  for (std::size_t i = 0; i < values.size(); ++i) {
    whole.add(values[i]);
    (i % 2 == 0 ? left : right).add(values[i]);
  }
  LatencyHistogram lr = left;
  lr.merge(right);
  LatencyHistogram rl = right;
  rl.merge(left);  // commutative
  EXPECT_EQ(lr, whole);
  EXPECT_EQ(rl, whole);
  EXPECT_EQ(lr.digest(), whole.digest());
  EXPECT_EQ(rl.digest(), whole.digest());
  for (const double p : kPercentiles)
    EXPECT_EQ(lr.percentile(p), whole.percentile(p));
}

TEST(LatencyHistogram, DigestSeparatesDifferentMultisets) {
  LatencyHistogram a, b;
  a.add(1);
  a.add(2);
  b.add(1);
  b.add(3);
  EXPECT_NE(a.digest(), b.digest());
  EXPECT_NE(a, b);
  b.add(2);
  a.add(3);  // now equal multisets, added in different orders
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.digest(), b.digest());
}

TEST(LatencyHistogram, MergeGrowsBucketsWithoutChangingContent) {
  // Merging a wider histogram (buckets out to 50) into a narrow one must
  // equal the bulk-add result even though the internal vectors differ in
  // length before the merge.
  LatencyHistogram narrow, wide, whole;
  narrow.add(2);
  wide.add(50);
  whole.add(2);
  whole.add(50);
  narrow.merge(wide);
  EXPECT_EQ(narrow, whole);
  EXPECT_EQ(narrow.digest(), whole.digest());
}

TEST(LatencyHistogram, LazyBucketsKeepEveryAnswer) {
  // A histogram holds no buckets until its first positive in-range
  // value; its zeros are count − overflow until then. Digest, percentile,
  // equality and merge give what the eagerly allocated buckets gave:
  // these values were recorded before the change, for an empty, an
  // all-zero, a mixed and an overflow-only histogram and each merge of
  // two of them.
  const std::vector<std::vector<std::int64_t>> inputs = {
      {}, {0, 0, 0, 0, 0}, {0, 3, 0, 7, 2, 2, 0, 12}, {9, 20, 100}};
  const auto make = [&inputs](std::size_t k) {
    LatencyHistogram h(8);
    for (const auto v : inputs[k]) h.add(v);
    return h;
  };
  struct Pin {
    std::uint64_t digest;
    std::uint64_t count;
    std::int64_t p0, p50, p90, p100;
  };
  const Pin alone[] = {
      {0x9a98244ba12c71e1u, 0, 0, 0, 0, 0},
      {0xca3b475a420ad856u, 5, 0, 0, 0, 0},
      {0x7c6e8a70282fe6c4u, 8, 0, 2, 9, 9},
      {0x7ec4aa8aa3d4792bu, 3, 9, 9, 9, 9},
  };
  const Pin merged[4][4] = {
      {alone[0], alone[1], alone[2], alone[3]},
      {alone[1],
       {0x8419cc2b0fd91085u, 10, 0, 0, 0, 0},
       {0x474aa7c9dc0da59du, 13, 0, 0, 7, 9},
       {0xd47180cdb072281bu, 8, 0, 0, 9, 9}},
      {alone[2],
       {0x474aa7c9dc0da59du, 13, 0, 0, 7, 9},
       {0x6b8903f97beab492u, 16, 0, 2, 9, 9},
       {0x84009c9ddaab62cau, 11, 0, 3, 9, 9}},
      {alone[3],
       {0xd47180cdb072281bu, 8, 0, 0, 9, 9},
       {0x84009c9ddaab62cau, 11, 0, 3, 9, 9},
       {0x051863a4d7442645u, 6, 9, 9, 9, 9}},
  };
  const auto expect_pin = [](const LatencyHistogram& h, const Pin& pin,
                             const std::string& what) {
    EXPECT_EQ(h.digest(), pin.digest) << what;
    EXPECT_EQ(h.count(), pin.count) << what;
    EXPECT_EQ(h.percentile(0.0), pin.p0) << what;
    EXPECT_EQ(h.percentile(50.0), pin.p50) << what;
    EXPECT_EQ(h.percentile(90.0), pin.p90) << what;
    EXPECT_EQ(h.percentile(100.0), pin.p100) << what;
  };
  for (std::size_t a = 0; a < 4; ++a) {
    expect_pin(make(a), alone[a], "histogram " + std::to_string(a));
    for (std::size_t b = 0; b < 4; ++b) {
      const std::string what =
          "merge " + std::to_string(a) + "+" + std::to_string(b);
      LatencyHistogram h = make(a);
      h.merge(make(b));
      expect_pin(h, merged[a][b], what);
      // Equal to the merge the other way round and to one histogram of
      // both inputs, whichever of them has its buckets allocated.
      LatencyHistogram other_way = make(b);
      other_way.merge(make(a));
      LatencyHistogram bulk(8);
      for (const auto v : inputs[a]) bulk.add(v);
      for (const auto v : inputs[b]) bulk.add(v);
      EXPECT_EQ(h, other_way) << what;
      EXPECT_EQ(h, bulk) << what;
      EXPECT_EQ(bulk.digest(), merged[a][b].digest) << what;
    }
    // Equality between the four was: each equals only itself.
    for (std::size_t b = 0; b < 4; ++b)
      EXPECT_EQ(make(a) == make(b), a == b) << a << " vs " << b;
  }
}

TEST(LatencyHistogram, RejectsInvalidInput) {
  LatencyHistogram h;
  EXPECT_THROW(h.add(-1), check_error);
  EXPECT_THROW(h.percentile(-0.1), check_error);
  EXPECT_THROW(h.percentile(100.1), check_error);
  EXPECT_THROW(LatencyHistogram(0), check_error);
  LatencyHistogram other(64);
  EXPECT_THROW(h.merge(other), check_error);  // different bucket ranges
}

TEST(Timeseries, StrideZeroNeverDue) {
  Timeseries s(0);
  for (std::int64_t t = 0; t < 100; ++t) EXPECT_FALSE(s.due(t));
}

TEST(Timeseries, DueOnStrideMultiples) {
  Timeseries s(8);
  EXPECT_TRUE(s.due(0));
  EXPECT_FALSE(s.due(7));
  EXPECT_TRUE(s.due(8));
  EXPECT_TRUE(s.due(64));
  EXPECT_FALSE(s.due(65));
}

TEST(Timeseries, DecimationKeepsDoubledStrideMultiples) {
  Timeseries s(2, /*max_samples=*/4);
  for (std::int64_t t = 2; t <= 10; t += 2)
    if (s.due(t)) s.record(t, t, 0);
  // Recording ticks 2,4,6,8 filled the series; tick 10 forced a
  // decimation to the odd positions — ticks 4 and 8, exactly the
  // multiples of the doubled stride (10 is not, and is dropped).
  EXPECT_EQ(s.stride(), 4);
  ASSERT_EQ(s.samples().size(), 2u);
  EXPECT_EQ(s.samples()[0].tick, 4);
  EXPECT_EQ(s.samples()[1].tick, 8);
  // The surviving samples keep their payloads.
  EXPECT_EQ(s.samples()[0].queue_depth, 4);
  EXPECT_EQ(s.samples()[1].queue_depth, 8);
}

TEST(Timeseries, RecordRequiresDueTick) {
  Timeseries s(4);
  EXPECT_THROW(s.record(3, 0, 0), check_error);
  EXPECT_THROW(Timeseries(-1), check_error);
  EXPECT_THROW(Timeseries(2, 1), check_error);
}

TEST(TimeseriesSummary, FoldIsOrderSensitiveAndSkipsEmpty) {
  Timeseries a(2), b(2);
  a.record(2, 1, 100);
  b.record(2, 3, 200);
  TimeseriesSummary ab, ba;
  ab.fold(1, a);
  ab.fold(2, b);
  ba.fold(2, b);
  ba.fold(1, a);
  EXPECT_EQ(ab.cubes_sampled, 2u);
  EXPECT_EQ(ab.samples, 2u);
  EXPECT_EQ(ab.max_queue_depth, 3);
  EXPECT_EQ(ab.max_occupancy_pm, 200);
  // Counts and maxima are order-invariant; the digest pins the order.
  EXPECT_EQ(ab.cubes_sampled, ba.cubes_sampled);
  EXPECT_EQ(ab.max_queue_depth, ba.max_queue_depth);
  EXPECT_NE(ab.digest, ba.digest);

  TimeseriesSummary with_empty = ab;
  with_empty.fold(99, Timeseries(4));  // never sampled: must be a no-op
  EXPECT_EQ(with_empty, ab);
}

}  // namespace
}  // namespace cmvrp
