#include <gtest/gtest.h>

#include <deque>
#include <set>
#include <vector>

#include "util/check.h"
#include "util/fifo.h"
#include "util/flat_map.h"
#include "util/hash.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/table.h"

namespace cmvrp {
namespace {

TEST(Check, ThrowsWithLocation) {
  try {
    CMVRP_CHECK_MSG(1 == 2, "math broke " << 42);
    FAIL() << "expected throw";
  } catch (const check_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("1 == 2"), std::string::npos);
    EXPECT_NE(what.find("math broke 42"), std::string::npos);
  }
}

TEST(Fifo, MatchesDequeAcrossWrapAndGrowth) {
  // Random pushes and pops, so the ring wraps at every capacity it grows
  // through; std::deque is the oracle.
  Fifo<int> fifo;
  std::deque<int> oracle;
  EXPECT_TRUE(fifo.empty());
  Rng rng(17);
  for (int k = 0; k < 5000; ++k) {
    if (oracle.empty() || rng.next_below(5) < 3) {
      fifo.push_back(k);
      oracle.push_back(k);
    } else {
      ASSERT_EQ(fifo.front(), oracle.front());
      fifo.pop_front();
      oracle.pop_front();
    }
    ASSERT_EQ(fifo.size(), oracle.size());
  }
  while (!oracle.empty()) {
    ASSERT_EQ(fifo.front(), oracle.front());
    fifo.pop_front();
    oracle.pop_front();
  }
  EXPECT_TRUE(fifo.empty());
}

TEST(FlatMap, SlotsStayValidAcrossGrowth) {
  // A slot handed out early still names its key's value after the index
  // has been rebuilt many times over: network heartbeat rings cache them.
  FlatMap<std::uint64_t, int, U64Hash> map;
  std::vector<std::uint32_t> slots;
  for (std::uint64_t key = 0; key < 1000; ++key) {
    slots.push_back(map.slot(key * 7919));
    map.at(slots.back()) = static_cast<int>(key);
  }
  EXPECT_EQ(map.find_slot(3), (FlatMap<std::uint64_t, int, U64Hash>::kNoSlot));
  EXPECT_EQ(map.size(), 1000u);
  for (std::uint64_t key = 0; key < 1000; ++key) {
    ASSERT_EQ(map.slot(key * 7919), slots[key]);  // found, not re-inserted
    ASSERT_EQ(map.find_slot(key * 7919), slots[key]);
    ASSERT_EQ(map.at(slots[key]), static_cast<int>(key));
  }
  EXPECT_EQ(map.size(), 1000u);
}

TEST(Rng, DeterministicForSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i)
    if (a.next_u64() == b.next_u64()) ++same;
  EXPECT_LT(same, 2);
}

TEST(Rng, NextBelowInRangeAndRoughlyUniform) {
  Rng rng(7);
  std::vector<int> counts(10, 0);
  for (int i = 0; i < 10000; ++i) {
    const auto v = rng.next_below(10);
    ASSERT_LT(v, 10u);
    ++counts[static_cast<std::size_t>(v)];
  }
  for (int c : counts) EXPECT_NEAR(c, 1000, 250);
}

TEST(Rng, NextIntBounds) {
  Rng rng(9);
  for (int i = 0; i < 1000; ++i) {
    const auto v = rng.next_int(-5, 5);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 5);
  }
  EXPECT_EQ(rng.next_int(3, 3), 3);
}

TEST(Rng, DoubleInUnitInterval) {
  Rng rng(11);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.next_double();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(Rng, GaussianMoments) {
  Rng rng(13);
  RunningStats s;
  for (int i = 0; i < 20000; ++i) s.add(rng.next_gaussian());
  EXPECT_NEAR(s.mean(), 0.0, 0.05);
  EXPECT_NEAR(s.stddev(), 1.0, 0.05);
}

TEST(Rng, WeightedSamplingRespectsWeights) {
  Rng rng(17);
  std::vector<double> w{1.0, 0.0, 3.0};
  int c0 = 0, c2 = 0;
  for (int i = 0; i < 8000; ++i) {
    const auto k = rng.next_weighted(w);
    ASSERT_NE(k, 1u);
    if (k == 0)
      ++c0;
    else
      ++c2;
  }
  EXPECT_NEAR(static_cast<double>(c2) / c0, 3.0, 0.5);
}

TEST(Rng, NextBelowOneIsAlwaysZero) {
  Rng rng(41);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(rng.next_below(1), 0u);
}

TEST(Rng, PowerOfTwoBoundTakesOneDrawAndMasksIt) {
  // What the rejection loop returns for these bounds, without dividing:
  // one draw per call (the streams stay aligned), reduced mod bound.
  for (const std::uint64_t bound :
       {std::uint64_t{1}, std::uint64_t{2}, std::uint64_t{4},
        std::uint64_t{1} << 20, std::uint64_t{1} << 63}) {
    Rng a(53), b(53);
    for (int i = 0; i < 100; ++i)
      ASSERT_EQ(a.next_below(bound), b.next_u64() % bound) << bound;
  }
}

TEST(Rng, NextIntDegenerateRange) {
  Rng rng(43);
  for (std::int64_t lo : {std::int64_t{-7}, std::int64_t{0}, std::int64_t{9}})
    for (int i = 0; i < 10; ++i) EXPECT_EQ(rng.next_int(lo, lo), lo);
}

TEST(Rng, WeightedSinglePositiveWeightAlwaysChosen) {
  Rng rng(47);
  const std::vector<double> w{0.0, 0.0, 5.0, 0.0};
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(rng.next_weighted(w), 2u);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(rng.next_weighted({2.5}), 0u);
}

TEST(Rng, SameSeedReplaysBitForBitAcrossAllDraws) {
  Rng a(0xfeedface), b(0xfeedface);
  for (int i = 0; i < 200; ++i) {
    EXPECT_EQ(a.next_u64(), b.next_u64());
    EXPECT_EQ(a.next_below(97), b.next_below(97));
    EXPECT_EQ(a.next_int(-1000, 1000), b.next_int(-1000, 1000));
    EXPECT_EQ(a.next_double(), b.next_double());
    EXPECT_EQ(a.next_bool(0.3), b.next_bool(0.3));
    EXPECT_EQ(a.next_gaussian(), b.next_gaussian());
    EXPECT_EQ(a.next_weighted({1.0, 2.0, 3.0}), b.next_weighted({1.0, 2.0, 3.0}));
  }
  // Children derived at the same point replay identically too.
  Rng ca = a.split(), cb = b.split();
  for (int i = 0; i < 50; ++i) EXPECT_EQ(ca.next_u64(), cb.next_u64());
}

TEST(Rng, CoreContinuesTheSequenceWithoutTheGaussianSpare) {
  // xoshiro256** under splitmix64 seeding: the first draws of seed 42,
  // as recorded before the state moved into Xoshiro256.
  Rng rng(42);
  EXPECT_EQ(rng.next_u64(), 0x15780b2e0c2ec716u);
  EXPECT_EQ(rng.next_u64(), 0x6104d9866d113a7eu);
  EXPECT_EQ(rng.next_u64(), 0xae17533239e499a1u);
  EXPECT_EQ(rng.next_below(1000), 193u);
  // A copy of the state (what a network keeps) draws on exactly where
  // the Rng stands, whatever Gaussian spare the Rng holds.
  Rng a(9), b(9);
  a.next_gaussian();  // two uniform draws, one value kept as the spare
  b.next_double();
  b.next_double();
  Xoshiro256 core = a.core();
  for (int i = 0; i < 100; ++i) EXPECT_EQ(core.next_below(5), b.next_below(5));
}

TEST(Rng, SplitProducesIndependentStream) {
  Rng a(21);
  Rng child = a.split();
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 100; ++i) {
    seen.insert(a.next_u64());
    seen.insert(child.next_u64());
  }
  EXPECT_EQ(seen.size(), 200u);
}

TEST(Rng, ShuffleIsPermutation) {
  Rng rng(23);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7};
  auto w = v;
  rng.shuffle(w);
  std::sort(w.begin(), w.end());
  EXPECT_EQ(v, w);
}

TEST(RunningStats, MeanVarianceMinMax) {
  RunningStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_DOUBLE_EQ(s.variance(), 4.0);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(RunningStats, MergeMatchesSequential) {
  Rng rng(31);
  RunningStats all, a, b;
  for (int i = 0; i < 500; ++i) {
    const double x = rng.next_double(-3, 5);
    all.add(x);
    (i % 2 == 0 ? a : b).add(x);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-12);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-9);
  EXPECT_DOUBLE_EQ(a.min(), all.min());
  EXPECT_DOUBLE_EQ(a.max(), all.max());
}

TEST(Table, RendersAlignedGrid) {
  Table t({"name", "value"});
  t.row().cell("alpha").cell(std::int64_t{42});
  t.row().cell("b").cell(3.14159, 2);
  const std::string s = t.to_string();
  EXPECT_NE(s.find("alpha"), std::string::npos);
  EXPECT_NE(s.find("3.14"), std::string::npos);
  EXPECT_NE(s.find("| name"), std::string::npos);
  EXPECT_EQ(t.row_count(), 2u);
}

TEST(Table, RejectsOverflowingRow) {
  Table t({"only"});
  t.row().cell("x");
  EXPECT_THROW(t.cell("y"), check_error);
}

}  // namespace
}  // namespace cmvrp
