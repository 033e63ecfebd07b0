#include "grid/neighborhood.h"

#include <deque>
#include <limits>
#include <unordered_map>

#include "util/check.h"

namespace cmvrp {
namespace {

// Saturating/checked accumulation in unsigned __int128, verified to fit
// int64 on return.
std::int64_t narrow_to_int64(unsigned __int128 v) {
  CMVRP_CHECK_MSG(
      v <= static_cast<unsigned __int128>(
               std::numeric_limits<std::int64_t>::max()),
      "neighborhood cardinality overflows int64");
  return static_cast<std::int64_t>(v);
}

}  // namespace

std::int64_t l1_ball_volume(int dim, std::int64_t r) {
  CMVRP_CHECK(dim >= 1 && dim <= Point::kMaxDim);
  CMVRP_CHECK(r >= 0);
  // V(ℓ, r) = Σ_{k=0}^{ℓ} 2^k C(ℓ,k) C(r,k).
  unsigned __int128 total = 0;
  for (int k = 0; k <= dim; ++k) {
    if (static_cast<std::int64_t>(k) > r && k > 0 && r < k) break;
    // C(dim, k)
    unsigned __int128 c_dim_k = 1;
    for (int i = 1; i <= k; ++i)
      c_dim_k = c_dim_k * static_cast<unsigned>(dim - i + 1) /
                static_cast<unsigned>(i);
    // C(r, k)
    unsigned __int128 c_r_k = 1;
    for (int i = 1; i <= k; ++i)
      c_r_k = c_r_k * static_cast<unsigned __int128>(r - i + 1) /
              static_cast<unsigned>(i);
    total += (static_cast<unsigned __int128>(1) << k) * c_dim_k * c_r_k;
  }
  return narrow_to_int64(total);
}

namespace {

// A point y lies in N_r(B) iff Σ_i dist(y_i, [lo_i, hi_i]) <= r.
// Per axis, the number of coordinates at outside-distance d is
//   f_i(0) = side_i,   f_i(d) = 2 for d >= 1.
// Returns g(t) = # of outside-distance vectors summing to exactly t for
// t = 0..r, built by convolving the f_i; since f_i is 2 beyond zero, each
// convolution is
//   g'(t) = side_i * g(t) + 2 * prefix(g)(t-1),
// giving O(ℓ·r) total work. Each g(t), t <= r, is exact: capping the
// array at r only discards distances beyond r.
std::vector<unsigned __int128> outside_distance_counts(
    const std::vector<std::int64_t>& sides, std::int64_t r) {
  CMVRP_CHECK(!sides.empty() &&
              sides.size() <= static_cast<std::size_t>(Point::kMaxDim));
  CMVRP_CHECK(r >= 0);
  for (auto s : sides) CMVRP_CHECK(s >= 1);
  const auto n = static_cast<std::size_t>(r) + 1;
  std::vector<unsigned __int128> g(n, 0);
  g[0] = 1;
  std::vector<unsigned __int128> prefix(n, 0);
  for (std::size_t axis = 0; axis < sides.size(); ++axis) {
    prefix[0] = g[0];
    for (std::size_t t = 1; t < n; ++t) prefix[t] = prefix[t - 1] + g[t];
    const auto side = static_cast<unsigned __int128>(sides[axis]);
    // Walk downward so g still holds the previous axis' values when read.
    for (std::size_t t = n; t-- > 0;) {
      unsigned __int128 v = side * g[t];
      if (t >= 1) v += 2 * prefix[t - 1];
      g[t] = v;
    }
  }
  return g;
}

}  // namespace

std::int64_t box_neighborhood_volume(const std::vector<std::int64_t>& sides,
                                     std::int64_t r) {
  const auto g = outside_distance_counts(sides, r);
  unsigned __int128 total = 0;
  for (const auto v : g) total += v;
  return narrow_to_int64(total);
}

PointSet neighborhood(const PointSet& t, std::int64_t r) {
  std::vector<Point> seeds(t.begin(), t.end());
  return neighborhood(seeds, r);
}

PointSet neighborhood(const std::vector<Point>& t, std::int64_t r) {
  CMVRP_CHECK(r >= 0);
  CMVRP_CHECK_MSG(!t.empty(), "neighborhood of empty set");
  PointSet visited;
  std::deque<std::pair<Point, std::int64_t>> queue;
  for (const auto& p : t) {
    if (visited.insert(p).second) queue.emplace_back(p, 0);
  }
  while (!queue.empty()) {
    auto [p, d] = queue.front();
    queue.pop_front();
    if (d == r) continue;
    for (const auto& q : p.unit_neighbors()) {
      if (visited.insert(q).second) queue.emplace_back(q, d + 1);
    }
  }
  return visited;
}

std::int64_t neighborhood_volume(const std::vector<Point>& t,
                                 std::int64_t r) {
  return static_cast<std::int64_t>(neighborhood(t, r).size());
}

std::vector<Point> l1_ball_points(const Point& c, std::int64_t r) {
  auto set = neighborhood(std::vector<Point>{c}, r);
  return {set.begin(), set.end()};
}

}  // namespace cmvrp
