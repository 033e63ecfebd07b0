// Dense value field over a finite box, with ℓ-dimensional prefix sums and
// a sliding cube-window maximiser.
//
// Corollary 2.2.7 and Algorithm 1 both reduce to questions of the form
// "what is the maximum total demand over all s-cubes?" — prefix sums give
// every such query in O(2^ℓ) after O(n^ℓ) preprocessing.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "grid/box.h"
#include "grid/demand_map.h"
#include "grid/point.h"
#include "util/check.h"

namespace cmvrp {

class DenseGrid {
 public:
  // A zero-filled field over `box`.
  explicit DenseGrid(const Box& box);

  // Densifies a sparse demand map over its bounding box (or a given box).
  static DenseGrid from_demand(const DemandMap& d);
  static DenseGrid from_demand(const DemandMap& d, const Box& box);

  const Box& box() const { return box_; }
  int dim() const { return box_.dim(); }

  double at(const Point& p) const { return data_[index_of(p)]; }
  void set(const Point& p, double v) { data_[index_of(p)] = v; }
  void add(const Point& p, double v) { data_[index_of(p)] += v; }

  double total() const;
  double max_value() const;

 private:
  friend class PrefixSums;
  std::size_t index_of(const Point& p) const {
    CMVRP_CHECK_MSG(box_.contains(p),
                    "point " << p.to_string() << " outside " << box_.to_string());
    std::size_t idx = 0;
    for (int i = 0; i < box_.dim(); ++i) {
      idx = idx * static_cast<std::size_t>(box_.side(i)) +
            static_cast<std::size_t>(p[i] - box_.lo()[i]);
    }
    return idx;
  }

  Box box_;
  std::vector<double> data_;
};

// Inclusive ℓ-dimensional prefix sums over a DenseGrid snapshot. The
// table is built in blocked runs: the padded array is viewed as
// [outer][len][inner] runs per axis and accumulated over contiguous inner
// spans — no per-element index division, vectorizable.
class PrefixSums {
 public:
  explicit PrefixSums(const DenseGrid& grid);

  // Sum of the grid restricted to `query` (clipped to the grid's box):
  // 2^ℓ prefix reads, summed by inclusion–exclusion. Allocates nothing.
  double box_sum(const Box& query) const;

  // Maximum of box_sum over all side^ℓ cubes whose intersection with the
  // grid box is the full cube (i.e. cubes fully inside). When no cube of
  // that size fits, falls back to cubes clipped at the boundary, which is
  // what the paper's "all ℓ-cubes in Z^ℓ" means for demand supported on a
  // finite set: exterior demand is zero, so clipped windows are equivalent.
  // The 2^ℓ corner offsets and signs are computed once per call; each
  // window then costs 2^ℓ reads and adds at a flat index, in box_sum's
  // order — so each window sum is box_sum's, bit for bit — and nothing
  // is allocated.
  double max_cube_sum(std::int64_t side) const;

 private:
  Box box_;
  std::vector<std::int64_t> sides_;
  std::vector<std::size_t> stride_;  // of the padded array
  std::vector<double> ps_;  // shape: (side_i + 1) per axis, row-major
};

}  // namespace cmvrp
