// Sparse demand function d : Z^ℓ → R≥0 (§1.3).
//
// Job streams add unit demands; analytic workloads (Fig 2.1) set arbitrary
// non-negative reals. Zero entries are erased so support() is exact.
//
// Storage is one FlatMap (util/flat_map.h): the (point, demand) items in
// one contiguous array, in the order their points first got demand, and
// an open-addressed index over them. add() of a positive amount is one
// probe — it finds the point or appends it, with no per-point heap node
// — and reserve() sizes both arrays up front, so a table reserved for
// its distinct points never regrows. Zeroing a point that has no demand
// is one probe too; zeroing one that has demand closes its gap in the
// array, O(size), and keeps the order of the others.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "grid/box.h"
#include "grid/point.h"
#include "util/check.h"
#include "util/flat_map.h"

namespace cmvrp {

class DemandMap {
 public:
  explicit DemandMap(int dim) : dim_(dim) {
    CMVRP_CHECK(dim >= 1 && dim <= Point::kMaxDim);
  }

  int dim() const { return dim_; }

  double at(const Point& p) const {
    CMVRP_CHECK(p.dim() == dim_);
    const double* v = d_.find(p);
    return v == nullptr ? 0.0 : *v;
  }

  void set(const Point& p, double value) {
    CMVRP_CHECK(p.dim() == dim_);
    CMVRP_CHECK_MSG(value >= 0.0, "demand must be non-negative");
    if (value == 0.0)
      d_.erase(p);
    else
      d_[p] = value;
  }

  void add(const Point& p, double delta) {
    CMVRP_CHECK(p.dim() == dim_);
    // A positive amount keeps the demand positive: one probe, which
    // appends the point at 0 when it is new.
    if (delta > 0.0) {
      d_[p] += delta;
      return;
    }
    const double v = at(p) + delta;
    CMVRP_CHECK_MSG(v >= 0.0, "demand made negative at " << p.to_string());
    set(p, v);
  }

  // Room for `points` distinct points without regrowing.
  void reserve(std::size_t points) { d_.reserve(points); }

  std::size_t support_size() const { return d_.size(); }
  bool empty() const { return d_.empty(); }

  // Points with strictly positive demand, in deterministic (sorted) order.
  std::vector<Point> support() const;

  double total() const;
  double max_demand() const;  // D in §2.3 (0 for an empty map)

  // Sum of demand inside a box.
  double sum_in(const Box& box) const;

  // Smallest box containing the support. Requires a non-empty map.
  Box bounding_box() const;

  // Iteration over (point, demand) items in insertion order: the order
  // the points first got demand, kept when another point is zeroed. Use
  // support() for the sorted points.
  auto begin() const { return d_.begin(); }
  auto end() const { return d_.end(); }

 private:
  int dim_;
  FlatMap<Point, double, PointHash> d_;
};

}  // namespace cmvrp
