#include "grid/demand_map.h"

#include <algorithm>

namespace cmvrp {

std::vector<Point> DemandMap::support() const {
  std::vector<Point> out;
  out.reserve(d_.size());
  for (const auto& [p, v] : d_) {
    (void)v;
    out.push_back(p);
  }
  std::sort(out.begin(), out.end());
  return out;
}

double DemandMap::total() const {
  double s = 0.0;
  for (const auto& [p, v] : d_) {
    (void)p;
    s += v;
  }
  return s;
}

double DemandMap::max_demand() const {
  double m = 0.0;
  for (const auto& [p, v] : d_) {
    (void)p;
    m = std::max(m, v);
  }
  return m;
}

double DemandMap::sum_in(const Box& box) const {
  double s = 0.0;
  // Iterate whichever side is smaller: the map or the box.
  if (static_cast<std::int64_t>(d_.size()) <= box.volume()) {
    for (const auto& [p, v] : d_)
      if (box.contains(p)) s += v;
  } else {
    box.for_each_point([&](const Point& p) { s += at(p); });
  }
  return s;
}

Box DemandMap::bounding_box() const {
  CMVRP_CHECK_MSG(!d_.empty(), "bounding box of empty demand map");
  Point lo = d_.begin()->key;
  Point hi = lo;
  for (const auto& [p, v] : d_) {
    (void)v;
    for (int i = 0; i < dim_; ++i) {
      lo[i] = std::min(lo[i], p[i]);
      hi[i] = std::max(hi[i], p[i]);
    }
  }
  return Box(lo, hi);
}

}  // namespace cmvrp
