#include "grid/dense_grid.h"

#include <algorithm>
#include <array>

namespace cmvrp {

DenseGrid::DenseGrid(const Box& box) : box_(box) {
  const std::int64_t vol = box.volume();
  CMVRP_CHECK_MSG(vol <= (std::int64_t{1} << 31),
                  "dense grid too large: " << vol << " cells");
  data_.assign(static_cast<std::size_t>(vol), 0.0);
}

DenseGrid DenseGrid::from_demand(const DemandMap& d) {
  return from_demand(d, d.bounding_box());
}

DenseGrid DenseGrid::from_demand(const DemandMap& d, const Box& box) {
  DenseGrid g(box);
  for (const auto& [p, v] : d) {
    CMVRP_CHECK_MSG(box.contains(p), "demand point " << p.to_string()
                                                     << " outside grid box");
    g.add(p, v);
  }
  return g;
}

double DenseGrid::total() const {
  double s = 0.0;
  for (double v : data_) s += v;
  return s;
}

double DenseGrid::max_value() const {
  double m = 0.0;
  for (double v : data_) m = std::max(m, v);
  return m;
}

PrefixSums::PrefixSums(const DenseGrid& grid)
    : box_(grid.box()), sides_(grid.box_.sides()) {
  const int dim = box_.dim();
  // Shape with a zero-border on the low side of each axis.
  std::size_t total = 1;
  for (auto s : sides_) total *= static_cast<std::size_t>(s + 1);
  ps_.assign(total, 0.0);

  // Strides of the padded array.
  stride_.assign(static_cast<std::size_t>(dim), 1);
  for (int i = dim - 2; i >= 0; --i)
    stride_[static_cast<std::size_t>(i)] =
        stride_[static_cast<std::size_t>(i + 1)] *
        static_cast<std::size_t>(sides_[static_cast<std::size_t>(i + 1)] + 1);

  // The grid's innermost axis is contiguous in both the source and the
  // padded array, so the copy moves whole rows; each row's padded base
  // enumerates the outer coordinates with an odometer, +1 per axis for
  // the zero border.
  const auto last_side =
      static_cast<std::size_t>(sides_[static_cast<std::size_t>(dim - 1)]);
  std::size_t rows = 1;
  for (int i = 0; i < dim - 1; ++i)
    rows *= static_cast<std::size_t>(sides_[static_cast<std::size_t>(i)]);
  std::vector<std::size_t> outer(static_cast<std::size_t>(dim - 1), 0);
  for (std::size_t row = 0; row < rows; ++row) {
    std::size_t base = 1;  // +1 along the innermost axis (stride 1)
    for (int i = 0; i < dim - 1; ++i)
      base += (outer[static_cast<std::size_t>(i)] + 1) *
              stride_[static_cast<std::size_t>(i)];
    const double* src = grid.data_.data() + row * last_side;
    std::copy(src, src + last_side, ps_.data() + base);
    for (int i = dim - 2; i >= 0; --i) {
      auto& c = outer[static_cast<std::size_t>(i)];
      if (++c < static_cast<std::size_t>(sides_[static_cast<std::size_t>(i)]))
        break;
      c = 0;
    }
  }

  // Accumulate per axis over [outer][len][inner] runs: each j-slab adds
  // the (j-1)-slab elementwise across `st` contiguous doubles. Each
  // lattice chain is added in the order of the per-element walk that
  // tests keep as the oracle, so the table is that walk's bit for bit;
  // the inner loops are plain strided adds the compiler vectorizes, with
  // no per-element division.
  for (int axis = 0; axis < dim; ++axis) {
    const std::size_t st = stride_[static_cast<std::size_t>(axis)];
    const auto len = static_cast<std::size_t>(
        sides_[static_cast<std::size_t>(axis)] + 1);
    const std::size_t span = st * len;
    for (std::size_t base = 0; base < ps_.size(); base += span) {
      for (std::size_t j = 1; j < len; ++j) {
        double* cur = ps_.data() + base + j * st;
        const double* prev = cur - st;
        for (std::size_t i = 0; i < st; ++i) cur[i] += prev[i];
      }
    }
  }
}

double PrefixSums::box_sum(const Box& query) const {
  CMVRP_CHECK(query.dim() == box_.dim());
  const int dim = box_.dim();
  // Clip to the grid box; empty intersection sums to zero. In the padded
  // array the clipped box's low corner is lo and its high corner hi + 1
  // per axis: `base` is the flat index of the all-low corner, and
  // `extent` per axis the flat step from its low to its high corner.
  std::size_t base = 0;
  std::array<std::size_t, Point::kMaxDim> extent{};
  for (int i = 0; i < dim; ++i) {
    const auto a = static_cast<std::size_t>(i);
    const std::int64_t lo =
        std::max(query.lo()[i], box_.lo()[i]) - box_.lo()[i];
    const std::int64_t hi =
        std::min(query.hi()[i], box_.hi()[i]) - box_.lo()[i];
    if (lo > hi) return 0.0;
    base += static_cast<std::size_t>(lo) * stride_[a];
    extent[a] = static_cast<std::size_t>(hi + 1 - lo) * stride_[a];
  }
  // Inclusion–exclusion over the 2^dim corners: bit i of the mask takes
  // axis i's low corner and flips the sign.
  double sum = 0.0;
  for (unsigned mask = 0; mask < (1u << dim); ++mask) {
    std::size_t flat = base;
    int sign = 1;
    for (int i = 0; i < dim; ++i) {
      if (mask & (1u << i))
        sign = -sign;
      else
        flat += extent[static_cast<std::size_t>(i)];
    }
    sum += sign * ps_[flat];
  }
  return sum;
}

double PrefixSums::max_cube_sum(std::int64_t side) const {
  CMVRP_CHECK(side >= 1);
  const int dim = box_.dim();
  const unsigned corners = 1u << dim;
  // Window starts per axis, relative to the box's low corner: 0 to
  // side_i - side. If the cube is larger than the grid along an axis,
  // use the single clipped window that covers the whole axis. Every
  // window spans min(side, side_i) cells per axis, so its 2^ℓ corners
  // sit at the same flat offsets from its start, with box_sum's signs
  // and in box_sum's mask order.
  std::array<std::int64_t, Point::kMaxDim> last{};
  std::array<std::size_t, std::size_t{1} << Point::kMaxDim> offset{};
  std::array<int, std::size_t{1} << Point::kMaxDim> sign{};
  for (unsigned mask = 0; mask < corners; ++mask) {
    sign[mask] = 1;
    for (int i = 0; i < dim; ++i) {
      const auto a = static_cast<std::size_t>(i);
      if (mask & (1u << i))
        sign[mask] = -sign[mask];
      else
        offset[mask] += static_cast<std::size_t>(std::min(side, sides_[a])) *
                        stride_[a];
    }
  }
  for (int i = 0; i < dim; ++i) {
    const auto a = static_cast<std::size_t>(i);
    last[a] = std::max<std::int64_t>(0, sides_[a] - side);
  }
  // Odometer over the window starts, last axis fastest; `base` is the
  // flat index of the current start's low corner.
  std::array<std::int64_t, Point::kMaxDim> cur{};
  std::size_t base = 0;
  double best = 0.0;
  for (;;) {
    double sum = 0.0;
    for (unsigned mask = 0; mask < corners; ++mask)
      sum += sign[mask] * ps_[base + offset[mask]];
    best = std::max(best, sum);
    int axis = dim - 1;
    while (axis >= 0) {
      const auto a = static_cast<std::size_t>(axis);
      if (cur[a] < last[a]) {
        ++cur[a];
        base += stride_[a];
        break;
      }
      base -= static_cast<std::size_t>(cur[a]) * stride_[a];
      cur[a] = 0;
      --axis;
    }
    if (axis < 0) break;
  }
  return best;
}

}  // namespace cmvrp
