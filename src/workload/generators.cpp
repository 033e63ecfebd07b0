#include "workload/generators.h"

#include <algorithm>
#include <cmath>

#include "util/check.h"

namespace cmvrp {

DemandMap square_demand(std::int64_t a, double d, Point corner) {
  CMVRP_CHECK(corner.dim() == 2);
  CMVRP_CHECK(a >= 1 && d >= 0.0);
  DemandMap out(2);
  Box::cube(corner, a).for_each_point(
      [&](const Point& p) { out.set(p, d); });
  return out;
}

DemandMap line_demand(std::int64_t len, double d, Point start) {
  CMVRP_CHECK(start.dim() == 2);
  CMVRP_CHECK(len >= 1 && d >= 0.0);
  DemandMap out(2);
  for (std::int64_t i = 0; i < len; ++i)
    out.set(start.translated(0, i), d);
  return out;
}

DemandMap point_demand(double d, Point p) {
  DemandMap out(p.dim());
  out.set(p, d);
  return out;
}

DemandMap uniform_demand(const Box& box, std::int64_t count, Rng& rng) {
  CMVRP_CHECK(count >= 0);
  DemandMap out(box.dim());
  for (std::int64_t k = 0; k < count; ++k) {
    Point p = Point::origin(box.dim());
    for (int i = 0; i < box.dim(); ++i)
      p[i] = rng.next_int(box.lo()[i], box.hi()[i]);
    out.add(p, 1.0);
  }
  return out;
}

DemandMap clustered_demand(const Box& box, int clusters, std::int64_t count,
                           double sigma, Rng& rng) {
  CMVRP_CHECK(clusters >= 1 && count >= 0 && sigma > 0.0);
  std::vector<Point> centers;
  centers.reserve(static_cast<std::size_t>(clusters));
  for (int c = 0; c < clusters; ++c) {
    Point p = Point::origin(box.dim());
    for (int i = 0; i < box.dim(); ++i)
      p[i] = rng.next_int(box.lo()[i], box.hi()[i]);
    centers.push_back(p);
  }
  DemandMap out(box.dim());
  for (std::int64_t k = 0; k < count; ++k) {
    const Point& c =
        centers[static_cast<std::size_t>(rng.next_below(centers.size()))];
    Point p = c;
    for (int i = 0; i < box.dim(); ++i) {
      const auto delta =
          static_cast<std::int64_t>(std::lround(rng.next_gaussian() * sigma));
      p[i] = std::clamp(c[i] + delta, box.lo()[i], box.hi()[i]);
    }
    out.add(p, 1.0);
  }
  return out;
}

DemandMap ridge_demand(const Box& box, double peak, Rng& rng) {
  CMVRP_CHECK(box.dim() == 2);
  CMVRP_CHECK(peak >= 0.0);
  // A random horizontal "fault" row; demand decays with distance from it.
  const std::int64_t fault = rng.next_int(box.lo()[1], box.hi()[1]);
  DemandMap out(2);
  box.for_each_point([&](const Point& p) {
    const auto dist = std::abs(p[1] - fault);
    const double v = std::floor(peak / (1.0 + static_cast<double>(dist)));
    if (v > 0.0) out.set(p, v);
  });
  return out;
}

std::vector<Job> stream_from_demand(const DemandMap& d, ArrivalOrder order,
                                    Rng& rng) {
  std::vector<Job> jobs;
  const auto support = d.support();
  for (const auto& p : support) {
    const double v = d.at(p);
    const auto n = static_cast<std::int64_t>(std::llround(v));
    CMVRP_CHECK_MSG(std::abs(v - static_cast<double>(n)) < 1e-9,
                    "job streams need integral demands, got " << v);
    for (std::int64_t k = 0; k < n; ++k) jobs.push_back(Job{p, 0});
  }
  switch (order) {
    case ArrivalOrder::kSorted:
      break;  // support() is sorted; expansion preserved order
    case ArrivalOrder::kShuffled:
      rng.shuffle(jobs);
      break;
    case ArrivalOrder::kRoundRobin: {
      // Re-emit one job per position per round.
      std::vector<std::pair<Point, std::int64_t>> remaining;
      for (const auto& p : support)
        remaining.emplace_back(
            p, static_cast<std::int64_t>(std::llround(d.at(p))));
      jobs.clear();
      bool any = true;
      while (any) {
        any = false;
        for (auto& [p, left] : remaining) {
          if (left > 0) {
            jobs.push_back(Job{p, 0});
            --left;
            any = true;
          }
        }
      }
      break;
    }
  }
  for (std::size_t i = 0; i < jobs.size(); ++i)
    jobs[i].index = static_cast<std::int64_t>(i);
  return jobs;
}

std::vector<Job> smart_dust_stream(const Box& box, std::int64_t count,
                                   double jump_probability, Rng& rng) {
  CMVRP_CHECK(count >= 0);
  CMVRP_CHECK(jump_probability >= 0.0 && jump_probability <= 1.0);
  std::vector<Job> jobs;
  jobs.reserve(static_cast<std::size_t>(count));
  Point cur = Point::origin(box.dim());
  for (int i = 0; i < box.dim(); ++i)
    cur[i] = rng.next_int(box.lo()[i], box.hi()[i]);
  for (std::int64_t k = 0; k < count; ++k) {
    if (rng.next_bool(jump_probability)) {
      for (int i = 0; i < box.dim(); ++i)
        cur[i] = rng.next_int(box.lo()[i], box.hi()[i]);
    } else {
      const int axis = static_cast<int>(rng.next_below(
          static_cast<std::uint64_t>(box.dim())));
      const std::int64_t step = rng.next_bool() ? 1 : -1;
      cur[axis] = std::clamp(cur[axis] + step, box.lo()[axis], box.hi()[axis]);
    }
    jobs.push_back(Job{cur, k});
  }
  return jobs;
}

std::vector<Job> alternating_stream(Point i, Point j, std::int64_t total) {
  CMVRP_CHECK(i.dim() == j.dim());
  CMVRP_CHECK(total >= 0);
  std::vector<Job> jobs;
  jobs.reserve(static_cast<std::size_t>(total));
  for (std::int64_t k = 0; k < total; ++k)
    jobs.push_back(Job{k % 2 == 0 ? i : j, k});
  return jobs;
}

DemandMap demand_of_stream(const std::vector<Job>& jobs, int dim) {
  DemandMap out(dim);
  if (jobs.empty()) return out;
  // The stream's bounding box holds at most its volume of distinct
  // points, and the stream at most one per job: the smaller bound sizes
  // the table once, so it never regrows.
  Point lo = jobs.front().position;
  Point hi = lo;
  for (const auto& job : jobs) {
    CMVRP_CHECK(job.position.dim() == dim);
    for (int i = 0; i < dim; ++i) {
      lo[i] = std::min(lo[i], job.position[i]);
      hi[i] = std::max(hi[i], job.position[i]);
    }
  }
  // min(job count, box volume), without overflow: a side spanning the
  // whole int64 range wraps to 0.
  const std::uint64_t cap = jobs.size();
  std::uint64_t points = 1;
  for (int i = 0; i < dim && points < cap; ++i) {
    const std::uint64_t side = static_cast<std::uint64_t>(hi[i]) -
                               static_cast<std::uint64_t>(lo[i]) + 1;
    points = side == 0 || points > cap / side ? cap : points * side;
  }
  out.reserve(static_cast<std::size_t>(points));
  for (const auto& job : jobs) out.add(job.position, 1.0);
  return out;
}

}  // namespace cmvrp
