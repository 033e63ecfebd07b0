#include "obs/counters.h"

#include <algorithm>

#include "util/hash.h"

namespace cmvrp {

void CubeCounters::merge(const CubeCounters& other) {
  for (const CounterField& f : kCounterFields) {
    std::uint64_t& mine = this->*f.member;
    const std::uint64_t theirs = other.*f.member;
    mine = f.fold == CounterFold::kSum ? mine + theirs
                                        : std::max(mine, theirs);
  }
  cascade.merge(other.cascade);
}

std::uint64_t CubeCounters::digest() const {
  // Positional mix64 chain: every field lands at a distinct position, so
  // (unlike a plain sum) two fields cannot trade values unnoticed.
  std::uint64_t h = 0x6f627331u;  // "obs1"
  for (const CounterField& f : kCounterFields) h = mix64(h ^ (this->*f.member));
  return mix64(h ^ cascade.digest());
}

bool operator==(const CubeCounters& a, const CubeCounters& b) {
  for (const CounterField& f : kCounterFields)
    if (a.*f.member != b.*f.member) return false;
  return a.cascade == b.cascade;
}

std::uint64_t query_flood_bound(std::int64_t cube_side,
                                std::int64_t neighbor_radius, int dim) {
  std::uint64_t vehicles = 1;
  std::uint64_t fanout = 1;
  for (int i = 0; i < dim; ++i) {
    vehicles *= static_cast<std::uint64_t>(cube_side);
    fanout *= static_cast<std::uint64_t>(2 * neighbor_radius + 1);
  }
  return vehicles * fanout;
}

}  // namespace cmvrp
