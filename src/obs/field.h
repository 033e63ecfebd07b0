// Declared field classes. Each artifact the repo emits declares its
// fields in one table beside its writer, one row per key; exp/compare.h
// compares a field by its row's class, and a key no row declares is
// deterministic.
//
//   identity       schema ids, seeds, config echoes: two artifacts that
//                  disagree on one are not comparable runs.
//   deterministic  a pure function of the arrival sequence and seed.
//   wall           measured on the wall clock. The row says which way is
//                  worse (a time grows, a rate shrinks) and its unit:
//                  milliseconds, a per-iteration timing, or another
//                  quantity (a rate, a ratio, a gauge).
//   context        run shape two comparable runs may disagree on.
#pragma once

#include <string>
#include <vector>

namespace cmvrp {

enum class FieldClass { kIdentity, kDeterministic, kWall, kContext };
enum class WallDirection { kTime, kRate };
enum class WallUnit { kMs, kPerIteration, kOther };

struct FieldSpec {
  const char* key;
  FieldClass cls;
  WallDirection direction = WallDirection::kTime;  // wall rows only
  WallUnit unit = WallUnit::kOther;                // wall rows only
};

using FieldTable = std::vector<FieldSpec>;

constexpr FieldSpec wall_field(const char* key, WallUnit unit,
                               WallDirection direction = WallDirection::kTime) {
  return {key, FieldClass::kWall, direction, unit};
}

// The row declaring `key`, or null.
inline const FieldSpec* find_field(const FieldTable& table,
                                   const std::string& key) {
  for (const FieldSpec& f : table)
    if (key == f.key) return &f;
  return nullptr;
}

}  // namespace cmvrp
