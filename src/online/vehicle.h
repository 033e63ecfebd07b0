// Vehicle state (§3.2.1, Figure 3.1).
//
// S1 (working): idle → active → done;  S2 (message-transfer): waiting ↔
// searching, plus initiator for the done vehicle that starts a diffusing
// computation. (active|idle, initiator) are unreachable, as in the paper.
//
// Plain constant-size state — every field is O(1); the Phase I members
// (num, par, child, init) are exactly Algorithm 2's per-process locals.
// A vehicle holds only what differs between vehicles: its home is its
// id (the row-major offset of the home in the cube), W is the same for
// every vehicle (OnlineConfig::capacity), and its position is an offset
// from the cube's corner. FleetCore::home_of and position_of turn both
// back into Points.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>

#include "grid/point.h"
#include "sim/message.h"

namespace cmvrp {

enum class WorkState : std::uint8_t { kIdle, kActive, kDone };
enum class TransferState : std::uint8_t { kWaiting, kSearching, kInitiator };

inline const char* to_string(WorkState s) {
  switch (s) {
    case WorkState::kIdle:
      return "idle";
    case WorkState::kActive:
      return "active";
    case WorkState::kDone:
      return "done";
  }
  return "?";
}

inline const char* to_string(TransferState s) {
  switch (s) {
    case TransferState::kWaiting:
      return "waiting";
    case TransferState::kSearching:
      return "searching";
    case TransferState::kInitiator:
      return "initiator";
  }
  return "?";
}

// "No vehicle": the null value of a vehicle id (Vehicle::par, child and
// FleetCore's pair slots). Ids are dense fleet indices; FleetCore checks
// that a cube's volume fits below this.
inline constexpr std::uint32_t kNoVehicle = UINT32_MAX;

// A vertex of one cube as offsets from the cube's corner, one lane per
// axis. Lanes past the cube's dimension stay 0, so a distance over all
// four lanes is exact in every dimension. CubeParams checks that the
// cube side fits a lane.
using CubeOffset = std::array<std::int32_t, Point::kMaxDim>;

// ‖a − b‖₁ over all four lanes: no dimension to read, no branch.
inline std::int64_t l1_distance(const CubeOffset& a, const CubeOffset& b) {
  std::int64_t s = 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const std::int64_t d = std::int64_t{a[i]} - b[i];
    s += d < 0 ? -d : d;
  }
  return s;
}

struct Vehicle {
  // The small fields first, so no padding sits between them.
  std::uint32_t id = kNoVehicle;

  // Phase I local data (§3.2.3.2).
  std::uint32_t par = kNoVehicle;    // parent in the diffusing tree
  std::uint32_t child = kNoVehicle;  // first child that reported an idle
                                     // vehicle
  int num = 0;                       // un-responded queries
  InitTag init = kNoInit;            // computation currently joined
  std::uint32_t init_seq = 0;        // last sequence used (see next_init)

  WorkState s1 = WorkState::kIdle;
  TransferState s2 = TransferState::kWaiting;

  // Failure injection.
  bool dead = false;         // broken (§3.2.5 scenarios 3/4): cannot serve
                             // or volunteer, but still relays messages
  bool silent_done = false;  // scenario 2: fails to start its own
                             // diffusing computation when done

  CubeOffset pos{};  // current vertex, from the cube's corner

  double spent_service = 0.0;
  double spent_travel = 0.0;

  double spent() const { return spent_service + spent_travel; }
  // `capacity` is W, the energy every vehicle starts with.
  double remaining(double capacity) const { return capacity - spent(); }

  // A vehicle must stop accepting work once it can no longer guarantee a
  // worst-case next job: walk <= 1 plus 1 unit of service.
  bool exhausted(double capacity) const { return remaining(capacity) < 2.0; }

  bool can_serve() const {
    return s1 == WorkState::kActive && !dead;
  }
};

// 32 bytes of small fields, 16 of position and two doubles: one cache
// line. The fleet array is most of a served cube's footprint, and the
// Phase I neighbor scan reads every vehicle of it.
static_assert(sizeof(Vehicle) <= 64, "Vehicle must fit one 64-byte line");

}  // namespace cmvrp
