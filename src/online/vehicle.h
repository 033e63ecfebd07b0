// Vehicle state (§3.2.1, Figure 3.1).
//
// S1 (working): idle → active → done;  S2 (message-transfer): waiting ↔
// searching, plus initiator for the done vehicle that starts a diffusing
// computation. (active|idle, initiator) are unreachable, as in the paper.
//
// Plain constant-size state — every field is O(1); the Phase I members
// (num, par, child, init) are exactly Algorithm 2's per-process locals.
#pragma once

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

struct Vehicle {
  std::size_t id = SIZE_MAX;
  Point home;      // depot vertex (never changes)
  Point pos;       // current vertex
  WorkState s1 = WorkState::kIdle;
  TransferState s2 = TransferState::kWaiting;

  double capacity = 0.0;
  double spent_service = 0.0;
  double spent_travel = 0.0;

  // Phase I local data (§3.2.3.2).
  int num = 0;                   // un-responded queries
  std::size_t par = SIZE_MAX;    // parent in the diffusing tree
  std::size_t child = SIZE_MAX;  // first child that reported an idle vehicle
  InitTag init = kNoInit;        // computation currently joined
  std::uint32_t init_seq = 0;    // last sequence used (see next_init)

  // Failure injection.
  bool dead = false;         // broken (§3.2.5 scenarios 3/4): cannot serve
                             // or volunteer, but still relays messages
  bool silent_done = false;  // scenario 2: fails to start its own
                             // diffusing computation when done

  double spent() const { return spent_service + spent_travel; }
  double remaining() const { return capacity - spent(); }

  // A vehicle must stop accepting work once it can no longer guarantee a
  // worst-case next job: walk <= 1 plus 1 unit of service.
  bool exhausted() const { return remaining() < 2.0; }

  bool can_serve() const {
    return s1 == WorkState::kActive && !dead;
  }
};

}  // namespace cmvrp
