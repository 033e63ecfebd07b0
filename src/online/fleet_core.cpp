#include "online/fleet_core.h"

#include <algorithm>
#include <cmath>

#include "util/check.h"

namespace cmvrp {

double won_upper_bound(double omega_c, int dim) {
  return (4.0 * std::pow(3.0, static_cast<double>(dim)) +
          static_cast<double>(dim)) *
         omega_c;
}

FleetCore::FleetCore(int dim, const OnlineConfig& config, EventQueue& queue,
                     Network& network)
    : dim_(dim),
      config_(config),
      pairing_(dim, config.anchor, config.cube_side),
      queue_(queue),
      network_(network) {
  CMVRP_CHECK(config.capacity >= 0.0);
  CMVRP_CHECK_MSG(config.cube_side >= 2,
                  "cube side must be >= 2 so every pair has an idle partner");
  CMVRP_CHECK_MSG(config.monitor_stride >= 1,
                  "monitor stride must be >= 1 arrival between sweeps");
  if (config.admission != AdmissionPolicy::kUnbounded) {
    CMVRP_CHECK_MSG(config.queue_limit >= 1,
                    "bounded admission needs a queue limit >= 1");
    CMVRP_CHECK_MSG(config.service_ticks >= 1,
                    "bounded admission needs service ticks >= 1");
  }
  CMVRP_CHECK_MSG(config.sample_stride >= 0,
                  "sample stride must be >= 0 (0 = off)");
}

void FleetCore::bind_network() {
  network_.set_receiver(
      [](void* self, const Delivery& d) {
        static_cast<FleetCore*>(self)->on_message(d.to, d.from, d.msg);
      },
      this);
}

void FleetCore::inject_silent_done(const Point& home) {
  silent_homes_.insert(home);
  auto it = by_home_.find(home);
  if (it != by_home_.end()) vehicles_[it->second].silent_done = true;
}

void FleetCore::inject_break_after(const Point& home, double longevity) {
  CMVRP_CHECK(longevity >= 0.0 && longevity <= 1.0);
  longevity_[home] = longevity;
  auto it = by_home_.find(home);
  if (it != by_home_.end() && longevity == 0.0)
    vehicles_[it->second].dead = true;
}

std::size_t FleetCore::ensure_vehicle(const Point& home, const Point& corner) {
  auto it = by_home_.find(home);
  if (it != by_home_.end()) return it->second;
  const std::int64_t k = pairing_.snake_index(home, corner);
  Vehicle v;
  v.id = vehicles_.size();
  v.home = home;
  v.pos = home;
  v.capacity = config_.capacity;
  v.s1 = k % 2 == 0 ? WorkState::kActive : WorkState::kIdle;
  v.s2 = TransferState::kWaiting;
  if (silent_homes_.count(home)) v.silent_done = true;
  auto lg = longevity_.find(home);
  if (lg != longevity_.end() && lg->second == 0.0) v.dead = true;
  vehicles_.push_back(v);
  by_home_.emplace(home, v.id);
  // Register the vehicle's pair slot with the span recorder (the Chrome
  // exporter's tid axis) — for every vehicle, not just active ones: idle
  // vehicles appear in traces as relays and replacements.
  if (spans_ != nullptr) spans_->note_vehicle_pair(v.id, k / 2);
  if (v.s1 == WorkState::kActive && !v.dead) {
    CubeState& st = state_of(corner);
    const auto slot = static_cast<std::size_t>(k / 2);
    st.active_by_pair[slot] = v.id;
    st.active_since[slot] = queue_.now();
  }
  return v.id;
}

FleetCore::CubeState& FleetCore::state_of(const Point& corner) {
  if (state_cache_ != nullptr && corner == state_corner_)
    return *state_cache_;
  auto it = cube_state_.find(corner);
  CMVRP_CHECK_MSG(it != cube_state_.end(),
                  "cube state accessed before materialization");
  state_corner_ = corner;
  state_cache_ = &it->second;
  return it->second;
}

void FleetCore::ensure_cube(const Point& corner) {
  if (!cubes_.insert(corner).second) return;
  auto& state = cube_state_[corner];
  const auto pairs =
      static_cast<std::size_t>((pairing_.cube_volume() + 1) / 2);
  state.active_by_pair.assign(pairs, SIZE_MAX);
  state.active_since.assign(pairs, 0);
  state.first_vehicle = vehicles_.size();
  Box::cube(corner, pairing_.side()).for_each_point([this, &corner](
      const Point& p) { ensure_vehicle(p, corner); });
}

void FleetCore::ensure_cube_at(const Point& position) {
  ensure_cube(pairing_.cube_corner(position));
}

void FleetCore::neighbors_into(std::size_t vid,
                               std::vector<std::size_t>& out) {
  const Vehicle& v = vehicles_[vid];
  const std::size_t first = state_of(pairing_.cube_corner(v.pos)).first_vehicle;
  const auto volume = static_cast<std::size_t>(pairing_.cube_volume());
  // Branch-free selection: whether a member is in range is a coin flip
  // the predictor cannot learn, so every member is written and the
  // count advances only for the ones that qualify.
  out.resize(volume);
  std::size_t n = 0;
  for (std::size_t other = first; other < first + volume; ++other) {
    out[n] = other;
    n += static_cast<std::size_t>(
        (other != vid) &
        (l1_distance(vehicles_[other].pos, v.pos) <= config_.neighbor_radius));
  }
  out.resize(n);
}

const std::vector<Point>& FleetCore::primaries_of(const Point& corner) {
  if (primaries_last_ != nullptr && corner == primaries_corner_)
    return *primaries_last_;
  auto it = primaries_cache_.find(corner);
  if (it == primaries_cache_.end())
    it = primaries_cache_.emplace(corner, pairing_.primaries_in_cube(corner))
             .first;
  primaries_corner_ = corner;
  primaries_last_ = &it->second;  // node-based map: rehash-stable
  return it->second;
}

void FleetCore::spend_travel(Vehicle& v, std::int64_t dist) {
  v.spent_travel += static_cast<double>(dist);
  metrics_.total_travel += static_cast<std::uint64_t>(dist);
  check_longevity(v);
}

void FleetCore::check_longevity(Vehicle& v) {
  // Runs twice per served job; streams with no longevity injections at
  // all (the common case) must not pay a hash probe for it.
  if (longevity_.empty()) return;
  auto it = longevity_.find(v.home);
  if (it == longevity_.end() || v.dead) return;
  if (v.spent() >= it->second * v.capacity - 1e-9) v.dead = true;
}

void FleetCore::note_done(Vehicle& v, const Point& cube_corner,
                          const Point& primary) {
  v.s1 = WorkState::kDone;
  auto& slot = state_of(cube_corner).active_by_pair[static_cast<std::size_t>(
      pairing_.snake_index(primary, cube_corner) / 2)];
  if (slot == v.id) slot = SIZE_MAX;
  pair_of_dest_[v.pos] = primary;
}

bool FleetCore::serve_job(const Job& job) {
  const Point corner = pairing_.cube_corner(job.position);
  ensure_cube(corner);
  return serve_job(job, corner);
}

bool FleetCore::serve_job(const Job& job, const Point& cube_corner) {
  CMVRP_CHECK(job.position.dim() == dim_);
  const SimTime now = queue_.now();
  last_timing_ = JobTiming{now, now, now, 0};
  const std::int64_t k = pairing_.snake_index(job.position, cube_corner);
  CubeState& st = state_of(cube_corner);
  const auto pair_slot = static_cast<std::size_t>(k / 2);
  const std::size_t vid = st.active_by_pair[pair_slot];
  if (spans_ != nullptr) spans_->serve_begin(now, vid, job.index);
  if (vid == SIZE_MAX) {
    ++metrics_.jobs_failed;
    return false;
  }
  Vehicle& v = vehicles_[vid];
  if (!v.can_serve()) {
    ++metrics_.jobs_failed;
    return false;
  }
  const std::int64_t dist = l1_distance(v.pos, job.position);
  if (v.remaining() < static_cast<double>(dist) + 1.0) {
    // The vehicle should have declared itself done before this point; an
    // undersized capacity surfaces here as a failed job.
    ++metrics_.jobs_failed;
    return false;
  }
  last_timing_.assigned_at = st.active_since[pair_slot];
  spend_travel(v, dist);
  v.pos = job.position;
  v.spent_service += 1.0;
  check_longevity(v);
  ++metrics_.jobs_served;
  after_serving(v.id, cube_corner);
  return true;
}

void FleetCore::after_serving(std::size_t vid, const Point& cube_corner) {
  // Fast exit for the common case (vehicle healthy, not exhausted): the
  // pair primary is only resolved on the rare done/dead branches.
  Vehicle& v = vehicles_[vid];
  if (v.dead) {
    // Broke mid-service (longevity): the monitoring ring must notice.
    const Point primary = pairing_.primary(v.pos, cube_corner);
    auto& slot =
        state_of(cube_corner).active_by_pair[static_cast<std::size_t>(
            pairing_.snake_index(primary, cube_corner) / 2)];
    if (slot == vid) slot = SIZE_MAX;
    pair_of_dest_[v.pos] = primary;
    return;
  }
  if (!v.exhausted()) return;
  const Point dest = v.pos;
  const Point primary = pairing_.primary(dest, cube_corner);
  note_done(v, cube_corner, primary);
  if (v.silent_done) return;  // scenario 2: never initiates
  replacement_pending_[primary] = true;
  initiate_computation(vid, dest);
}

void FleetCore::initiate_computation(std::size_t initiator,
                                     const Point& dest) {
  Vehicle& v = vehicles_[initiator];
  v.s2 = TransferState::kInitiator;
  v.par = SIZE_MAX;
  v.child = SIZE_MAX;
  v.init = InitTag{initiator, ++v.init_seq};
  initiator_dest_[initiator] = dest;
  ++metrics_.computations_started;
  auto& nb = neighbor_scratch_;
  neighbors_into(initiator, nb);
  v.num = static_cast<int>(nb.size());
  // The span must open before the sends (and before the degenerate
  // immediate finish) so every record tagged with this InitTag finds its
  // sampling decision already made.
  if (spans_ != nullptr)
    spans_->comp_start(queue_.now(), packed_init(v.init), initiator,
                       nb.size());
  if (nb.empty()) {
    v.s2 = TransferState::kWaiting;
    finish_phase_one(initiator);
    return;
  }
  for (std::size_t q : nb) network_.send(initiator, q, QueryMsg{v.init, 1});
  if (config_.obs.counters) obs_note_queries(v.init, nb.size());
}

void FleetCore::obs_note_queries(const InitTag& init, std::size_t count) {
  // Packed key: vehicle ids are dense fleet indices and init_seq counts
  // one vehicle's computations — both far below 2^32 for any cube.
  CMVRP_CHECK_MSG(init.vehicle < (1ull << 32) && init.seq < (1ull << 32),
                  "InitTag exceeds obs key packing");
  std::uint64_t& total =
      obs_comp_queries_[(static_cast<std::uint64_t>(init.vehicle) << 32) |
                        init.seq];
  total += static_cast<std::uint64_t>(count);
  if (total > obs_max_queries_per_comp_) obs_max_queries_per_comp_ = total;
}

void FleetCore::on_message(std::size_t to, std::size_t from,
                           const Message& m) {
  switch (m.index()) {
    case 0:
      on_query(to, from, std::get<QueryMsg>(m));
      break;
    case 1:
      on_reply(to, from, std::get<ReplyMsg>(m));
      break;
    case 2:
      on_move(to, from, std::get<MoveMsg>(m));
      break;
    case 3:
      break;  // heartbeats are counted by the network; no protocol action
  }
}

void FleetCore::on_query(std::size_t vid, std::size_t from,
                         const QueryMsg& q) {
  Vehicle& v = vehicles_[vid];
  if (v.s2 == TransferState::kWaiting && v.init != q.init) {
    v.par = from;
    v.init = q.init;
    v.child = SIZE_MAX;
    if (v.s1 == WorkState::kIdle && !v.dead) {
      network_.send(vid, from, ReplyMsg{true, q.init});
      return;
    }
    // Active, done, or broken vehicles relay the search.
    v.s2 = TransferState::kSearching;
    auto& nb = neighbor_scratch_;
    neighbors_into(vid, nb);
    v.num = static_cast<int>(nb.size());
    if (v.num == 0) {
      // Degenerate: nobody else to ask.
      v.s2 = TransferState::kWaiting;
      network_.send(vid, from, ReplyMsg{false, q.init});
      return;
    }
    for (std::size_t n : nb)
      network_.send(vid, n, QueryMsg{q.init, q.hop + 1});
    if (config_.obs.counters) obs_note_queries(q.init, nb.size());
    if (spans_ != nullptr)
      spans_->relay(queue_.now(), packed_init(q.init), vid, from, q.hop,
                    nb.size());
    return;
  }
  network_.send(vid, from, ReplyMsg{false, q.init});
}

void FleetCore::on_reply(std::size_t vid, std::size_t from,
                         const ReplyMsg& r) {
  Vehicle& v = vehicles_[vid];
  if (r.init != v.init) return;  // stale reply from an abandoned search
  CMVRP_CHECK_MSG(v.num > 0, "reply without outstanding query");
  --v.num;
  if (r.flag && v.child == SIZE_MAX) {
    v.child = from;
    if (v.s2 == TransferState::kSearching)
      network_.send(vid, v.par, ReplyMsg{true, v.init});
  }
  if (v.num == 0) {
    if (v.s2 == TransferState::kSearching) {
      v.s2 = TransferState::kWaiting;
      if (v.child == SIZE_MAX)
        network_.send(vid, v.par, ReplyMsg{false, v.init});
    } else if (v.s2 == TransferState::kInitiator) {
      v.s2 = TransferState::kWaiting;
      finish_phase_one(vid);
    }
  }
}

void FleetCore::finish_phase_one(std::size_t vid) {
  if (config_.obs.counters) ++obs_comps_finished_;
  Vehicle& v = vehicles_[vid];
  if (spans_ != nullptr)
    spans_->comp_finish(queue_.now(), packed_init(v.init), vid,
                        v.child != SIZE_MAX);
  auto dest_it = initiator_dest_.find(vid);
  CMVRP_CHECK(dest_it != initiator_dest_.end());
  const Point dest = dest_it->second;
  initiator_dest_.erase(dest_it);
  if (v.child == SIZE_MAX) {
    ++metrics_.computations_failed;
    auto pit = pair_of_dest_.find(dest);
    if (pit != pair_of_dest_.end()) {
      replacement_pending_[pit->second] = false;
      // No idle vehicle exists in this cube any more, and none will ever
      // reappear — retrying the search would livelock the ring.
      unrecoverable_.insert(pit->second);
    }
    return;
  }
  network_.send(vid, v.child, MoveMsg{dest, v.init});
}

void FleetCore::on_move(std::size_t vid, std::size_t from, const MoveMsg& m) {
  Vehicle& v = vehicles_[vid];
  if (v.s1 == WorkState::kIdle && !v.dead) {
    const std::int64_t dist = l1_distance(v.pos, m.dest);
    if (v.remaining() < static_cast<double>(dist)) {
      // Cannot afford the relocation; treat as a failed computation so the
      // monitoring ring can retry with another vehicle.
      ++metrics_.computations_failed;
      auto pit = pair_of_dest_.find(m.dest);
      if (pit != pair_of_dest_.end())
        replacement_pending_[pit->second] = false;
      return;
    }
    spend_travel(v, dist);
    v.pos = m.dest;
    if (v.dead) {  // longevity tripped mid-move
      auto pit = pair_of_dest_.find(m.dest);
      if (pit != pair_of_dest_.end())
        replacement_pending_[pit->second] = false;
      return;
    }
    v.s1 = WorkState::kActive;
    auto pit = pair_of_dest_.find(m.dest);
    CMVRP_CHECK_MSG(pit != pair_of_dest_.end(),
                    "move destination has no registered pair");
    const Point primary = pit->second;
    const Point corner = pairing_.cube_corner(primary);
    CubeState& st = state_of(corner);
    const auto pair_slot = static_cast<std::size_t>(
        pairing_.snake_index(primary, corner) / 2);
    st.active_by_pair[pair_slot] = vid;
    st.active_since[pair_slot] = queue_.now();
    replacement_pending_[primary] = false;
    ++metrics_.replacements;
    if (spans_ != nullptr)
      spans_->cascade_step(queue_.now(), packed_init(m.init), vid, from,
                           metrics_.replacements);
    // A replacement that arrives already too drained to accept work hands
    // the pair off immediately (only reachable at undersized capacities).
    if (v.exhausted()) {
      note_done(v, corner, primary);
      if (!v.silent_done) {
        replacement_pending_[primary] = true;
        initiate_computation(vid, m.dest);
      }
    }
    return;
  }
  // Not idle any more (e.g. claimed by a concurrent computation): pass the
  // move along this vehicle's own child path if it has one.
  if (v.child != SIZE_MAX && v.child != vid) {
    network_.send(vid, v.child, m);
    return;
  }
  ++metrics_.computations_failed;
  auto pit = pair_of_dest_.find(m.dest);
  if (pit != pair_of_dest_.end()) replacement_pending_[pit->second] = false;
}

void FleetCore::monitor_sweep() {
  // The "existing"-message ring of §3.2.5: the pair slots of a cube form a
  // loop of monitoring pointers; every healthy active vehicle beacons its
  // ring predecessor, and a slot whose beacon is missing gets a diffusing
  // computation initiated on its behalf by that predecessor.
  for (const auto& corner : cubes_) {
    const auto& primaries = primaries_of(corner);
    // The flat pair-slot array (slot i <-> primaries[i]: both are ordered
    // by ascending even snake index) is read live: one array load per
    // slot, and any replacement a mid-sweep computation activates is
    // visible to later slots with no cache-invalidation bookkeeping.
    auto& active = state_of(corner).active_by_pair;
    auto& ring = ring_scratch_;  // indices into `primaries`
    ring.clear();
    for (std::size_t i = 0; i < primaries.size(); ++i) {
      const std::size_t vid = active[i];
      if (vid == SIZE_MAX) continue;
      const Vehicle& v = vehicles_[vid];
      if (!v.dead && v.s1 == WorkState::kActive) ring.push_back(i);
    }
    if (ring.empty()) continue;  // nobody left to monitor or initiate
    // Heartbeat round: each ring member beacons the previous ring member.
    for (std::size_t k = 0; k < ring.size(); ++k) {
      const auto from = active[ring[k]];
      const auto to = active[ring[(k + ring.size() - 1) % ring.size()]];
      if (from != to) network_.send(from, to, ExistingMsg{});
    }
    // Timeout detection: slots with no healthy active vehicle and no
    // replacement already in flight.
    for (std::size_t i = 0; i < primaries.size(); ++i) {
      const Point& primary = primaries[i];
      if (!unrecoverable_.empty() && unrecoverable_.count(primary)) continue;
      bool needs_replacement = false;
      Point dest = primary;
      const std::size_t vid = active[i];
      if (vid == SIZE_MAX) {
        auto pend = replacement_pending_.find(primary);
        const bool pending =
            pend != replacement_pending_.end() && pend->second;
        if (!pending) {
          needs_replacement = true;
          // Serve position: where the pair's last vehicle stood, if known.
          for (const auto& [dpos, prim] : pair_of_dest_) {
            if (prim == primary) {
              dest = dpos;
              break;
            }
          }
        }
      } else {
        Vehicle& v = vehicles_[vid];
        if (v.dead || v.s1 != WorkState::kActive) {
          active[i] = SIZE_MAX;
          pair_of_dest_[v.pos] = primary;
          dest = v.pos;
          needs_replacement = true;
        }
      }
      if (!needs_replacement) continue;
      // The monitor: the ring predecessor of the victim slot.
      std::size_t monitor_vid = SIZE_MAX;
      for (std::size_t back = 1; back <= primaries.size(); ++back) {
        const std::size_t cand =
            (i + primaries.size() - back) % primaries.size();
        const std::size_t cvid = active[cand];
        if (cvid == SIZE_MAX) continue;
        const Vehicle& cv = vehicles_[cvid];
        if (!cv.dead && cv.s1 == WorkState::kActive &&
            cv.s2 == TransferState::kWaiting) {
          monitor_vid = cvid;
          break;
        }
      }
      if (monitor_vid == SIZE_MAX) continue;  // no healthy monitor left
      pair_of_dest_[dest] = primary;
      replacement_pending_[primary] = true;
      ++metrics_.monitor_initiations;
      initiate_computation(monitor_vid, dest);
      // Serialize: let this computation finish before scanning on, so two
      // concurrent searches never race for the same idle vehicle.
      queue_.run_to_quiescence();
    }
  }
}

void FleetCore::settle(int max_rounds) {
  for (int round = 0; round < max_rounds; ++round) {
    const auto before = metrics_.monitor_initiations;
    monitor_sweep();
    queue_.run_to_quiescence();
    if (metrics_.monitor_initiations == before) break;
  }
}

void FleetCore::finalize_metrics() {
  metrics_.network = network_.stats();
  metrics_.max_energy_spent = 0.0;
  metrics_.total_energy_spent = 0.0;
  for (const auto& v : vehicles_) {
    metrics_.max_energy_spent = std::max(metrics_.max_energy_spent, v.spent());
    metrics_.total_energy_spent += v.spent();
  }
}

std::int64_t FleetCore::exhausted_permille() const {
  if (vehicles_.empty()) return 0;
  std::size_t exhausted = 0;
  for (const auto& v : vehicles_)
    if (v.dead || v.s1 == WorkState::kDone) ++exhausted;
  return static_cast<std::int64_t>((exhausted * 1000) / vehicles_.size());
}

const Vehicle* FleetCore::vehicle_at_home(const Point& home) const {
  auto it = by_home_.find(home);
  return it == by_home_.end() ? nullptr : &vehicles_[it->second];
}

std::optional<std::size_t> FleetCore::active_of_pair(
    const Point& any_member) const {
  const Point corner = pairing_.cube_corner(any_member);
  auto it = cube_state_.find(corner);
  if (it == cube_state_.end()) return std::nullopt;
  const std::size_t vid = it->second.active_by_pair[static_cast<std::size_t>(
      pairing_.snake_index(any_member, corner) / 2)];
  if (vid == SIZE_MAX) return std::nullopt;
  return vid;
}

}  // namespace cmvrp
