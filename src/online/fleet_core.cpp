#include "online/fleet_core.h"

#include <algorithm>
#include <cmath>

#include "grid/box.h"
#include "util/check.h"

namespace cmvrp {

double won_upper_bound(double omega_c, int dim) {
  return (4.0 * std::pow(3.0, static_cast<double>(dim)) +
          static_cast<double>(dim)) *
         omega_c;
}

FleetCore::FleetCore(int dim, const OnlineConfig& config, const Point& corner,
                     EventQueue& queue, Network& network)
    : dim_(dim),
      config_(config),
      pairing_(dim, config.anchor, config.cube_side),
      corner_(corner),
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
  CMVRP_CHECK_MSG(pairing_.cube_corner(corner) == corner,
                  corner.to_string() << " is not a cube corner");
  const std::int64_t volume = pairing_.cube_volume();
  CMVRP_CHECK_MSG(volume < static_cast<std::int64_t>(kNone),
                  "cube volume " << volume << " exceeds 32-bit vehicle ids");
  const auto fleet = static_cast<std::size_t>(volume);
  pairs_.resize((fleet + 1) / 2);
  initiator_dest_.assign(fleet, kNone);
  // The fleet exists from t = 0: even snake indices (pair primaries)
  // start active, their partners idle.
  vehicles_.reserve(fleet);
  Box::cube(corner, pairing_.side()).for_each_point([this](const Point& home) {
    const std::int64_t k = pairing_.snake_index(home, corner_);
    Vehicle v;
    v.id = vehicles_.size();
    v.home = home;
    v.pos = home;
    v.capacity = config_.capacity;
    if (k % 2 == 0) {
      v.s1 = WorkState::kActive;
      pairs_[static_cast<std::size_t>(k / 2)].active =
          static_cast<std::uint32_t>(v.id);
    }
    vehicles_.push_back(v);
  });
}

void FleetCore::bind_network() {
  network_.set_receiver(
      [](void* self, const Delivery& d) {
        static_cast<FleetCore*>(self)->on_message(d.to, d.from, d.msg);
      },
      this);
}

void FleetCore::set_spans(SpanRecorder* spans) {
  spans_ = spans;
  if (spans_ == nullptr) return;
  // Every vehicle, not just active ones: idle vehicles appear in traces
  // as relays and replacements.
  for (const Vehicle& v : vehicles_)
    spans_->note_vehicle_pair(v.id, pairing_.snake_index(v.home, corner_) / 2);
}

std::uint32_t FleetCore::id_of_home(const Point& home) const {
  CMVRP_CHECK(home.dim() == dim_);
  // Axis 0 most significant: the order Box::for_each_point visits.
  std::int64_t id = 0;
  for (int i = 0; i < dim_; ++i) {
    const std::int64_t o = home[i] - corner_[i];
    if (o < 0 || o >= pairing_.side()) return kNone;
    id = id * pairing_.side() + o;
  }
  return static_cast<std::uint32_t>(id);
}

void FleetCore::inject_silent_done(const Point& home) {
  const std::uint32_t id = id_of_home(home);
  CMVRP_CHECK_MSG(id != kNone, "silent-done home " << home.to_string()
                                                   << " lies outside cube "
                                                   << corner_.to_string());
  vehicles_[id].silent_done = true;
}

void FleetCore::inject_break_after(const Point& home, double longevity) {
  CMVRP_CHECK(longevity >= 0.0 && longevity <= 1.0);
  const std::uint32_t id = id_of_home(home);
  CMVRP_CHECK_MSG(id != kNone, "breaking home " << home.to_string()
                                                << " lies outside cube "
                                                << corner_.to_string());
  if (longevity_.empty()) longevity_.assign(vehicles_.size(), -1.0);
  longevity_[id] = longevity;
  if (longevity == 0.0) vehicles_[id].dead = true;
}

void FleetCore::neighbors_into(std::size_t vid,
                               std::vector<std::size_t>& out) {
  const Vehicle& v = vehicles_[vid];
  const std::size_t volume = vehicles_.size();
  // Branch-free selection: whether a member is in range is a coin flip
  // the predictor cannot learn, so every member is written and the
  // count advances only for the ones that qualify.
  out.resize(volume);
  std::size_t n = 0;
  for (std::size_t other = 0; other < volume; ++other) {
    out[n] = other;
    n += static_cast<std::size_t>(
        (other != vid) &
        (l1_distance(vehicles_[other].pos, v.pos) <= config_.neighbor_radius));
  }
  out.resize(n);
}

void FleetCore::spend_travel(Vehicle& v, std::int64_t dist) {
  v.spent_travel += static_cast<double>(dist);
  metrics_.total_travel += static_cast<std::uint64_t>(dist);
  check_longevity(v);
}

void FleetCore::check_longevity(Vehicle& v) {
  // Runs twice per served job; streams with no longevity injections at
  // all (the common case) skip it on the empty-array test.
  if (longevity_.empty() || v.dead) return;
  const double p = longevity_[v.id];
  if (p >= 0.0 && v.spent() >= p * v.capacity - 1e-9) v.dead = true;
}

void FleetCore::release_pair(const Vehicle& v, std::int64_t k) {
  PairSlot& pair = pairs_[static_cast<std::size_t>(k / 2)];
  if (pair.active == v.id) pair.active = kNone;
  pair.last = static_cast<std::uint8_t>(k & 1);
}

bool FleetCore::serve_job(const Job& job) {
  CMVRP_CHECK(job.position.dim() == dim_);
  const SimTime now = queue_.now();
  last_timing_ = JobTiming{now, now, now, 0};
  const std::int64_t k = pairing_.snake_index(job.position, corner_);
  const PairSlot& pair = pairs_[static_cast<std::size_t>(k / 2)];
  const std::size_t vid = pair.active == kNone ? SIZE_MAX : pair.active;
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
  last_timing_.assigned_at = pair.since;
  spend_travel(v, dist);
  v.pos = job.position;
  v.spent_service += 1.0;
  check_longevity(v);
  ++metrics_.jobs_served;
  after_serving(vid, k);
  return true;
}

void FleetCore::after_serving(std::size_t vid, std::int64_t k) {
  // Fast exit for the common case (vehicle healthy, not exhausted).
  Vehicle& v = vehicles_[vid];
  if (v.dead) {
    // Broke mid-service (longevity): the monitoring ring must notice.
    release_pair(v, k);
    return;
  }
  if (!v.exhausted()) return;
  v.s1 = WorkState::kDone;
  release_pair(v, k);
  if (v.silent_done) return;  // scenario 2: never initiates
  pairs_[static_cast<std::size_t>(k / 2)].pending = true;
  initiate_computation(vid, k);
}

void FleetCore::initiate_computation(std::size_t initiator,
                                     std::int64_t dest) {
  Vehicle& v = vehicles_[initiator];
  v.s2 = TransferState::kInitiator;
  v.par = SIZE_MAX;
  v.child = SIZE_MAX;
  v.init = next_init(static_cast<std::uint32_t>(initiator), v.init_seq);
  initiator_dest_[initiator] = static_cast<std::uint32_t>(dest);
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
  std::uint64_t& total = obs_comp_queries_[packed_init(init)];
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
  const std::uint32_t dest = initiator_dest_[vid];
  CMVRP_CHECK(dest != kNone);
  initiator_dest_[vid] = kNone;
  if (v.child == SIZE_MAX) {
    ++metrics_.computations_failed;
    PairSlot& pair = pairs_[dest / 2];
    pair.pending = false;
    // No idle vehicle exists in this cube any more, and none will ever
    // reappear — retrying the search would livelock the ring.
    pair.unrecoverable = true;
    return;
  }
  network_.send(vid, v.child, MoveMsg{dest, v.init});
}

void FleetCore::on_move(std::size_t vid, std::size_t from, const MoveMsg& m) {
  Vehicle& v = vehicles_[vid];
  if (v.s1 == WorkState::kIdle && !v.dead) {
    const std::int64_t k = m.dest;
    const Point dest = pairing_.snake_vertex(corner_, k);
    PairSlot& pair = pairs_[m.dest / 2];
    const std::int64_t dist = l1_distance(v.pos, dest);
    if (v.remaining() < static_cast<double>(dist)) {
      // Cannot afford the relocation; treat as a failed computation so the
      // monitoring ring can retry with another vehicle.
      ++metrics_.computations_failed;
      pair.pending = false;
      return;
    }
    spend_travel(v, dist);
    v.pos = dest;
    if (v.dead) {  // longevity tripped mid-move
      pair.pending = false;
      return;
    }
    v.s1 = WorkState::kActive;
    pair.active = static_cast<std::uint32_t>(vid);
    pair.since = queue_.now();
    pair.pending = false;
    ++metrics_.replacements;
    if (spans_ != nullptr)
      spans_->cascade_step(queue_.now(), packed_init(m.init), vid, from,
                           metrics_.replacements);
    // A replacement that arrives already too drained to accept work hands
    // the pair off immediately (only reachable at undersized capacities).
    if (v.exhausted()) {
      v.s1 = WorkState::kDone;
      release_pair(v, k);
      if (!v.silent_done) {
        pair.pending = true;
        initiate_computation(vid, k);
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
  pairs_[m.dest / 2].pending = false;
}

void FleetCore::monitor_sweep() {
  // The "existing"-message ring of §3.2.5: the pair slots of the cube form
  // a loop of monitoring pointers; every healthy active vehicle beacons its
  // ring predecessor, and a slot whose beacon is missing gets a diffusing
  // computation initiated on its behalf by that predecessor. Slots are
  // read live, so a replacement that a mid-sweep computation activates is
  // visible to later slots.
  const std::size_t n = pairs_.size();
  auto& ring = ring_scratch_;  // slot indices
  ring.clear();
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint32_t vid = pairs_[i].active;
    if (vid == kNone) continue;
    const Vehicle& v = vehicles_[vid];
    if (!v.dead && v.s1 == WorkState::kActive) ring.push_back(i);
  }
  if (ring.empty()) return;  // nobody left to monitor or initiate
  // Heartbeat round: each ring member beacons the previous ring member.
  for (std::size_t k = 0; k < ring.size(); ++k) {
    const std::size_t from = pairs_[ring[k]].active;
    const std::size_t to =
        pairs_[ring[(k + ring.size() - 1) % ring.size()]].active;
    if (from != to) network_.send(from, to, ExistingMsg{});
  }
  // Timeout detection: slots with no healthy active vehicle and no
  // replacement already in flight.
  for (std::size_t i = 0; i < n; ++i) {
    PairSlot& pair = pairs_[i];
    if (pair.unrecoverable) continue;
    if (pair.active == kNone) {
      if (pair.pending) continue;
    } else {
      const Vehicle& v = vehicles_[pair.active];
      if (!v.dead && v.s1 == WorkState::kActive) continue;
      const std::int64_t k = pairing_.snake_index(v.pos, corner_);
      CMVRP_CHECK_MSG(static_cast<std::size_t>(k / 2) == i,
                      "active vehicle stands outside its pair");
      pair.active = kNone;
      pair.last = static_cast<std::uint8_t>(k & 1);
    }
    // The replacement serves from where the pair was last served.
    const auto dest = static_cast<std::int64_t>(2 * i + pair.last);
    // The monitor: the ring predecessor of the victim slot.
    std::size_t monitor_vid = SIZE_MAX;
    for (std::size_t back = 1; back <= n; ++back) {
      const std::uint32_t cvid = pairs_[(i + n - back) % n].active;
      if (cvid == kNone) continue;
      const Vehicle& cv = vehicles_[cvid];
      if (!cv.dead && cv.s1 == WorkState::kActive &&
          cv.s2 == TransferState::kWaiting) {
        monitor_vid = cvid;
        break;
      }
    }
    if (monitor_vid == SIZE_MAX) continue;  // no healthy monitor left
    pair.pending = true;
    ++metrics_.monitor_initiations;
    initiate_computation(monitor_vid, dest);
    // Serialize: let this computation finish before scanning on, so two
    // concurrent searches never race for the same idle vehicle.
    queue_.run_to_quiescence();
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
  std::size_t exhausted = 0;
  for (const auto& v : vehicles_)
    if (v.dead || v.s1 == WorkState::kDone) ++exhausted;
  return static_cast<std::int64_t>((exhausted * 1000) / vehicles_.size());
}

const Vehicle* FleetCore::vehicle_at_home(const Point& home) const {
  const std::uint32_t id = id_of_home(home);
  return id == kNone ? nullptr : &vehicles_[id];
}

std::optional<std::size_t> FleetCore::active_of_pair(
    const Point& any_member) const {
  if (id_of_home(any_member) == kNone) return std::nullopt;
  const std::uint32_t vid =
      pairs_[static_cast<std::size_t>(
                 pairing_.snake_index(any_member, corner_) / 2)]
          .active;
  if (vid == kNone) return std::nullopt;
  return vid;
}

}  // namespace cmvrp
