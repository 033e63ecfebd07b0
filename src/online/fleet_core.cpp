#include "online/fleet_core.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <type_traits>

#include "grid/box.h"
#include "util/check.h"

namespace cmvrp {

double won_upper_bound(double omega_c, int dim) {
  return (4.0 * std::pow(3.0, static_cast<double>(dim)) +
          static_cast<double>(dim)) *
         omega_c;
}

CubeParams::CubeParams(int dim, const OnlineConfig& config)
    : dim(dim), config(config), pairing(dim, config.anchor, config.cube_side) {
  CMVRP_CHECK(config.capacity >= 0.0);
  CMVRP_CHECK_MSG(config.cube_side >= 2,
                  "cube side must be >= 2 so every pair has an idle partner");
  // A vehicle's position is a CubeOffset of 32-bit lanes.
  CMVRP_CHECK_MSG(config.cube_side <= INT32_MAX,
                  "cube side " << config.cube_side
                               << " exceeds 32-bit cube offsets");
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
  CMVRP_CHECK_MSG(pairing.cube_volume() < static_cast<std::int64_t>(kNoVehicle),
                  "cube volume " << pairing.cube_volume()
                                 << " exceeds 32-bit vehicle ids");
}

std::size_t FleetCore::region_bytes(const CubeParams& params) {
  const auto volume = static_cast<std::size_t>(params.pairing.cube_volume());
  const std::size_t pairs = (volume + 1) / 2;
  // Fleet, pair slots, destinations, beat slots: each region's alignment
  // divides the size of every region before it, and every region holds
  // plain values the block's owner frees without running destructors.
  static_assert(alignof(PairSlot) <= alignof(Vehicle) &&
                std::is_trivially_destructible_v<Vehicle> &&
                std::is_trivially_destructible_v<PairSlot>);
  return volume * sizeof(Vehicle) + pairs * sizeof(PairSlot) +
         volume * sizeof(std::uint32_t) + pairs * sizeof(std::uint32_t);
}

FleetCore::FleetCore(const CubeParams& params, const Point& corner,
                     Network& network, void* regions)
    : params_(params),
      network_(network),
      corner_(corner),
      fleet_(static_cast<Vehicle*>(regions)),
      volume_(static_cast<std::uint32_t>(params.pairing.cube_volume())),
      pair_count_((volume_ + 1) / 2) {
  const CubePairing& pairing = params_.pairing;
  CMVRP_CHECK_MSG(pairing.cube_corner(corner) == corner,
                  corner.to_string() << " is not a cube corner");
  // The regions' storage, before any of their objects exist.
  std::byte* storage = static_cast<std::byte*>(regions) +
                       std::size_t{volume_} * sizeof(Vehicle);
  std::uninitialized_default_construct_n(reinterpret_cast<PairSlot*>(storage),
                                         pair_count_);
  storage += std::size_t{pair_count_} * sizeof(PairSlot);
  std::uninitialized_fill_n(reinterpret_cast<std::uint32_t*>(storage),
                            volume_, kNoDest);
  // The fleet exists from t = 0: even snake indices (pair primaries)
  // start active, their partners idle.
  std::uint32_t id = 0;
  Box::cube(corner, pairing.side()).for_each_point([&](const Point& home) {
    const std::int64_t k = pairing.snake_index(home, corner_);
    Vehicle* v = new (fleet_ + id) Vehicle();
    v->id = id++;
    v->pos = offset_of(home);
    if (k % 2 == 0) {
      v->s1 = WorkState::kActive;
      pairs()[static_cast<std::size_t>(k / 2)].active = v->id;
    }
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
  for (const Vehicle& v : fleet())
    spans_->note_vehicle_pair(
        v.id, pairing().snake_index(home_of(v.id), corner_) / 2);
}

std::uint32_t FleetCore::id_of_home(const Point& home) const {
  CMVRP_CHECK(home.dim() == params_.dim);
  // Axis 0 most significant: the order Box::for_each_point visits.
  const std::int64_t side = pairing().side();
  std::int64_t id = 0;
  for (int i = 0; i < params_.dim; ++i) {
    const std::int64_t o = home[i] - corner_[i];
    if (o < 0 || o >= side) return kNoVehicle;
    id = id * side + o;
  }
  return static_cast<std::uint32_t>(id);
}

CubeOffset FleetCore::offset_of(const Point& p) const {
  CubeOffset off{};
  for (int i = 0; i < params_.dim; ++i)
    off[static_cast<std::size_t>(i)] =
        static_cast<std::int32_t>(p[i] - corner_[i]);
  return off;
}

Point FleetCore::home_of(std::size_t id) const {
  CMVRP_CHECK(id < volume_);
  const std::int64_t side = pairing().side();
  Point p = corner_;
  auto rest = static_cast<std::int64_t>(id);
  for (int i = params_.dim - 1; i >= 0; --i) {
    p[i] += rest % side;
    rest /= side;
  }
  return p;
}

Point FleetCore::position_of(std::size_t id) const {
  CMVRP_CHECK(id < volume_);
  const CubeOffset& off = fleet()[id].pos;
  Point p = corner_;
  for (int i = 0; i < params_.dim; ++i)
    p[i] += off[static_cast<std::size_t>(i)];
  return p;
}

void FleetCore::inject_silent_done(const Point& home) {
  const std::uint32_t id = id_of_home(home);
  CMVRP_CHECK_MSG(id != kNoVehicle, "silent-done home "
                                        << home.to_string()
                                        << " lies outside cube "
                                        << corner_.to_string());
  fleet()[id].silent_done = true;
  touch();
}

void FleetCore::inject_break_after(const Point& home, double longevity) {
  CMVRP_CHECK(longevity >= 0.0 && longevity <= 1.0);
  const std::uint32_t id = id_of_home(home);
  CMVRP_CHECK_MSG(id != kNoVehicle, "breaking home "
                                        << home.to_string()
                                        << " lies outside cube "
                                        << corner_.to_string());
  if (longevity_ == nullptr) {
    longevity_ = std::make_unique<double[]>(volume_);
    std::fill_n(longevity_.get(), volume_, -1.0);
  }
  longevity_[id] = longevity;
  if (longevity == 0.0) fleet()[id].dead = true;
  touch();
}

const std::vector<std::uint32_t>& FleetCore::neighbors_of(std::size_t vid) {
  std::vector<std::uint32_t>& out = network_.transport().neighbors;
  const CubeOffset at = fleet()[vid].pos;
  const std::int64_t radius = params_.config.neighbor_radius;
  const std::size_t volume = volume_;
  // Branch-free selection: whether a member is in range is a coin flip
  // the predictor cannot learn, so every member is written and the
  // count advances only for the ones that qualify.
  out.resize(volume);
  std::size_t n = 0;
  for (std::size_t other = 0; other < volume; ++other) {
    out[n] = static_cast<std::uint32_t>(other);
    n += static_cast<std::size_t>(
        (other != vid) & (l1_distance(fleet_[other].pos, at) <= radius));
  }
  out.resize(n);
  return out;
}

void FleetCore::spend_travel(Vehicle& v, std::int64_t dist) {
  v.spent_travel += static_cast<double>(dist);
  metrics_.total_travel += static_cast<std::uint64_t>(dist);
  check_longevity(v);
}

void FleetCore::check_longevity(Vehicle& v) {
  // Runs twice per served job; streams with no longevity injections at
  // all (the common case) skip it on the null test.
  if (longevity_ == nullptr || v.dead) return;
  const double p = longevity_[v.id];
  if (p >= 0.0 && v.spent() >= p * capacity() - 1e-9) {
    v.dead = true;
    touch();
  }
}

void FleetCore::release_pair(const Vehicle& v, std::int64_t k) {
  PairSlot& pair = pairs()[static_cast<std::size_t>(k / 2)];
  if (pair.active == v.id) pair.active = kNoVehicle;
  pair.last = static_cast<std::uint8_t>(k & 1);
}

bool FleetCore::serve_job(const Job& job) {
  CMVRP_CHECK(job.position.dim() == params_.dim);
  const SimTime now = network_.queue().now();
  last_timing_ = JobTiming{now, now, now, 0};
  const std::int64_t k = pairing().snake_index(job.position, corner_);
  const PairSlot& pair = pairs()[static_cast<std::size_t>(k / 2)];
  const std::size_t vid = pair.active == kNoVehicle ? SIZE_MAX : pair.active;
  if (spans_ != nullptr) spans_->serve_begin(now, vid, job.index);
  if (vid == SIZE_MAX) {
    ++metrics_.jobs_failed;
    return false;
  }
  Vehicle& v = fleet()[vid];
  if (!v.can_serve()) {
    ++metrics_.jobs_failed;
    return false;
  }
  const CubeOffset at = offset_of(job.position);
  const std::int64_t dist = l1_distance(v.pos, at);
  if (v.remaining(capacity()) < static_cast<double>(dist) + 1.0) {
    // The vehicle should have declared itself done before this point; an
    // undersized capacity surfaces here as a failed job.
    ++metrics_.jobs_failed;
    return false;
  }
  last_timing_.assigned_at = pair.since;
  spend_travel(v, dist);
  v.pos = at;
  v.spent_service += 1.0;
  check_longevity(v);
  ++metrics_.jobs_served;
  after_serving(vid, k);
  return true;
}

void FleetCore::after_serving(std::size_t vid, std::int64_t k) {
  // Fast exit for the common case (vehicle healthy, not exhausted).
  Vehicle& v = fleet()[vid];
  if (!v.dead && !v.exhausted(capacity())) return;
  // The vehicle leaves its pair: it broke mid-service (longevity), and
  // the monitoring ring must notice, or it is done.
  touch();
  release_pair(v, k);
  if (v.dead) return;
  v.s1 = WorkState::kDone;
  if (v.silent_done) return;  // scenario 2: never initiates
  pairs()[static_cast<std::size_t>(k / 2)].pending = true;
  initiate_computation(vid, k);
}

void FleetCore::initiate_computation(std::size_t initiator,
                                     std::int64_t dest) {
  touch();
  Vehicle& v = fleet()[initiator];
  v.s2 = TransferState::kInitiator;
  v.par = kNoVehicle;
  v.child = kNoVehicle;
  v.init = next_init(static_cast<std::uint32_t>(initiator), v.init_seq);
  dests()[initiator] = static_cast<std::uint32_t>(dest);
  ++metrics_.computations_started;
  const auto& nb = neighbors_of(initiator);
  v.num = static_cast<int>(nb.size());
  // The span must open before the sends (and before the degenerate
  // immediate finish) so every record tagged with this InitTag finds its
  // sampling decision already made.
  if (spans_ != nullptr)
    spans_->comp_start(network_.queue().now(), packed_init(v.init), initiator,
                       nb.size());
  if (nb.empty()) {
    v.s2 = TransferState::kWaiting;
    finish_phase_one(initiator);
    return;
  }
  for (const std::uint32_t q : nb)
    network_.send(initiator, q, QueryMsg{v.init, 1});
  if (obs_ != nullptr) obs_note_queries(v.init, nb.size());
}

void FleetCore::obs_note_queries(const InitTag& init, std::size_t count) {
  std::uint64_t& total = obs_->comp_queries[packed_init(init)];
  total += static_cast<std::uint64_t>(count);
  if (total > obs_->max_queries_per_comp) obs_->max_queries_per_comp = total;
}

void FleetCore::on_message(std::size_t to, std::size_t from,
                           const Message& m) {
  touch();
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
  }
}

void FleetCore::on_query(std::size_t vid, std::size_t from,
                         const QueryMsg& q) {
  Vehicle& v = fleet()[vid];
  if (v.s2 == TransferState::kWaiting && v.init != q.init) {
    v.par = static_cast<std::uint32_t>(from);
    v.init = q.init;
    v.child = kNoVehicle;
    if (v.s1 == WorkState::kIdle && !v.dead) {
      network_.send(vid, from, ReplyMsg{true, q.init});
      return;
    }
    // Active, done, or broken vehicles relay the search.
    v.s2 = TransferState::kSearching;
    const auto& nb = neighbors_of(vid);
    v.num = static_cast<int>(nb.size());
    if (v.num == 0) {
      // Degenerate: nobody else to ask.
      v.s2 = TransferState::kWaiting;
      network_.send(vid, from, ReplyMsg{false, q.init});
      return;
    }
    for (const std::uint32_t n : nb)
      network_.send(vid, n, QueryMsg{q.init, q.hop + 1});
    if (obs_ != nullptr) obs_note_queries(q.init, nb.size());
    if (spans_ != nullptr)
      spans_->relay(network_.queue().now(), packed_init(q.init), vid, from,
                    q.hop, nb.size());
    return;
  }
  network_.send(vid, from, ReplyMsg{false, q.init});
}

void FleetCore::on_reply(std::size_t vid, std::size_t from,
                         const ReplyMsg& r) {
  Vehicle& v = fleet()[vid];
  if (r.init != v.init) return;  // stale reply from an abandoned search
  CMVRP_CHECK_MSG(v.num > 0, "reply without outstanding query");
  --v.num;
  if (r.flag && v.child == kNoVehicle) {
    v.child = static_cast<std::uint32_t>(from);
    if (v.s2 == TransferState::kSearching)
      network_.send(vid, v.par, ReplyMsg{true, v.init});
  }
  if (v.num == 0) {
    if (v.s2 == TransferState::kSearching) {
      v.s2 = TransferState::kWaiting;
      if (v.child == kNoVehicle)
        network_.send(vid, v.par, ReplyMsg{false, v.init});
    } else if (v.s2 == TransferState::kInitiator) {
      v.s2 = TransferState::kWaiting;
      finish_phase_one(vid);
    }
  }
}

void FleetCore::finish_phase_one(std::size_t vid) {
  if (obs_ != nullptr) ++obs_->comps_finished;
  Vehicle& v = fleet()[vid];
  if (spans_ != nullptr)
    spans_->comp_finish(network_.queue().now(), packed_init(v.init), vid,
                        v.child != kNoVehicle);
  const std::uint32_t dest = dests()[vid];
  CMVRP_CHECK(dest != kNoDest);
  dests()[vid] = kNoDest;
  if (v.child == kNoVehicle) {
    ++metrics_.computations_failed;
    PairSlot& pair = pairs()[dest / 2];
    pair.pending = false;
    // No idle vehicle exists in this cube any more, and none will ever
    // reappear — retrying the search would livelock the ring.
    pair.unrecoverable = true;
    return;
  }
  network_.send(vid, v.child, MoveMsg{dest, v.init});
}

void FleetCore::on_move(std::size_t vid, std::size_t from, const MoveMsg& m) {
  Vehicle& v = fleet()[vid];
  if (v.s1 == WorkState::kIdle && !v.dead) {
    const std::int64_t k = m.dest;
    const CubeOffset dest = offset_of(pairing().snake_vertex(corner_, k));
    PairSlot& pair = pairs()[m.dest / 2];
    const std::int64_t dist = l1_distance(v.pos, dest);
    if (v.remaining(capacity()) < static_cast<double>(dist)) {
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
    pair.since = network_.queue().now();
    pair.pending = false;
    ++metrics_.replacements;
    if (spans_ != nullptr)
      spans_->cascade_step(pair.since, packed_init(m.init), vid, from,
                           metrics_.replacements);
    // A replacement that arrives already too drained to accept work hands
    // the pair off immediately (only reachable at undersized capacities).
    if (v.exhausted(capacity())) {
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
  if (v.child != kNoVehicle && v.child != vid) {
    network_.send(vid, v.child, m);
    return;
  }
  ++metrics_.computations_failed;
  pairs()[m.dest / 2].pending = false;
}

template <class F>
bool FleetCore::for_each_ring_beat(F&& beat) const {
  // The "existing"-message ring of §3.2.5: the pair slots of the cube form
  // a loop of monitoring pointers, and every healthy active vehicle
  // beacons its ring predecessor — the first ring member the last one.
  const Region<PairSlot> slots = pairs();
  std::uint32_t prev = kNoVehicle;
  for (std::size_t i = slots.size(); i-- > 0;) {
    if (in_ring(slots[i])) {
      prev = slots[i].active;
      break;
    }
  }
  if (prev == kNoVehicle) return false;
  for (const PairSlot& pair : slots) {
    if (!in_ring(pair)) continue;
    if (pair.active != prev) beat(pair.active, prev);  // a ring of one is silent
    prev = pair.active;
  }
  return true;
}

bool FleetCore::resolve_beats() {
  const Region<std::uint32_t> room = beat_room();
  beat_count_ = 0;
  return for_each_ring_beat([&](std::uint32_t from, std::uint32_t to) {
    room[beat_count_++] = network_.heartbeat_slot(from, to);
  });
}

void FleetCore::rebuild_ring() {
  ring_dirty_ = false;
  ring_empty_ = !resolve_beats();
  // The table keeps every channel the ring ever beaconed. Past twice the
  // ring's channels, drop the clamps that can no longer bind; that
  // renumbers the slots, so resolve the ring's again.
  if (network_.heartbeat_channels() > 2 * std::size_t{beat_count_} &&
      network_.drop_stale_heartbeats() > 0)
    resolve_beats();
}

void FleetCore::monitor_sweep() {
#ifndef NDEBUG
  check_monitor_cache();
#endif
  if (ring_dirty_) rebuild_ring();
  if (ring_empty_) return;  // nobody left to monitor or initiate
  network_.beat_all(beat_room().begin(), beat_count_);
  if (!scan_dirty_) return;
  // Cleared first, so a scan that changes anything marks the core again.
  scan_dirty_ = false;
  // Timeout detection: slots with no healthy active vehicle and no
  // replacement already in flight. Slots are read live, so a replacement
  // that a mid-scan computation activates is visible to later slots.
  const Region<PairSlot> slots = pairs();
  for (std::size_t i = 0; i < slots.size(); ++i) {
    PairSlot& pair = slots[i];
    if (!timed_out(pair)) continue;
    if (pair.active != kNoVehicle) {
      const Vehicle& v = fleet()[pair.active];
      const std::int64_t k =
          pairing().snake_index(position_of(pair.active), corner_);
      CMVRP_CHECK_MSG(static_cast<std::size_t>(k / 2) == i,
                      "active vehicle stands outside its pair");
      touch();
      release_pair(v, k);
    }
    const std::uint32_t monitor = ring_monitor(i);
    if (monitor == kNoVehicle) continue;  // no healthy monitor left
    pair.pending = true;
    ++metrics_.monitor_initiations;
    // The replacement serves from where the pair was last served.
    initiate_computation(monitor, static_cast<std::int64_t>(2 * i + pair.last));
    // Serialize: let this computation finish before scanning on, so two
    // concurrent searches never race for the same idle vehicle.
    network_.queue().run_to_quiescence();
  }
}

bool FleetCore::timed_out(const PairSlot& pair) const {
  if (pair.unrecoverable) return false;
  if (pair.active == kNoVehicle) return !pair.pending;
  return !fleet()[pair.active].can_serve();
}

std::uint32_t FleetCore::ring_monitor(std::size_t i) const {
  const Region<PairSlot> slots = pairs();
  const std::size_t n = slots.size();
  for (std::size_t back = 1; back <= n; ++back) {
    const std::uint32_t vid = slots[(i + n - back) % n].active;
    if (vid == kNoVehicle) continue;
    const Vehicle& v = fleet()[vid];
    if (v.can_serve() && v.s2 == TransferState::kWaiting) return vid;
  }
  return kNoVehicle;
}

void FleetCore::check_monitor_cache() const {
  if (!ring_dirty_) {
    const Region<std::uint32_t> room = beat_room();
    std::size_t k = 0;
    const bool live = for_each_ring_beat([&](std::uint32_t from,
                                             std::uint32_t to) {
      CMVRP_CHECK_MSG(k < beat_count_ &&
                          room[k] == network_.find_heartbeat_slot(from, to),
                      "cached heartbeat " << k << " (" << from << " -> " << to
                                          << ") is stale: the ring changed "
                                             "without touch()");
      ++k;
    });
    CMVRP_CHECK_MSG(k == beat_count_ && live == !ring_empty_,
                    "cached ring has " << beat_count_
                                       << " heartbeats, the fleet " << k
                                       << ": the ring changed without touch()");
  }
  if (scan_dirty_) return;
  const Region<PairSlot> slots = pairs();
  for (std::size_t i = 0; i < slots.size(); ++i)
    CMVRP_CHECK_MSG(!timed_out(slots[i]) ||
                        (slots[i].active == kNoVehicle &&
                         ring_monitor(i) == kNoVehicle),
                    "the timeout scan has work on pair "
                        << i << " that no touch() announced");
}

void FleetCore::settle(int max_rounds) {
  for (int round = 0; round < max_rounds; ++round) {
    const auto before = metrics_.monitor_initiations;
    monitor_sweep();
    network_.queue().run_to_quiescence();
    if (metrics_.monitor_initiations == before) break;
  }
}

OnlineMetrics FleetCore::metrics() const {
  OnlineMetrics m;
  static_cast<CoreMetrics&>(m) = metrics_;
  m.network = network_.stats();
  return m;
}

void FleetCore::finalize_metrics() {
  metrics_.max_energy_spent = 0.0;
  metrics_.total_energy_spent = 0.0;
  for (const auto& v : fleet()) {
    metrics_.max_energy_spent = std::max(metrics_.max_energy_spent, v.spent());
    metrics_.total_energy_spent += v.spent();
  }
}

std::int64_t FleetCore::exhausted_permille() const {
  std::size_t exhausted = 0;
  for (const auto& v : fleet())
    if (v.dead || v.s1 == WorkState::kDone) ++exhausted;
  return static_cast<std::int64_t>((exhausted * 1000) / volume_);
}

const Vehicle* FleetCore::vehicle_at_home(const Point& home) const {
  const std::uint32_t id = id_of_home(home);
  return id == kNoVehicle ? nullptr : &fleet()[id];
}

std::optional<std::size_t> FleetCore::active_of_pair(
    const Point& any_member) const {
  if (id_of_home(any_member) == kNoVehicle) return std::nullopt;
  const std::uint32_t vid =
      pairs()[static_cast<std::size_t>(
                  pairing().snake_index(any_member, corner_) / 2)]
          .active;
  if (vid == kNoVehicle) return std::nullopt;
  return vid;
}

}  // namespace cmvrp
