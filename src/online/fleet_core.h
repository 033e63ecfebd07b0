// The per-cube serving/replacement core of the Chapter 3 strategy.
//
// FleetCore owns the vehicle fleet of exactly one partition cube and the
// full protocol state machine over it — job service (§3.2.2), Phase I
// diffusing computations (Algorithm 2), Phase II move relays, and the
// §3.2.5 monitoring ring. Every protocol action is strictly intra-cube
// (neighbor lists never cross a cube boundary), so one core per cube is
// the whole strategy, not an approximation of it: the streaming engine
// (src/stream/) gives each cube its own core and per-cube seeded
// network, and lends the cube its worker's transport for each serve.
// The network and the cube constants (CubeParams) are borrowed by
// reference.
//
// State is index-addressed, in four regions of one block the owner
// supplies (region_bytes() long; the stream engine puts them behind the
// cube's header, so a cube is one allocation — see stream/shard.h):
//   * the fleet, in Box::for_each_point order, so a vehicle's id is the
//     row-major offset of its home in the cube;
//   * the pair slots (active vehicle, its install time, the vertex the
//     pair was last served from, the in-flight and unrecoverable flags),
//     indexed by snake pair k/2;
//   * the Phase II destinations, indexed by vehicle id;
//   * the ring's beat slots, at most one per pair.
// Region indices are checked in Debug builds (util/region.h). No serve,
// message or sweep step hashes a Point.
//
// Complexity: serving a job is O(ℓ) plus amortized replacement cost; each
// Phase I diffusing computation floods the s^ℓ vehicles of the cube
// through radius-r neighbor lists (O(s^ℓ · (2r+1)^ℓ) messages, realizing
// Lemma 3.3.1's bounded-search claim), and Phase II relays one move
// message along the computation tree. Between serves the core holds only
// its cube's own O(s^ℓ) state: the four regions (the fleet is 64 bytes
// a vehicle) and a fixed part of the cube's 456-B header (stream/
// shard.h) — its counts (CoreMetrics) but not the message stats, which
// metrics() reads from the network. Messages in flight, flood clamps and
// the neighbor scratch live in the lent transport, which is empty at
// quiescence; the deployment constants live in the shared CubeParams;
// the Tier-A and span state live with whoever turned them on (FleetObs,
// SpanRecorder); the longevities exist only once a break is injected.
// Nothing grows with the cube's history: the network's heartbeat table
// holds at most twice the ring's channels plus the clamps still ahead of
// the clock, because each ring rebuild that finds more drops the clamps
// that can no longer bind (sim/network.h).
//
// A §3.2.5 monitoring round costs O(ring) heartbeats and nothing else
// while the fleet is unchanged. The core keeps the ring's beat slots
// (sim/network.h) between rounds, and rebuilds them, and reruns the
// O(pairs) timeout scan, only after a write to what a round reads: the
// pair slots, and the dead/s1/s2/pos fields of their active vehicles.
// Every such writer calls touch(), which marks both stale:
//   * every Query, Reply or Move delivery (on_message);
//   * initiate_computation;
//   * after_serving, when the vehicle is dead or exhausted;
//   * check_longevity, when it kills a vehicle;
//   * both failure injections;
//   * the timeout scan, when it releases a victim's pair.
// This is exact. The ring and the scan's decisions are pure functions of
// that state, a scan that changed nothing would change nothing on the
// same state again, and every round still sends every heartbeat, so
// every delay draw and clamp advance happens as a full rescan would have
// made it. check_monitor_cache() recomputes both from scratch and checks
// the cache against them; Debug builds run it at the top of every round.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <optional>
#include <vector>

#include "grid/point.h"
#include "obs/counters.h"
#include "obs/span.h"
#include "online/pairing.h"
#include "online/vehicle.h"
#include "sim/event_queue.h"
#include "sim/network.h"
#include "util/flat_map.h"
#include "util/hash.h"
#include "util/region.h"
#include "workload/generators.h"

namespace cmvrp {

// What a cube does with arrivals while its serving slot is occupied —
// the overload axis of the streaming engine (src/stream/shard.h holds
// the mechanics; FleetCore itself always serves what it is handed).
// kUnbounded is the historical behavior: every arrival is served the
// instant it lands. The bounded policies model a per-cube admission
// queue on the global arrival-index clock (§1.3's t_1 < t_2 < … with
// unit gaps): each admitted job occupies the cube for `service_ticks`
// of that clock, at most `queue_limit` jobs wait, and the policy picks
// the victim when the queue is full.
enum class AdmissionPolicy : std::uint8_t {
  kUnbounded = 0,  // serve immediately on arrival (no queue, no drops)
  kReject = 1,     // bounded queue; refuse the incoming job when full
  kShed = 2,       // bounded queue; evict the oldest waiting job when full
};

struct OnlineConfig {
  double capacity = 0.0;          // W, per vehicle
  std::int64_t cube_side = 2;     // s = max(2, ⌈ω_c⌉) by the capacity search
  Point anchor;                   // partition anchor
  std::int64_t neighbor_radius = 2;   // communication radius (§3.2: "2")
  SimTime max_message_delay = 3;      // extra random per-message delay
  std::uint64_t seed = 1;
  bool enable_monitoring = true;  // §3.2.5 monitoring ring
  // Arrivals between monitoring settles, per cube. 1 = sweep after every
  // arrival (the paper's long-gap reading, and the historical
  // behavior); larger strides amortize the heartbeat ring across batched
  // arrivals — the §3.2.5 failure-detection latency grows to at most
  // `monitor_stride` arrivals, but the serving outcome of failure-free
  // streams is unchanged (heartbeats are protocol no-ops). The cadence is
  // a pure function of each cube's arrival subsequence, so the streaming
  // engine's bit-identical contract across thread counts AND batch sizes
  // survives any stride.
  std::int64_t monitor_stride = 1;
  // Admission control (applied by the stream engine's CubeServer, not
  // by FleetCore). With a bounded policy, each cube runs a FIFO backlog of
  // at most queue_limit jobs on the arrival-index clock, one service
  // per service_ticks — all scheduling is a pure function of the cube's
  // arrival subsequence, so the bit-identical contract holds with the
  // queues on. kUnbounded leaves the historical serve path untouched.
  AdmissionPolicy admission = AdmissionPolicy::kUnbounded;
  std::int64_t queue_limit = 8;    // max waiting jobs per cube (>= 1)
  std::int64_t service_ticks = 4;  // arrival ticks one service occupies (>= 1)
  // Timeseries sampling: every sample_stride arrivals of a cube, record
  // its backlog depth and fleet occupancy (0 = off, the default — the
  // occupancy probe is an O(vehicles) scan, amortized by the stride).
  std::int64_t sample_stride = 0;
  // Observability switches (src/obs/): Tier-A counter collection is off
  // by default so the serve hot path pays nothing for the layer. Every
  // obs-gated quantity is a pure function of the cube's arrival
  // subsequence, so turning it on cannot change serving outcomes.
  ObsConfig obs;
};

// The constants every cube of one deployment shares: the dimension, the
// deployment parameters and the partition. The constructor validates
// them, once per deployment rather than once per cube. A stream engine
// holds one on the heap and lends it to every shard, server and core,
// so a cube carries no copy; whoever builds a FleetCore or CubeServer
// by hand owns the CubeParams it lends and keeps it alive as long.
struct CubeParams {
  CubeParams(int dim, const OnlineConfig& config);

  int dim;
  OnlineConfig config;
  CubePairing pairing;
};

// Sim-time lifecycle of one arrival (§3.2: arrival → Phase I assignment
// → serve), in the serving cube's protocol clock. arrived_at is the
// clock when serve_job ran; assigned_at is when the vehicle that handled
// the job was installed into its pair slot (the Phase II move-completion
// time for replacement vehicles, clock 0 for the initial active fleet) —
// so arrived_at − assigned_at says how long the assignment predated the
// job, and done_at − arrived_at is the
// replacement cascade the job itself triggered (captured by the caller
// after the queue drains; FleetCore initializes it to arrived_at).
// queue_wait is the admission-layer wait on the global arrival-index
// clock, 0 unless a bounded policy deferred the job. Failed jobs carry
// assigned_at = done_at = arrived_at. latency() is the user-visible
// total: admission wait plus the serve-time protocol work.
struct JobTiming {
  SimTime arrived_at = 0;
  SimTime assigned_at = 0;
  SimTime done_at = 0;
  SimTime queue_wait = 0;

  SimTime latency() const { return queue_wait + (done_at - arrived_at); }

  friend bool operator==(const JobTiming& a, const JobTiming& b) {
    return a.arrived_at == b.arrived_at && a.assigned_at == b.assigned_at &&
           a.done_at == b.done_at && a.queue_wait == b.queue_wait;
  }
};

// What a FleetCore counts itself: every OnlineMetrics field but the
// network's message stats, which the network keeps.
struct CoreMetrics {
  std::uint64_t jobs_served = 0;
  std::uint64_t jobs_failed = 0;
  std::uint64_t replacements = 0;           // completed Phase II relocations
  std::uint64_t computations_started = 0;   // Phase I initiations
  std::uint64_t computations_failed = 0;    // no idle vehicle found
  std::uint64_t monitor_initiations = 0;    // ring-triggered computations
  double max_energy_spent = 0.0;            // over all vehicles
  double total_energy_spent = 0.0;
  std::uint64_t total_travel = 0;

  // Folds `other` into this (sums, max for max_energy_spent). Callers who
  // need bit-identical totals must merge in a deterministic order (the
  // stream engine folds shards by ascending cube corner).
  void merge(const CoreMetrics& other) {
    jobs_served += other.jobs_served;
    jobs_failed += other.jobs_failed;
    replacements += other.replacements;
    computations_started += other.computations_started;
    computations_failed += other.computations_failed;
    monitor_initiations += other.monitor_initiations;
    if (other.max_energy_spent > max_energy_spent)
      max_energy_spent = other.max_energy_spent;
    total_energy_spent += other.total_energy_spent;
    total_travel += other.total_travel;
  }

  friend bool operator==(const CoreMetrics& a, const CoreMetrics& b) {
    return a.jobs_served == b.jobs_served && a.jobs_failed == b.jobs_failed &&
           a.replacements == b.replacements &&
           a.computations_started == b.computations_started &&
           a.computations_failed == b.computations_failed &&
           a.monitor_initiations == b.monitor_initiations &&
           a.max_energy_spent == b.max_energy_spent &&
           a.total_energy_spent == b.total_energy_spent &&
           a.total_travel == b.total_travel;
  }
};

// A cube's (or a stream's) protocol metrics: the core's counts plus the
// network's message stats.
struct OnlineMetrics : CoreMetrics {
  NetworkStats network;

  void merge(const OnlineMetrics& other) {
    CoreMetrics::merge(other);
    network.merge(other.network);
  }

  friend bool operator==(const OnlineMetrics& a, const OnlineMetrics& b) {
    return static_cast<const CoreMetrics&>(a) ==
               static_cast<const CoreMetrics&>(b) &&
           a.network == b.network;
  }
  friend bool operator!=(const OnlineMetrics& a, const OnlineMetrics& b) {
    return !(a == b);
  }
};

// A core's Tier-A observability state (ObsConfig::counters), kept by
// whoever turns the counters on and lent to the core (set_obs). Query
// counts are keyed by packed InitTag; entries are never erased — a late
// relay may add to a finished computation — and stay bounded by
// computations per cube (~16 bytes each).
struct FleetObs {
  FlatMap<std::uint64_t, std::uint64_t, U64Hash> comp_queries;
  std::uint64_t comps_finished = 0;        // every finish_phase_one
  std::uint64_t max_queries_per_comp = 0;  // largest fan-out so far
};

class FleetCore {
 public:
  // Bytes of the regions a core of this deployment keeps (see the file
  // comment): its fleet, pair slots, destinations and beat slots.
  static std::size_t region_bytes(const CubeParams& params);

  // Builds the fleet of the cube whose corner is `corner` (which must be
  // a corner of the params' partition) in `regions`: region_bytes(params)
  // bytes, aligned for a Vehicle, which the core does not own. `params`,
  // `network` and `regions` are borrowed and must outlive the core; the
  // network's transport carries the queue. The owner must bind this core
  // as the network receiver (see bind_network).
  FleetCore(const CubeParams& params, const Point& corner, Network& network,
            void* regions);
  FleetCore(CubeParams&&, const Point&, Network&, void*) = delete;
  // bind_network hands the network this core's address.
  FleetCore(const FleetCore&) = delete;
  FleetCore& operator=(const FleetCore&) = delete;

  // Installs on_message as `network`'s receiver.
  void bind_network();

  // Optional Tier-C span hook (borrowed; may be null). Wire before
  // serving: registers every vehicle's pair slot (the exporter's tid
  // axis), then the recorder sees computation start/finish, relay hops,
  // cascade steps, and serve-begin anchors on the cube protocol clock.
  void set_spans(SpanRecorder* spans);

  // Optional Tier-A state (borrowed; may be null, which turns the
  // obs-gated counters off). Wire before serving.
  void set_obs(FleetObs* obs) { obs_ = obs; }

  // Failure injection, effective from the next protocol step. `home`
  // must lie in this cube.
  void inject_silent_done(const Point& home);        // scenario 2
  void inject_break_after(const Point& home, double longevity);  // p_i < 1

  // Serves one arrival (which must lie in this cube); returns true when
  // the job was served. The caller drains the queue afterwards (the
  // paper's long inter-arrival gaps).
  bool serve_job(const Job& job);

  // One §3.2.5 round over the cube's pair ring: every ring member beacons
  // its predecessor, then (if a write marked it) the timeout scan starts
  // replacement searches for pairs with no healthy active vehicle.
  void monitor_sweep();

  // Drain + repeated monitor rounds until no new ring initiations (a
  // replacement can itself break); bounded by `max_rounds`.
  void settle(int max_rounds = 8);

  // Computes the per-vehicle energy aggregates of metrics(). Call once
  // serving is finished (idempotent).
  void finalize_metrics();

  // The core's counts with the network's live message stats.
  OnlineMetrics metrics() const;
  // The core's counts alone, without a copy (the serve path reads these).
  const CoreMetrics& core_metrics() const { return metrics_; }
  const CubePairing& pairing() const { return params_.pairing; }
  const OnlineConfig& config() const { return params_.config; }
  const Point& corner() const { return corner_; }

  // Lifecycle timestamps of the most recent serve_job call (valid until
  // the next one). done_at is initialized to arrived_at; callers that
  // drain the queue afterwards stamp the real completion time there.
  JobTiming last_timing() const { return last_timing_; }

  // Share of the fleet that is done or dead, in permille — the
  // fleet-occupancy signal the timeseries sampler records. O(fleet).
  std::int64_t exhausted_permille() const;

  // Tier-A observability accessors (src/obs/); all zero unless a
  // FleetObs is set. comps_finished counts every finish_phase_one
  // (successful or not); max_queries_per_comp is the largest Query
  // fan-out any one diffusing computation produced — Lemma 3.3.1 bounds
  // it by s^ℓ · (2r+1)^ℓ. The running max is updated at every query
  // batch (not only at finish) because a delayed query can trigger a
  // relay after its initiator finished.
  std::uint64_t obs_comps_finished() const {
    return obs_ != nullptr ? obs_->comps_finished : 0;
  }
  std::uint64_t obs_max_queries_per_comp() const {
    return obs_ != nullptr ? obs_->max_queries_per_comp : 0;
  }

  // Throws check_error when the monitoring cache disagrees with the
  // fleet: the cached beat slots (unless marked stale) are not the ring's
  // heartbeat channels in send order, or the timeout scan (unless marked
  // stale) would act. Looks up, never inserts; O(pairs^2) at worst.
  void check_monitor_cache() const;

  // Whether the ring's beat slots are stale (a write since the last
  // rebuild). While they are not, nothing was delivered since that
  // rebuild, so the cube's clock has not moved either.
  bool ring_stale() const { return ring_dirty_; }
  // Heartbeats one monitoring round sends: the ring's channels.
  std::size_t ring_beats() const { return beat_count_; }

  // Introspection for tests. vehicle_at_home is null for homes outside
  // the cube; active_of_pair is empty when the pair has no active vehicle.
  // home_of and position_of give vehicle `id`'s depot and current vertex
  // as Points (a Vehicle keeps neither).
  Region<const Vehicle> vehicles() const { return {fleet_, volume_}; }
  const Vehicle* vehicle_at_home(const Point& home) const;
  Point home_of(std::size_t id) const;
  Point position_of(std::size_t id) const;
  std::optional<std::size_t> active_of_pair(const Point& any_member) const;

  void on_message(std::size_t to, std::size_t from, const Message& m);

 private:
  // dests() entry of a vehicle that runs no computation.
  static constexpr std::uint32_t kNoDest = UINT32_MAX;

  // Serving state of one black–white pair (snake indices 2i and 2i+1).
  struct PairSlot {
    std::uint32_t active = kNoVehicle;  // id of the pair's active vehicle
    // Which member the pair was last served from (0 = the primary, 2i;
    // 1 = its partner): the vertex a ring-initiated replacement for an
    // abandoned pair moves to.
    std::uint8_t last = 0;
    bool pending = false;        // a replacement request is in flight
    // The cube ran out of idle vehicles for this pair: a failed search
    // can never succeed later (vehicles never return to idle), so the
    // ring must not retry it, and its arrivals fail immediately.
    bool unrecoverable = false;
    // When the current active vehicle was installed (cube clock): the
    // Phase II move-completion time for replacements, 0 for the initial
    // fleet — the "assignment" timestamp of every job the slot serves.
    SimTime since = 0;
  };

  // The regions, laid out back to back from fleet_ (see region_bytes).
  Region<Vehicle> fleet() const { return {fleet_, volume_}; }
  PairSlot* pair_data() const {
    return std::launder(reinterpret_cast<PairSlot*>(fleet_ + volume_));
  }
  Region<PairSlot> pairs() const { return {pair_data(), pair_count_}; }
  std::uint32_t* dest_data() const {
    return std::launder(
        reinterpret_cast<std::uint32_t*>(pair_data() + pair_count_));
  }
  Region<std::uint32_t> dests() const { return {dest_data(), volume_}; }
  // Room for a ring's beat slots: one per pair at most.
  Region<std::uint32_t> beat_room() const {
    return {dest_data() + volume_, pair_count_};
  }

  // Row-major offset of `home` in the cube (= its vehicle id);
  // kNoVehicle when outside.
  std::uint32_t id_of_home(const Point& home) const;
  // `p` (which must lie in the cube) as offsets from the corner.
  CubeOffset offset_of(const Point& p) const;
  double capacity() const { return params_.config.capacity; }
  // Fills the lent transport's neighbor scratch with vid's radius-r
  // neighbors and returns it (the serve path runs one of these per
  // protocol message, so per-call vector churn was measurable).
  const std::vector<std::uint32_t>& neighbors_of(std::size_t vid);
  void check_longevity(Vehicle& v);

  // Attributes `count` Query sends to computation `init` and updates
  // the running per-computation max (obs-gated; callers check).
  void obs_note_queries(const InitTag& init, std::size_t count);

  // `k` is the snake index the vehicle now stands on.
  void after_serving(std::size_t vid, std::int64_t k);
  // `dest` is the snake index of the vertex the replacement must occupy.
  void initiate_computation(std::size_t initiator, std::int64_t dest);
  void on_query(std::size_t vid, std::size_t from, const QueryMsg& q);
  void on_reply(std::size_t vid, std::size_t from, const ReplyMsg& r);
  void on_move(std::size_t vid, std::size_t from, const MoveMsg& m);
  void finish_phase_one(std::size_t vid);
  void spend_travel(Vehicle& v, std::int64_t dist);
  // The vehicle `v`, standing on snake index k, stops serving its pair:
  // vacates the pair's slot if v held it and records k as the pair's
  // last-served vertex.
  void release_pair(const Vehicle& v, std::int64_t k);

  // Marks the monitoring cache stale (see the file comment).
  void touch() { ring_dirty_ = scan_dirty_ = true; }
  // Pair `pair` is in the ring: its active vehicle is healthy.
  bool in_ring(const PairSlot& pair) const {
    return pair.active != kNoVehicle && fleet()[pair.active].can_serve();
  }
  // Rebuilds the beat slots from the fleet, bounding the heartbeat table
  // on the way (see the file comment).
  void rebuild_ring();
  // Resolves the ring's beat slots into beat_room(); returns whether the
  // ring has a member.
  bool resolve_beats();
  // Calls beat(from, to) for each heartbeat of a round, in send order;
  // returns whether the ring has a member.
  template <class F>
  bool for_each_ring_beat(F&& beat) const;
  // The timeout scan acts on `pair`: it has no healthy active vehicle,
  // no replacement in flight, and idle vehicles may remain.
  bool timed_out(const PairSlot& pair) const;
  // The monitor of pair i: its nearest ring predecessor free to initiate
  // (healthy, in no search); kNoVehicle when there is none.
  std::uint32_t ring_monitor(std::size_t i) const;

  const CubeParams& params_;  // borrowed deployment constants
  Network& network_;          // borrowed; its transport holds the queue
  Point corner_;
  // The regions (borrowed): the fleet (id = row-major offset of the
  // home), then the pair slots (slot i = snake pair (2i, 2i+1)), the
  // Phase II destinations (vehicle id -> snake index its move must
  // carry; kNoDest while it runs no computation) and the beat slots.
  Vehicle* fleet_;
  std::uint32_t volume_;      // vehicles
  std::uint32_t pair_count_;  // pair slots
  // The ring's heartbeats: the first beat_count_ beat slots, in send
  // order; rebuilt only when ring_dirty_.
  std::uint32_t beat_count_ = 0;
  // The monitoring cache's state (see the file comment): the beat slots
  // or the timeout scan may be stale; the ring had no member when last
  // built.
  bool ring_dirty_ = true;
  bool scan_dirty_ = true;
  bool ring_empty_ = false;
  // Vehicle id -> injected longevity p_i (negative = never breaks);
  // null until the first inject_break_after, so streams without
  // breakage pay nothing for the check.
  std::unique_ptr<double[]> longevity_;

  FleetObs* obs_ = nullptr;         // Tier-A state (borrowed; may be null)
  SpanRecorder* spans_ = nullptr;   // Tier-C hook (borrowed; may be null)

  CoreMetrics metrics_;  // the network keeps its own stats
  JobTiming last_timing_;
};

// Theoretical online capacity bound (Lemma 3.3.1): (4·3^ℓ + ℓ)·ω_c.
double won_upper_bound(double omega_c, int dim);

}  // namespace cmvrp
