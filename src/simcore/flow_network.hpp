// Fluid-flow bandwidth model with max-min fair sharing.
//
// Every data movement in the simulated archive (client NIC -> 10GigE trunk
// -> NSD disk server, or client HBA -> FC SAN -> tape drive) is a *flow*
// that traverses a set of bandwidth *pools*.  Active flows share each pool
// max-min fairly: rates are computed by progressive filling (repeatedly
// saturate the tightest pool), which is the standard fluid approximation
// for TCP-like fair sharing used in storage/network simulators.
//
// Scheduling is incremental.  Pools keep membership indexes of the flows
// traversing them, so a mutation (flow start/finish/abort, capacity
// change) re-solves only the connected component of pools and flows it
// touches — a flow joining an idle pool never re-solves unrelated flows.
// Progress accounting is lazy: each flow carries a rate epoch and accrues
// bytes only when its own rate changes (or when it is queried), so
// quiescent flows cost nothing per event.  Pool busy time is integrated
// from idle/active transitions.  Flows live in a dense slot array with a
// free list; pool membership and completion predictions name slots, so the
// hot paths never look a flow up by id.  `recompute_rates_reference()`
// performs the full from-scratch water-filling; the incremental path is
// required (and differentially tested) to produce bit-identical rates.
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <map>
#include <queue>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "simcore/probe.hpp"
#include "simcore/simulation.hpp"

namespace cpa::sim {

struct PoolId {
  std::uint32_t idx = std::uint32_t(-1);
  [[nodiscard]] bool valid() const { return idx != std::uint32_t(-1); }
  friend bool operator==(PoolId a, PoolId b) { return a.idx == b.idx; }
};

struct FlowId {
  std::uint64_t id = 0;
  [[nodiscard]] bool valid() const { return id != 0; }
  friend bool operator==(FlowId a, FlowId b) { return a.id == b.id; }
};

/// One hop of a flow's path.  `weight` is the fraction of the flow's rate
/// this pool carries: a serial leg (NIC, trunk, SAN, tape drive) carries
/// the full rate (weight 1); a transfer striped over N disk servers
/// charges each server only rate/N (weight 1/N), which is what lets wide
/// stripes aggregate bandwidth.
struct PathLeg {
  PoolId pool;
  double weight = 1.0;
  PathLeg(PoolId p) : pool(p) {}  // NOLINT(google-explicit-constructor)
  PathLeg(PoolId p, double w) : pool(p), weight(w) {}
};

struct FlowStats {
  Tick started = 0;
  Tick finished = 0;
  double bytes = 0.0;
  [[nodiscard]] double mean_rate() const {
    const double dt = to_seconds(finished - started);
    return dt > 0.0 ? bytes / dt : 0.0;
  }
};

class FlowNetwork {
 public:
  static constexpr double kUnlimited = std::numeric_limits<double>::infinity();

  explicit FlowNetwork(Simulation& sim) : sim_(sim) {}
  FlowNetwork(const FlowNetwork&) = delete;
  FlowNetwork& operator=(const FlowNetwork&) = delete;

  /// Registers a bandwidth pool with the given capacity in bytes/second.
  PoolId add_pool(std::string name, double capacity_bps);

  /// Changes a pool's capacity; rates of the flows in the pool's connected
  /// component are recomputed.  Capacity 0 stalls the component's flows
  /// (they keep their byte progress and resume when capacity returns).
  void set_pool_capacity(PoolId pool, double capacity_bps);

  [[nodiscard]] double pool_capacity(PoolId pool) const;
  [[nodiscard]] const std::string& pool_name(PoolId pool) const;
  /// Sum of current flow rates through the pool.
  [[nodiscard]] double pool_allocated(PoolId pool) const;
  [[nodiscard]] std::size_t pool_count() const { return pools_.size(); }
  /// Virtual seconds (up to `now()`) during which at least one flow
  /// traversed the pool — the utilization numerator behind the paper's
  /// "~75% bandwidth utilization from two 10GigE trunks".  A stalled but
  /// still-attached flow counts as busy (the pool is occupied).
  [[nodiscard]] double pool_busy_seconds(PoolId pool) const;

  /// Starts a flow of `bytes` through `path` (duplicate pools have their
  /// weights summed).  `on_complete` fires through the event queue when
  /// the last byte arrives.  `max_rate` caps the flow independently of
  /// pool contention.  A zero-byte flow completes at the current time.
  FlowId start_flow(std::vector<PathLeg> path, double bytes,
                    std::function<void(const FlowStats&)> on_complete,
                    double max_rate = kUnlimited);

  /// Aborts an in-progress flow; its completion callback never fires.
  /// This includes zero-byte flows whose completion is still queued.
  /// Returns false if the flow already completed or does not exist.
  bool abort_flow(FlowId id);

  /// Current fair-share rate of a flow (0 if unknown / completed).
  [[nodiscard]] double flow_rate(FlowId id) const;

  /// Bytes transferred so far by a flow (includes progress accrued since
  /// the flow's last rate change).
  [[nodiscard]] double flow_bytes_done(FlowId id) const;

  [[nodiscard]] std::size_t active_flows() const { return slot_of_.size(); }

  /// Ids of all in-progress flows, ascending (oracle/test accessor).
  [[nodiscard]] std::vector<FlowId> live_flow_ids() const;

  /// Full from-scratch progressive-filling water-filling over every active
  /// flow, without mutating any state.  Returns (flow id, rate) pairs in
  /// ascending id order.  This is the differential-test oracle: the
  /// incrementally maintained `flow_rate()` values must equal these
  /// *exactly* (bit for bit) after every mutation.
  [[nodiscard]] std::vector<std::pair<std::uint64_t, double>>
  recompute_rates_reference() const;

  /// Debug/bench knob: when on, every mutation re-solves all components
  /// from scratch instead of only the dirty component (the pre-incremental
  /// behaviour; what bench_flow_churn measures against).
  void set_full_recompute(bool on) { full_recompute_ = on; }

  /// Attaches a flow-lifecycle probe (nullptr detaches).
  void set_probe(FlowProbe* probe) { probe_ = probe; }

 private:
  /// Membership entry: which flow slot, and which of its legs, sits in a
  /// pool.  The leg backpointer makes removal O(1) via swap-erase.
  struct PoolMember {
    std::uint32_t slot;
    std::uint32_t leg;
  };
  struct Pool {
    std::string name;
    double capacity;
    double busy_seconds = 0.0;  // integrated over active intervals
    Tick busy_since = 0;        // valid while members is non-empty
    std::vector<PoolMember> members;
  };
  struct Leg {
    double weight;
    std::uint32_t pool;
    std::uint32_t member_pos = 0;  // index into Pool::members
  };
  /// One slot of the dense flow array.  A slot is live while `id != 0`;
  /// freed slots go on a free list and keep their leg capacity for the
  /// next occupant.  `gen` only ever grows over the slot's lifetime: it is
  /// bumped by every new completion prediction and when the slot is
  /// freed, so a queued FinishEntry is live iff its gen still matches —
  /// a recycled slot can never fire its previous occupant's prediction.
  struct Flow {
    std::uint64_t id = 0;
    std::vector<Leg> legs;  // deduplicated (pool, weight) pairs
    double bytes_total = 0.0;
    double bytes_done = 0.0;  // as of `rate_epoch`
    double rate = 0.0;
    double max_rate = kUnlimited;
    Tick started = 0;
    Tick rate_epoch = 0;       // when bytes_done/rate were last synced
    Tick pred_at = 0;          // tick of the live queued prediction
    std::uint32_t gen = 0;     // see above
    bool pred_live = false;    // a FinishEntry with `gen` is queued
    std::uint64_t mark = 0;    // component-BFS visit stamp
    std::function<void(const FlowStats&)> on_complete;
  };
  /// Water-filling working item; [legs, legs_end) is the flow's leg list
  /// copied into the component's contiguous leg scratch.
  struct WfFlow {
    const Leg* legs;
    const Leg* legs_end;
    double cap;
    double rate = 0.0;
  };
  /// Predicted completion, lazily invalidated by Flow::gen.  Ties on `at`
  /// need no order: every entry due at a tick is popped before any flow
  /// completes, and due flows complete in ascending id order.
  struct FinishEntry {
    Tick at;
    std::uint32_t slot;
    std::uint32_t gen;
  };
  struct FinishLater {
    bool operator()(const FinishEntry& a, const FinishEntry& b) const {
      return a.at > b.at;
    }
  };
  /// (flow id, slot): sorting by id gives the canonical solve order.
  using SlotRef = std::pair<std::uint64_t, std::uint32_t>;
  /// A completed flow whose callback runs after the completion sweep.
  struct Done {
    std::uint64_t id;
    FlowStats st;
    std::function<void(const FlowStats&)> cb;
  };

  /// Slot of a live flow, or nullptr (the FlowId API's only lookup).
  [[nodiscard]] const Flow* find_flow(FlowId id) const;
  /// Frees a detached flow's slot: tombstones its prediction and puts the
  /// slot on the free list.
  void free_slot(std::uint32_t slot);
  /// Accrues the flow's bytes up to `now` and stamps its rate epoch.
  static void sync_flow(Flow& f, Tick now);
  /// Inserts/removes the flow in its legs' pool membership indexes,
  /// integrating pool busy time on idle/active transitions.
  void attach_flow(std::uint32_t slot);
  void detach_flow(std::uint32_t slot);
  /// Predicts the flow's completion tick.  An unchanged tick keeps the
  /// queued entry; otherwise it is tombstoned and a fresh one pushed.
  /// Stalled flows (rate 0, bytes remaining) get none.
  void predict_completion(std::uint32_t slot, Tick now);
  /// Re-solves the connected components reachable from the seed pools
  /// (plus, for start_flow, the seed flow slot), or every component when
  /// `full_recompute_` is set.  Flows in re-solved components have their
  /// bytes synced, rates reassigned, and completions re-predicted.
  void recompute_components(const std::vector<std::uint32_t>& seed_pools,
                            std::uint32_t seed_slot);
  /// Canonical per-component progressive filling.  `unfixed` must be in
  /// ascending flow-id order and `comp_pools` ascending; both orders are
  /// part of the determinism contract shared with the reference solver.
  static void solve_component(std::vector<WfFlow*>& unfixed,
                              const std::vector<std::uint32_t>& comp_pools,
                              std::vector<double>& residual,
                              std::vector<double>& weight_sum);
  /// Fills `items`/`legs` with the component's flows in `comp` order and
  /// runs solve_component; item i holds the rate of comp[i].
  void solve_sorted(const std::vector<SlotRef>& comp,
                    const std::vector<std::uint32_t>& comp_pools,
                    std::vector<double>& residual,
                    std::vector<double>& weight_sum, std::vector<Leg>& legs,
                    std::vector<WfFlow>& items,
                    std::vector<WfFlow*>& unfixed) const;
  /// Cancels and reschedules the single sim event for the earliest
  /// predicted completion.
  void schedule_next_completion();
  /// Fires from the completion event: completes every due flow, cascading
  /// through same-tick completions revealed by the recompute.
  void on_completion_event();

  static constexpr std::uint32_t kNoSlot = std::uint32_t(-1);

  Simulation& sim_;
  FlowProbe* probe_ = nullptr;
  bool full_recompute_ = false;
  std::vector<Pool> pools_;
  std::vector<Flow> slots_;
  std::vector<std::uint32_t> free_slots_;
  /// Live flow id -> slot, for the FlowId API only.
  std::unordered_map<std::uint64_t, std::uint32_t> slot_of_;
  /// Zero-byte flows whose queued completion can still be aborted.
  std::map<std::uint64_t, Simulation::EventId> zero_flows_;
  std::uint64_t next_flow_id_ = 1;
  std::uint64_t mark_epoch_ = 0;
  std::priority_queue<FinishEntry, std::vector<FinishEntry>, FinishLater>
      finish_q_;
  Simulation::EventId completion_event_{};
  // Recompute scratch (member buffers so the steady path never allocates).
  std::vector<std::uint32_t> seed_pools_;
  std::vector<double> residual_;
  std::vector<double> weight_sum_;
  std::vector<std::uint64_t> pool_mark_;
  std::vector<std::uint32_t> comp_pools_;
  std::vector<SlotRef> comp_;
  std::vector<Leg> wf_legs_;
  std::vector<WfFlow> wf_items_;
  std::vector<WfFlow*> wf_unfixed_;
  // Completion-event scratch.
  std::vector<SlotRef> due_;
  std::vector<Done> done_;
};

}  // namespace cpa::sim
