#include "simcore/flow_network.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace cpa::sim {
namespace {
// Bytes below this are considered "transferred" when deciding completion;
// integer-tick rounding can leave sub-nanosecond residues.
constexpr double kByteEps = 1e-6;
// Completion predictions beyond this many virtual seconds (> 100 years)
// are treated as "never": the flow stays attached and is re-predicted
// when a mutation changes its rate.  Keeps the seconds -> Tick cast in
// range for pathological byte/rate combinations.
constexpr double kNeverSeconds = 4.0e9;
}  // namespace

PoolId FlowNetwork::add_pool(std::string name, double capacity_bps) {
  assert(capacity_bps >= 0.0);
  pools_.push_back(Pool{std::move(name), capacity_bps, 0.0, 0, {}});
  return PoolId{static_cast<std::uint32_t>(pools_.size() - 1)};
}

void FlowNetwork::set_pool_capacity(PoolId pool, double capacity_bps) {
  assert(pool.valid() && pool.idx < pools_.size());
  pools_[pool.idx].capacity = capacity_bps;
  if (pools_[pool.idx].members.empty() && !full_recompute_) return;
  seed_pools_.clear();
  seed_pools_.push_back(pool.idx);
  recompute_components(seed_pools_, kNoSlot);
  schedule_next_completion();
}

double FlowNetwork::pool_capacity(PoolId pool) const {
  assert(pool.valid() && pool.idx < pools_.size());
  return pools_[pool.idx].capacity;
}

const std::string& FlowNetwork::pool_name(PoolId pool) const {
  assert(pool.valid() && pool.idx < pools_.size());
  return pools_[pool.idx].name;
}

double FlowNetwork::pool_busy_seconds(PoolId pool) const {
  assert(pool.valid() && pool.idx < pools_.size());
  const Pool& p = pools_[pool.idx];
  double busy = p.busy_seconds;
  if (!p.members.empty()) busy += to_seconds(sim_.now() - p.busy_since);
  return busy;
}

double FlowNetwork::pool_allocated(PoolId pool) const {
  assert(pool.valid() && pool.idx < pools_.size());
  double sum = 0.0;
  for (const PoolMember& m : pools_[pool.idx].members) {
    const Flow& f = slots_[m.slot];
    sum += f.rate * f.legs[m.leg].weight;
  }
  return sum;
}

FlowId FlowNetwork::start_flow(std::vector<PathLeg> path, double bytes,
                               std::function<void(const FlowStats&)> on_complete,
                               double max_rate) {
  assert(bytes >= 0.0);
  assert(max_rate > 0.0);
  const Tick now = sim_.now();
  const std::uint64_t id = next_flow_id_++;

  if (probe_ != nullptr) probe_->on_flow_started(id, bytes, now);

  if (bytes <= kByteEps) {
    // Degenerate flow: complete immediately (via the event queue), but
    // keep the queued completion cancellable through abort_flow.
    FlowStats st{now, now, bytes};
    const Simulation::EventId ev =
        sim_.after(0, [this, id, cb = std::move(on_complete), st] {
          zero_flows_.erase(id);
          if (probe_ != nullptr) probe_->on_flow_completed(id, st);
          if (cb) cb(st);
        });
    zero_flows_.emplace(id, ev);
    return FlowId{id};
  }

  std::uint32_t slot;
  if (free_slots_.empty()) {
    slot = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
  } else {
    slot = free_slots_.back();
    free_slots_.pop_back();
  }
  Flow& f = slots_[slot];
  f.legs.clear();  // keeps the capacity of the slot's previous occupant
  for (const PathLeg& leg : path) {
    assert(leg.pool.valid() && leg.pool.idx < pools_.size());
    assert(leg.weight > 0.0);
    bool merged = false;
    for (Leg& l : f.legs) {
      if (l.pool == leg.pool.idx) {
        l.weight += leg.weight;
        merged = true;
        break;
      }
    }
    if (!merged) f.legs.push_back(Leg{leg.weight, leg.pool.idx, 0});
  }
  f.id = id;
  f.bytes_total = bytes;
  f.bytes_done = 0.0;
  f.rate = 0.0;
  f.max_rate = max_rate;
  f.started = now;
  f.rate_epoch = now;
  f.on_complete = std::move(on_complete);
  slot_of_.emplace(id, slot);

  attach_flow(slot);
  seed_pools_.clear();
  recompute_components(seed_pools_, slot);
  schedule_next_completion();
  return FlowId{id};
}

bool FlowNetwork::abort_flow(FlowId id) {
  const auto zit = zero_flows_.find(id.id);
  if (zit != zero_flows_.end()) {
    sim_.cancel(zit->second);
    zero_flows_.erase(zit);
    if (probe_ != nullptr) probe_->on_flow_aborted(id.id, sim_.now());
    return true;
  }
  const auto it = slot_of_.find(id.id);
  if (it == slot_of_.end()) return false;
  const std::uint32_t slot = it->second;
  slot_of_.erase(it);
  detach_flow(slot);
  seed_pools_.clear();
  for (const Leg& leg : slots_[slot].legs) seed_pools_.push_back(leg.pool);
  free_slot(slot);
  recompute_components(seed_pools_, kNoSlot);
  schedule_next_completion();
  if (probe_ != nullptr) probe_->on_flow_aborted(id.id, sim_.now());
  return true;
}

const FlowNetwork::Flow* FlowNetwork::find_flow(FlowId id) const {
  const auto it = slot_of_.find(id.id);
  return it == slot_of_.end() ? nullptr : &slots_[it->second];
}

double FlowNetwork::flow_rate(FlowId id) const {
  const Flow* f = find_flow(id);
  return f == nullptr ? 0.0 : f->rate;
}

double FlowNetwork::flow_bytes_done(FlowId id) const {
  const Flow* f = find_flow(id);
  if (f == nullptr) return 0.0;
  const double dt = to_seconds(sim_.now() - f->rate_epoch);
  return std::min(f->bytes_total, f->bytes_done + f->rate * dt);
}

std::vector<FlowId> FlowNetwork::live_flow_ids() const {
  std::vector<FlowId> out;
  out.reserve(slot_of_.size());
  for (const Flow& f : slots_) {
    if (f.id != 0) out.push_back(FlowId{f.id});
  }
  std::sort(out.begin(), out.end(),
            [](FlowId a, FlowId b) { return a.id < b.id; });
  return out;
}

void FlowNetwork::free_slot(std::uint32_t slot) {
  Flow& f = slots_[slot];
  f.id = 0;
  ++f.gen;  // tombstones any queued prediction, now and after reuse
  f.pred_live = false;
  f.on_complete = nullptr;  // releases the callback's captures now
  free_slots_.push_back(slot);
}

void FlowNetwork::sync_flow(Flow& f, Tick now) {
  if (now == f.rate_epoch) return;
  const double dt = to_seconds(now - f.rate_epoch);
  f.bytes_done = std::min(f.bytes_total, f.bytes_done + f.rate * dt);
  f.rate_epoch = now;
}

void FlowNetwork::attach_flow(std::uint32_t slot) {
  const Tick now = sim_.now();
  std::vector<Leg>& legs = slots_[slot].legs;
  for (std::uint32_t i = 0; i < legs.size(); ++i) {
    Pool& p = pools_[legs[i].pool];
    if (p.members.empty()) p.busy_since = now;  // idle -> active transition
    legs[i].member_pos = static_cast<std::uint32_t>(p.members.size());
    p.members.push_back(PoolMember{slot, i});
  }
}

void FlowNetwork::detach_flow(std::uint32_t slot) {
  const Tick now = sim_.now();
  for (const Leg& leg : slots_[slot].legs) {
    Pool& p = pools_[leg.pool];
    const std::uint32_t pos = leg.member_pos;
    const PoolMember moved = p.members.back();
    p.members.pop_back();
    if (pos < p.members.size()) {
      p.members[pos] = moved;
      slots_[moved.slot].legs[moved.leg].member_pos = pos;
    }
    if (p.members.empty()) {
      p.busy_seconds += to_seconds(now - p.busy_since);  // active -> idle
    }
  }
}

void FlowNetwork::predict_completion(std::uint32_t slot, Tick now) {
  Flow& f = slots_[slot];
  const double remaining = f.bytes_total - f.bytes_done;
  // Seconds to go.  A stalled flow (rate 0, bytes remaining) gets no
  // prediction: it is re-predicted when a mutation restores its rate.
  double s = 0.0;
  if (remaining > kByteEps) s = f.rate > 0.0 ? remaining / f.rate : kNeverSeconds;
  if (s >= kNeverSeconds) {
    if (f.pred_live) ++f.gen;  // tombstone the queued prediction
    f.pred_live = false;
    return;
  }
  // Round up to the next tick so the flow is certainly finished when the
  // event fires.
  const Tick at =
      now + static_cast<Tick>(std::ceil(s * static_cast<double>(kTicksPerSec)));
  if (f.pred_live && f.pred_at == at) return;  // the queued entry still holds
  ++f.gen;
  f.pred_at = at;
  f.pred_live = true;
  finish_q_.push(FinishEntry{at, slot, f.gen});
}

void FlowNetwork::solve_component(std::vector<WfFlow*>& unfixed,
                                  const std::vector<std::uint32_t>& comp_pools,
                                  std::vector<double>& residual,
                                  std::vector<double>& weight_sum) {
  // Progressive filling (water-filling) with per-flow caps and per-leg
  // weights.  All unfixed flows' rates rise together; pool p saturates at
  // rate r = residual_p / W_p, where W_p is the total weight of unfixed
  // flows through it:
  //   1. the component bottleneck share is min_p residual_p / W_p;
  //   2. any unfixed flow whose cap is below that share is fixed at its
  //      cap first (it cannot use its full fair share anywhere);
  //   3. otherwise all unfixed flows through the bottleneck pool are fixed
  //      at the bottleneck share.
  // Each round fixes at least one flow, so this is O(F * (F + P)) in the
  // *component* size.  `unfixed` arrives in ascending flow-id order and
  // `comp_pools` ascending; together with this function being shared by
  // the incremental and reference paths, that makes both produce
  // bit-identical floating-point rates.
  while (!unfixed.empty()) {
    for (const std::uint32_t p : comp_pools) weight_sum[p] = 0.0;
    for (const WfFlow* f : unfixed) {
      for (const Leg* l = f->legs; l != f->legs_end; ++l) {
        weight_sum[l->pool] += l->weight;
      }
    }

    double share = std::numeric_limits<double>::infinity();
    std::uint32_t bottleneck = std::uint32_t(-1);
    for (const std::uint32_t p : comp_pools) {
      if (weight_sum[p] <= 0.0) continue;
      const double s = std::max(residual[p], 0.0) / weight_sum[p];
      if (s < share) {
        share = s;
        bottleneck = p;
      }
    }

    auto fix_flow = [&](WfFlow* f, double rate) {
      f->rate = rate;
      for (const Leg* l = f->legs; l != f->legs_end; ++l) {
        residual[l->pool] -= rate * l->weight;
      }
    };

    // Flows that traverse no pools at all are limited only by their cap.
    // (The archive always routes through at least one pool, but the model
    // stays well-defined without.)
    if (bottleneck == std::uint32_t(-1)) {
      for (WfFlow* f : unfixed) {
        f->rate = std::isinf(f->cap) ? 0.0 : f->cap;
      }
      unfixed.clear();
      break;
    }

    // Step 2: cap-limited flows first.
    bool fixed_any_capped = false;
    for (std::size_t i = 0; i < unfixed.size();) {
      WfFlow* f = unfixed[i];
      if (f->cap <= share) {
        fix_flow(f, f->cap);
        unfixed[i] = unfixed.back();
        unfixed.pop_back();
        fixed_any_capped = true;
      } else {
        ++i;
      }
    }
    if (fixed_any_capped) continue;

    // Step 3: saturate the bottleneck pool.
    for (std::size_t i = 0; i < unfixed.size();) {
      WfFlow* f = unfixed[i];
      bool through = false;
      for (const Leg* l = f->legs; l != f->legs_end; ++l) {
        if (l->pool == bottleneck) {
          through = true;
          break;
        }
      }
      if (through) {
        fix_flow(f, share);
        unfixed[i] = unfixed.back();
        unfixed.pop_back();
      } else {
        ++i;
      }
    }
  }
}

void FlowNetwork::solve_sorted(const std::vector<SlotRef>& comp,
                               const std::vector<std::uint32_t>& comp_pools,
                               std::vector<double>& residual,
                               std::vector<double>& weight_sum,
                               std::vector<Leg>& legs,
                               std::vector<WfFlow>& items,
                               std::vector<WfFlow*>& unfixed) const {
  for (const std::uint32_t p : comp_pools) {
    residual[p] = pools_[p].capacity;
    weight_sum[p] = 0.0;
  }
  legs.clear();
  for (const auto& [id, slot] : comp) {
    const std::vector<Leg>& fl = slots_[slot].legs;
    legs.insert(legs.end(), fl.begin(), fl.end());
  }
  items.clear();
  unfixed.clear();
  items.reserve(comp.size());
  const Leg* next = legs.data();
  for (const auto& [id, slot] : comp) {
    const Flow& f = slots_[slot];
    items.push_back(WfFlow{next, next + f.legs.size(), f.max_rate, 0.0});
    next += f.legs.size();
  }
  for (WfFlow& item : items) unfixed.push_back(&item);
  solve_component(unfixed, comp_pools, residual, weight_sum);
}

void FlowNetwork::recompute_components(
    const std::vector<std::uint32_t>& seed_pools, std::uint32_t seed_slot) {
  const Tick now = sim_.now();
  ++mark_epoch_;
  if (pool_mark_.size() < pools_.size()) pool_mark_.resize(pools_.size(), 0);
  if (residual_.size() < pools_.size()) {
    residual_.resize(pools_.size());
    weight_sum_.resize(pools_.size());
  }
  std::size_t touched = 0;

  // Adds a pool's unvisited member flows to the component.
  const auto collect_members = [&](std::uint32_t pool) {
    for (const PoolMember& m : pools_[pool].members) {
      Flow& mf = slots_[m.slot];
      if (mf.mark != mark_epoch_) {
        mf.mark = mark_epoch_;
        comp_.emplace_back(mf.id, m.slot);
      }
    }
  };

  // Expands the connected component reachable from a seed flow or pool
  // (whichever is already collected in comp_/comp_pools_), then re-solves
  // it canonically: flows ascending by id, pools ascending.
  const auto expand_and_solve = [&] {
    for (std::size_t i = 0; i < comp_.size(); ++i) {
      for (const Leg& leg : slots_[comp_[i].second].legs) {
        if (pool_mark_[leg.pool] == mark_epoch_) continue;
        pool_mark_[leg.pool] = mark_epoch_;
        comp_pools_.push_back(leg.pool);
        collect_members(leg.pool);
      }
    }
    if (comp_.empty()) return;
    std::sort(comp_.begin(), comp_.end());
    std::sort(comp_pools_.begin(), comp_pools_.end());
    for (const auto& [id, slot] : comp_) {
      sync_flow(slots_[slot], now);  // accrue bytes at the outgoing rate
    }
    solve_sorted(comp_, comp_pools_, residual_, weight_sum_, wf_legs_,
                 wf_items_, wf_unfixed_);
    for (std::size_t i = 0; i < comp_.size(); ++i) {
      const std::uint32_t slot = comp_[i].second;
      slots_[slot].rate = wf_items_[i].rate;
      predict_completion(slot, now);
    }
    touched += comp_.size();
  };

  const auto seed_with_flow = [&](std::uint32_t slot) {
    comp_.clear();
    comp_pools_.clear();
    Flow& f = slots_[slot];
    f.mark = mark_epoch_;
    comp_.emplace_back(f.id, slot);
    expand_and_solve();
  };

  if (full_recompute_) {
    for (std::uint32_t slot = 0; slot < slots_.size(); ++slot) {
      const Flow& f = slots_[slot];
      if (f.id != 0 && f.mark != mark_epoch_) seed_with_flow(slot);
    }
  } else {
    if (seed_slot != kNoSlot && slots_[seed_slot].mark != mark_epoch_) {
      seed_with_flow(seed_slot);
    }
    for (const std::uint32_t p : seed_pools) {
      if (pool_mark_[p] == mark_epoch_ || pools_[p].members.empty()) continue;
      comp_.clear();
      comp_pools_.clear();
      pool_mark_[p] = mark_epoch_;
      comp_pools_.push_back(p);
      collect_members(p);
      expand_and_solve();
    }
  }

  if (probe_ != nullptr) probe_->on_rates_recomputed(touched);
}

std::vector<std::pair<std::uint64_t, double>>
FlowNetwork::recompute_rates_reference() const {
  std::vector<std::pair<std::uint64_t, double>> out;
  out.reserve(slot_of_.size());
  if (slot_of_.empty()) return out;

  // Mirrors recompute_components() with local scratch: same component
  // discovery, same canonical ordering, same solver — so the floating
  // point sequences match the incremental path operation for operation.
  std::vector<char> pool_seen(pools_.size(), 0);
  std::vector<char> flow_seen(slots_.size(), 0);
  std::vector<double> residual(pools_.size(), 0.0);
  std::vector<double> weight_sum(pools_.size(), 0.0);
  std::vector<std::uint32_t> comp_pools;
  std::vector<SlotRef> comp;
  std::vector<Leg> legs;
  std::vector<WfFlow> items;
  std::vector<WfFlow*> unfixed;

  for (std::uint32_t seed = 0; seed < slots_.size(); ++seed) {
    if (slots_[seed].id == 0 || flow_seen[seed]) continue;
    flow_seen[seed] = 1;
    comp_pools.clear();
    comp.clear();
    comp.emplace_back(slots_[seed].id, seed);
    for (std::size_t i = 0; i < comp.size(); ++i) {
      for (const Leg& leg : slots_[comp[i].second].legs) {
        if (pool_seen[leg.pool]) continue;
        pool_seen[leg.pool] = 1;
        comp_pools.push_back(leg.pool);
        for (const PoolMember& m : pools_[leg.pool].members) {
          if (!flow_seen[m.slot]) {
            flow_seen[m.slot] = 1;
            comp.emplace_back(slots_[m.slot].id, m.slot);
          }
        }
      }
    }
    std::sort(comp.begin(), comp.end());
    std::sort(comp_pools.begin(), comp_pools.end());
    solve_sorted(comp, comp_pools, residual, weight_sum, legs, items, unfixed);
    for (std::size_t i = 0; i < comp.size(); ++i) {
      out.emplace_back(comp[i].first, items[i].rate);
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

void FlowNetwork::schedule_next_completion() {
  while (!finish_q_.empty() &&
         slots_[finish_q_.top().slot].gen != finish_q_.top().gen) {
    finish_q_.pop();  // tombstoned prediction
  }
  if (completion_event_.valid()) {
    sim_.cancel(completion_event_);
    completion_event_ = {};
  }
  if (finish_q_.empty()) return;
  completion_event_ =
      sim_.at(finish_q_.top().at, [this] { on_completion_event(); });
}

void FlowNetwork::on_completion_event() {
  completion_event_ = {};
  const Tick now = sim_.now();

  // Collect finished flows first (callbacks may start new flows), looping
  // because freeing a finished flow's bandwidth can reveal further
  // same-tick completions in the recomputed component.  The callbacks run
  // from a buffer taken out of `done_`, so a callback that re-enters the
  // network never sees it half-consumed.
  std::vector<Done> done;
  done.swap(done_);
  for (;;) {
    due_.clear();
    while (!finish_q_.empty()) {
      const FinishEntry& e = finish_q_.top();
      Flow& f = slots_[e.slot];
      if (f.gen != e.gen) {
        finish_q_.pop();  // tombstoned prediction
        continue;
      }
      if (e.at > now) break;
      f.pred_live = false;
      due_.emplace_back(f.id, e.slot);
      finish_q_.pop();
    }
    if (due_.empty()) break;
    std::sort(due_.begin(), due_.end());  // complete in ascending-id order
    seed_pools_.clear();
    bool finished_any = false;
    for (const auto& [id, slot] : due_) {
      Flow& f = slots_[slot];
      sync_flow(f, now);
      if (f.bytes_total - f.bytes_done <= kByteEps) {
        detach_flow(slot);
        for (const Leg& leg : f.legs) seed_pools_.push_back(leg.pool);
        done.push_back(Done{id, FlowStats{f.started, now, f.bytes_total},
                            std::move(f.on_complete)});
        slot_of_.erase(id);
        free_slot(slot);
        finished_any = true;
      } else {
        // Integer-tick rounding fired us a hair early: re-aim.
        predict_completion(slot, now);
      }
    }
    if (finished_any) recompute_components(seed_pools_, kNoSlot);
  }
  schedule_next_completion();

  for (Done& d : done) {
    if (probe_ != nullptr) probe_->on_flow_completed(d.id, d.st);
    if (d.cb) d.cb(d.st);
  }
  done.clear();
  done_ = std::move(done);  // hand the buffer back, capacity intact
}

}  // namespace cpa::sim
