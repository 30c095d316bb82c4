#include "simcore/flow_network.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <optional>
#include <tuple>
#include <vector>

#include "simcore/rng.hpp"

namespace cpa::sim {
namespace {

constexpr double kMBd = 1e6;

TEST(FlowNetwork, SingleFlowRunsAtPoolCapacity) {
  Simulation sim;
  FlowNetwork net(sim);
  const PoolId link = net.add_pool("link", 100 * kMBd);
  std::optional<FlowStats> done;
  net.start_flow({link}, 1000 * kMBd, [&](const FlowStats& s) { done = s; });
  sim.run();
  ASSERT_TRUE(done.has_value());
  EXPECT_NEAR(to_seconds(done->finished - done->started), 10.0, 1e-6);
  EXPECT_NEAR(done->mean_rate(), 100 * kMBd, 1.0);
}

TEST(FlowNetwork, TwoFlowsShareFairly) {
  Simulation sim;
  FlowNetwork net(sim);
  const PoolId link = net.add_pool("link", 100 * kMBd);
  Tick t1 = 0, t2 = 0;
  net.start_flow({link}, 500 * kMBd, [&](const FlowStats& s) { t1 = s.finished; });
  net.start_flow({link}, 500 * kMBd, [&](const FlowStats& s) { t2 = s.finished; });
  sim.run();
  // Both at 50 MB/s for 10 s.
  EXPECT_NEAR(to_seconds(t1), 10.0, 1e-6);
  EXPECT_NEAR(to_seconds(t2), 10.0, 1e-6);
}

TEST(FlowNetwork, ShortFlowFinishesThenLongFlowSpeedsUp) {
  Simulation sim;
  FlowNetwork net(sim);
  const PoolId link = net.add_pool("link", 100 * kMBd);
  Tick t_long = 0;
  net.start_flow({link}, 1000 * kMBd, [&](const FlowStats& s) { t_long = s.finished; });
  net.start_flow({link}, 100 * kMBd, [](const FlowStats&) {});
  sim.run();
  // Short flow: 100 MB at 50 MB/s -> done at t=2 s, having consumed 100 MB.
  // Long flow: 100 MB done by t=2, remaining 900 MB at 100 MB/s -> t=11 s.
  EXPECT_NEAR(to_seconds(t_long), 11.0, 1e-6);
}

TEST(FlowNetwork, PerFlowCapLimitsRate) {
  Simulation sim;
  FlowNetwork net(sim);
  const PoolId link = net.add_pool("link", 1000 * kMBd);
  Tick t = 0;
  net.start_flow({link}, 100 * kMBd, [&](const FlowStats& s) { t = s.finished; },
                 /*max_rate=*/10 * kMBd);
  sim.run();
  EXPECT_NEAR(to_seconds(t), 10.0, 1e-6);
}

TEST(FlowNetwork, CappedFlowLeavesBandwidthToOthers) {
  Simulation sim;
  FlowNetwork net(sim);
  const PoolId link = net.add_pool("link", 100 * kMBd);
  Tick t_capped = 0, t_free = 0;
  // Capped flow takes 20 MB/s; the other should get 80 MB/s, not 50.
  net.start_flow({link}, 200 * kMBd,
                 [&](const FlowStats& s) { t_capped = s.finished; },
                 /*max_rate=*/20 * kMBd);
  net.start_flow({link}, 800 * kMBd, [&](const FlowStats& s) { t_free = s.finished; });
  sim.run();
  EXPECT_NEAR(to_seconds(t_capped), 10.0, 1e-6);
  EXPECT_NEAR(to_seconds(t_free), 10.0, 1e-6);
}

TEST(FlowNetwork, MultiPoolFlowLimitedByTightestPool) {
  Simulation sim;
  FlowNetwork net(sim);
  const PoolId wide = net.add_pool("wide", 1000 * kMBd);
  const PoolId narrow = net.add_pool("narrow", 25 * kMBd);
  Tick t = 0;
  net.start_flow({wide, narrow}, 250 * kMBd, [&](const FlowStats& s) { t = s.finished; });
  sim.run();
  EXPECT_NEAR(to_seconds(t), 10.0, 1e-6);
}

TEST(FlowNetwork, BottleneckSharingAcrossDistinctPaths) {
  // Classic max-min example: flows A (pools X+Y), B (pool X), C (pool Y).
  // X = 100, Y = 200.  Fair shares: A=50, B=50 via X; then C gets
  // Y's residual 150.
  Simulation sim;
  FlowNetwork net(sim);
  const PoolId x = net.add_pool("x", 100 * kMBd);
  const PoolId y = net.add_pool("y", 200 * kMBd);
  const FlowId a = net.start_flow({x, y}, 1e12, nullptr);
  const FlowId b = net.start_flow({x}, 1e12, nullptr);
  const FlowId c = net.start_flow({y}, 1e12, nullptr);
  EXPECT_NEAR(net.flow_rate(a), 50 * kMBd, 1.0);
  EXPECT_NEAR(net.flow_rate(b), 50 * kMBd, 1.0);
  EXPECT_NEAR(net.flow_rate(c), 150 * kMBd, 1.0);
}

TEST(FlowNetwork, DuplicatePoolsSumTheirWeights) {
  Simulation sim;
  FlowNetwork net(sim);
  const PoolId p = net.add_pool("p", 100 * kMBd);
  // A path crossing the same pool three times loads it at 3x the flow
  // rate, so the flow only achieves a third of the capacity.
  const FlowId f = net.start_flow({p, p, p}, 1e12, nullptr);
  EXPECT_NEAR(net.flow_rate(f), 100.0 / 3.0 * kMBd, 1.0);
  EXPECT_NEAR(net.pool_allocated(p), 100 * kMBd, 1.0);
}

TEST(FlowNetwork, WeightedStripeLegsAggregateBandwidth) {
  // A flow striped over four 100 MB/s disk servers (weight 1/4 each)
  // achieves 400 MB/s — the modeling basis for striped NSD reads.
  Simulation sim;
  FlowNetwork net(sim);
  std::vector<PathLeg> legs;
  for (int i = 0; i < 4; ++i) {
    legs.emplace_back(net.add_pool("nsd" + std::to_string(i), 100 * kMBd),
                      0.25);
  }
  const FlowId f = net.start_flow(legs, 1e12, nullptr);
  EXPECT_NEAR(net.flow_rate(f), 400 * kMBd, 1.0);
}

TEST(FlowNetwork, WeightedLegsShareFairlyAcrossFlows) {
  // Two striped flows over the same four servers each get 200 MB/s.
  Simulation sim;
  FlowNetwork net(sim);
  std::vector<PathLeg> legs;
  for (int i = 0; i < 4; ++i) {
    legs.emplace_back(net.add_pool("nsd" + std::to_string(i), 100 * kMBd),
                      0.25);
  }
  const FlowId a = net.start_flow(legs, 1e12, nullptr);
  const FlowId b = net.start_flow(legs, 1e12, nullptr);
  EXPECT_NEAR(net.flow_rate(a), 200 * kMBd, 1.0);
  EXPECT_NEAR(net.flow_rate(b), 200 * kMBd, 1.0);
}

TEST(FlowNetwork, ZeroByteFlowCompletesImmediately) {
  Simulation sim;
  FlowNetwork net(sim);
  const PoolId p = net.add_pool("p", 100 * kMBd);
  bool done = false;
  net.start_flow({p}, 0.0, [&](const FlowStats&) { done = true; });
  sim.run();
  EXPECT_TRUE(done);
  EXPECT_EQ(sim.now(), 0u);
}

TEST(FlowNetwork, AbortPreventsCompletionAndFreesBandwidth) {
  Simulation sim;
  FlowNetwork net(sim);
  const PoolId p = net.add_pool("p", 100 * kMBd);
  bool aborted_done = false;
  Tick t_other = 0;
  const FlowId victim =
      net.start_flow({p}, 1e12, [&](const FlowStats&) { aborted_done = true; });
  net.start_flow({p}, 1000 * kMBd, [&](const FlowStats& s) { t_other = s.finished; });
  sim.after(secs(5), [&] { EXPECT_TRUE(net.abort_flow(victim)); });
  sim.run();
  EXPECT_FALSE(aborted_done);
  // Other flow: 5 s at 50 MB/s = 250 MB, remaining 750 MB at 100 MB/s
  // -> finishes at 12.5 s.
  EXPECT_NEAR(to_seconds(t_other), 12.5, 1e-6);
}

TEST(FlowNetwork, AbortUnknownFlowReturnsFalse) {
  Simulation sim;
  FlowNetwork net(sim);
  net.add_pool("p", 1.0);
  EXPECT_FALSE(net.abort_flow(FlowId{999}));
}

TEST(FlowNetwork, CapacityChangeMidFlight) {
  Simulation sim;
  FlowNetwork net(sim);
  const PoolId p = net.add_pool("p", 100 * kMBd);
  Tick t = 0;
  net.start_flow({p}, 1000 * kMBd, [&](const FlowStats& s) { t = s.finished; });
  sim.after(secs(5), [&] { net.set_pool_capacity(p, 50 * kMBd); });
  sim.run();
  // 500 MB in the first 5 s, then 500 MB at 50 MB/s -> 15 s total.
  EXPECT_NEAR(to_seconds(t), 15.0, 1e-6);
}

TEST(FlowNetwork, ZeroCapacityPoolStallsFlowUntilRaised) {
  Simulation sim;
  FlowNetwork net(sim);
  const PoolId p = net.add_pool("p", 0.0);
  Tick t = 0;
  net.start_flow({p}, 100 * kMBd, [&](const FlowStats& s) { t = s.finished; });
  sim.after(secs(3), [&] { net.set_pool_capacity(p, 100 * kMBd); });
  sim.run();
  EXPECT_NEAR(to_seconds(t), 4.0, 1e-6);
}

TEST(FlowNetwork, FlowBytesDoneTracksProgress) {
  Simulation sim;
  FlowNetwork net(sim);
  const PoolId p = net.add_pool("p", 100 * kMBd);
  const FlowId f = net.start_flow({p}, 1000 * kMBd, nullptr);
  sim.run_until(secs(3));
  EXPECT_NEAR(net.flow_bytes_done(f), 300 * kMBd, 1.0);
}

TEST(FlowNetwork, AbortZeroByteFlowCancelsQueuedCompletion) {
  Simulation sim;
  FlowNetwork net(sim);
  const PoolId p = net.add_pool("p", 100 * kMBd);
  bool done = false;
  const FlowId f = net.start_flow({p}, 0.0, [&](const FlowStats&) { done = true; });
  // The completion event is queued but has not fired yet: aborting must
  // succeed, cancel it, and the callback must never run.
  EXPECT_TRUE(net.abort_flow(f));
  EXPECT_FALSE(net.abort_flow(f));  // second abort: already gone
  sim.run();
  EXPECT_FALSE(done);
  EXPECT_EQ(net.active_flows(), 0u);
}

TEST(FlowNetwork, StallToZeroThenRestoreResumesWithCorrectAccounting) {
  Simulation sim;
  FlowNetwork net(sim);
  const PoolId p = net.add_pool("p", 100 * kMBd);
  Tick t = 0;
  const FlowId f =
      net.start_flow({p}, 1000 * kMBd, [&](const FlowStats& s) { t = s.finished; });
  sim.after(secs(2), [&] { net.set_pool_capacity(p, 0.0); });
  sim.run_until(secs(5));
  // Mid-stall: the 200 MB transferred before the stall are frozen, the
  // rate is zero, and the flow is still attached.
  EXPECT_NEAR(net.flow_bytes_done(f), 200 * kMBd, 1.0);
  EXPECT_EQ(net.flow_rate(f), 0.0);
  EXPECT_EQ(net.active_flows(), 1u);
  sim.run_until(secs(7));
  EXPECT_NEAR(net.flow_bytes_done(f), 200 * kMBd, 1.0);  // still frozen
  net.set_pool_capacity(p, 100 * kMBd);
  sim.run();
  // 2 s of transfer + 5 s stalled + 8 s for the remaining 800 MB.
  EXPECT_NEAR(to_seconds(t), 15.0, 1e-6);
  // A stalled-but-attached flow keeps the pool occupied, so busy time
  // covers the whole 15 s including the stall window.
  EXPECT_NEAR(net.pool_busy_seconds(p), 15.0, 1e-6);
}

// Counts the incremental scheduler's work via the probe: mutations in one
// component must not touch flows in another.
struct RecomputeCounter final : FlowProbe {
  std::size_t calls = 0;
  std::size_t flows_touched = 0;
  void on_flow_started(std::uint64_t, double, Tick) override {}
  void on_flow_completed(std::uint64_t, const FlowStats&) override {}
  void on_flow_aborted(std::uint64_t, Tick) override {}
  void on_rates_recomputed(std::size_t n) override {
    ++calls;
    flows_touched += n;
  }
};

TEST(FlowNetwork, DisjointComponentMutationTouchesOnlyItsFlows) {
  Simulation sim;
  FlowNetwork net(sim);
  RecomputeCounter probe;
  const PoolId a = net.add_pool("a", 100 * kMBd);
  const PoolId b = net.add_pool("b", 100 * kMBd);
  for (int i = 0; i < 8; ++i) net.start_flow({a}, 1e12, nullptr);
  net.set_probe(&probe);
  probe = RecomputeCounter{};
  // Starting a flow in pool b must re-solve only that one flow, no matter
  // how many flows share pool a.
  const FlowId fb = net.start_flow({b}, 1e12, nullptr);
  EXPECT_EQ(probe.calls, 1u);
  EXPECT_EQ(probe.flows_touched, 1u);
  // A capacity change on b likewise stays inside b's component.
  probe = RecomputeCounter{};
  net.set_pool_capacity(b, 50 * kMBd);
  EXPECT_EQ(probe.calls, 1u);
  EXPECT_EQ(probe.flows_touched, 1u);
  EXPECT_EQ(net.flow_rate(fb), 50 * kMBd);
  // Aborting it re-solves the (now empty) component: zero flows touched.
  probe = RecomputeCounter{};
  EXPECT_TRUE(net.abort_flow(fb));
  EXPECT_EQ(probe.flows_touched, 0u);
}

TEST(FlowNetwork, CompletionCallbackMayStartNewFlow) {
  Simulation sim;
  FlowNetwork net(sim);
  const PoolId p = net.add_pool("p", 100 * kMBd);
  Tick t2 = 0;
  net.start_flow({p}, 100 * kMBd, [&](const FlowStats&) {
    net.start_flow({p}, 100 * kMBd, [&](const FlowStats& s) { t2 = s.finished; });
  });
  sim.run();
  EXPECT_NEAR(to_seconds(t2), 2.0, 1e-6);
}

// ---------------------------------------------------------------------------
// Slot recycling: finished and aborted flows free their slots for new ones.
// ---------------------------------------------------------------------------

TEST(FlowNetwork, StaleIdsStayDeadAfterTheirSlotsAreReused) {
  Simulation sim;
  FlowNetwork net(sim);
  const PoolId p = net.add_pool("p", 100 * kMBd);
  const FlowId done = net.start_flow({p}, 10 * kMBd, nullptr);  // 0.2 s
  const FlowId aborted = net.start_flow({p}, 1000 * kMBd, nullptr);
  sim.run_until(secs(1));
  EXPECT_TRUE(net.abort_flow(aborted));
  EXPECT_EQ(net.active_flows(), 0u);

  // Two new flows take over both freed slots; ids stay monotonic.
  const FlowId a = net.start_flow({p}, 100 * kMBd, nullptr);
  const FlowId b = net.start_flow({p}, 100 * kMBd, nullptr);
  EXPECT_GT(a.id, aborted.id);
  EXPECT_GT(b.id, a.id);
  for (const FlowId stale : {done, aborted}) {
    EXPECT_EQ(net.flow_rate(stale), 0.0);
    EXPECT_EQ(net.flow_bytes_done(stale), 0.0);
    EXPECT_FALSE(net.abort_flow(stale));
  }
  EXPECT_EQ(net.flow_rate(a), 50 * kMBd);
  EXPECT_EQ(net.flow_rate(b), 50 * kMBd);
  EXPECT_EQ(net.active_flows(), 2u);
  EXPECT_EQ(net.live_flow_ids(), (std::vector<FlowId>{a, b}));
}

TEST(FlowNetwork, RecycledSlotNeverFiresPreviousOccupantsPrediction) {
  Simulation sim;
  FlowNetwork net(sim);
  const PoolId p = net.add_pool("p", 100 * kMBd);
  const PoolId q = net.add_pool("q", 100 * kMBd);
  const PoolId z = net.add_pool("z", 0.0);
  // `old` is predicted to finish at 1 s; `other` keeps a live completion
  // at that same tick, so the completion event still fires there after
  // `old` is aborted.
  const FlowId old = net.start_flow({p}, 100 * kMBd, nullptr);
  int other_done = 0;
  net.start_flow({q}, 100 * kMBd, [&](const FlowStats&) { ++other_done; });
  sim.run_until(secs(0.5));
  ASSERT_TRUE(net.abort_flow(old));
  // The stalled newcomer takes over old's slot and is never predicted, so
  // only the slot generation tells old's queued entry apart from it.
  int fired = 0;
  FlowStats st;
  const FlowId fresh = net.start_flow({z}, 10 * kMBd, [&](const FlowStats& s) {
    ++fired;
    st = s;
  });
  sim.run_until(secs(2));
  EXPECT_EQ(other_done, 1);
  EXPECT_EQ(fired, 0);
  EXPECT_EQ(net.flow_bytes_done(fresh), 0.0);
  EXPECT_EQ(net.flow_rate(fresh), 0.0);
  net.set_pool_capacity(z, 100 * kMBd);
  sim.run();
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(st.started, secs(0.5));
  EXPECT_NEAR(to_seconds(st.finished), 2.1, 1e-6);
  EXPECT_EQ(net.active_flows(), 0u);
}

// ---------------------------------------------------------------------------
// Property sweep: max-min fairness invariants over random topologies.
// ---------------------------------------------------------------------------

class FlowNetworkProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FlowNetworkProperty, MaxMinInvariantsHold) {
  Rng rng(GetParam());
  Simulation sim;
  FlowNetwork net(sim);

  const int n_pools = static_cast<int>(rng.uniform_u64(1, 6));
  std::vector<PoolId> pools;
  for (int p = 0; p < n_pools; ++p) {
    pools.push_back(net.add_pool("p" + std::to_string(p), rng.uniform(10, 500) * kMBd));
  }
  const int n_flows = static_cast<int>(rng.uniform_u64(1, 12));
  struct F {
    FlowId id;
    std::vector<PoolId> path;
    double cap;
  };
  std::vector<F> flows;
  for (int i = 0; i < n_flows; ++i) {
    std::vector<PoolId> path;
    for (const PoolId p : pools) {
      if (rng.chance(0.5)) path.push_back(p);
    }
    if (path.empty()) path.push_back(pools[0]);
    const double cap =
        rng.chance(0.3) ? rng.uniform(5, 100) * kMBd : FlowNetwork::kUnlimited;
    const FlowId id = net.start_flow(
        std::vector<PathLeg>(path.begin(), path.end()), 1e15, nullptr, cap);
    flows.push_back(F{id, std::move(path), cap});
  }

  // Invariant 1: no pool is over-allocated.
  for (const PoolId p : pools) {
    EXPECT_LE(net.pool_allocated(p), net.pool_capacity(p) * (1 + 1e-9));
  }
  // Invariant 2: no flow exceeds its cap.
  for (const F& f : flows) {
    EXPECT_LE(net.flow_rate(f.id), f.cap * (1 + 1e-9));
  }
  // Invariant 3 (max-min): every flow is limited by either its cap or a
  // saturated pool on its path.
  for (const F& f : flows) {
    const double r = net.flow_rate(f.id);
    if (f.cap != FlowNetwork::kUnlimited && r >= f.cap * (1 - 1e-9)) continue;
    bool on_saturated_pool = false;
    for (const PoolId p : f.path) {
      if (net.pool_allocated(p) >= net.pool_capacity(p) * (1 - 1e-9)) {
        on_saturated_pool = true;
        break;
      }
    }
    EXPECT_TRUE(on_saturated_pool)
        << "flow neither cap-limited nor pool-limited (rate=" << r << ")";
  }
  // Invariant 4: work conservation per saturated pool is implied by 1+3;
  // additionally rates must be non-negative.
  for (const F& f : flows) EXPECT_GE(net.flow_rate(f.id), 0.0);
}

INSTANTIATE_TEST_SUITE_P(RandomTopologies, FlowNetworkProperty,
                         ::testing::Range<std::uint64_t>(1, 33));

}  // namespace
}  // namespace cpa::sim
