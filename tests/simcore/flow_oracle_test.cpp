// Differential oracle for the incremental flow scheduler.
//
// A randomized churn driver mutates a FlowNetwork (start / abort /
// capacity change / time advance with completions) and after EVERY
// mutation asserts that the incrementally maintained rates are *exactly*
// (bit-for-bit) the rates a full from-scratch water-filling produces —
// recompute_rates_reference() and the dirty-component path share one
// canonically-ordered solver, so any divergence is a real bookkeeping bug
// (stale membership index, missed dirty component, wrong epoch sync), not
// floating-point noise.  Conservation invariants are checked alongside:
// no pool over capacity, no flow over its cap, and max-min work
// conservation (every flow is cap-limited or crosses a saturated pool).
//
// Scale: kSeeds seeds x kMutations mutations > 100k randomized mutations
// per run (CPA_ORACLE_MUTATIONS overrides the per-seed count; ci.sh runs
// this under ASan+UBSan).
#include "simcore/flow_network.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <map>
#include <vector>

#include "simcore/rng.hpp"

namespace cpa::sim {
namespace {

constexpr double kMBd = 1e6;
constexpr int kSeeds = 24;

int mutations_per_seed() {
  if (const char* env = std::getenv("CPA_ORACLE_MUTATIONS")) {
    const int n = std::atoi(env);
    if (n > 0) return n;
  }
  return 4500;
}

struct LiveFlow {
  FlowId id;
  double cap;
  std::vector<PathLeg> path;
};

/// Mutation mix of one churn run: cumulative dice thresholds for start,
/// abort and capacity change (the rest advances time), and the largest
/// flow size.
struct ChurnMix {
  double start = 0.45;
  double abort = 0.65;
  double capacity = 0.80;
  double max_mb = 5000;
};

/// Drives `steps` random mutations and checks the incremental rates
/// against the reference after each.  Returns the peak number of live
/// flows; `*started` receives the number of flows started.
std::size_t run_churn(std::uint64_t seed, const ChurnMix& mix, int steps,
                      std::size_t* started);

class FlowOracle : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FlowOracle, IncrementalRatesMatchReferenceExactly) {
  std::size_t started = 0;
  run_churn(GetParam(), ChurnMix{}, mutations_per_seed(), &started);
}

// Short flows, frequent aborts and time advances: the flow slots are
// recycled thousands of times over, and every rate must still match.
TEST(FlowOracleRecycling, SlotRecyclingHeavyChurnMatchesReferenceExactly) {
  std::size_t started = 0;
  const ChurnMix mix{0.50, 0.70, 0.75, 50};
  const std::size_t peak = run_churn(77, mix, mutations_per_seed(), &started);
  EXPECT_GT(started, 20 * peak);  // slots <= peak live flows
}

std::size_t run_churn(std::uint64_t seed, const ChurnMix& mix, int steps,
                      std::size_t* started) {
  std::size_t peak = 0;
  Rng rng(seed * 0x9E3779B97F4A7C15ULL + 1);
  Simulation sim;
  FlowNetwork net(sim);

  // Sparse overlap: several pool "clusters" that flows mostly stay inside,
  // so the network usually splits into multiple connected components and
  // the dirty-set logic (component discovery, merge on start, split on
  // abort/finish) is genuinely exercised.
  const int n_clusters = static_cast<int>(rng.uniform_u64(2, 4));
  const int pools_per_cluster = static_cast<int>(rng.uniform_u64(2, 4));
  std::vector<PoolId> pools;
  std::vector<double> base_capacity;
  for (int c = 0; c < n_clusters; ++c) {
    for (int p = 0; p < pools_per_cluster; ++p) {
      const double cap = rng.uniform(10, 500) * kMBd;
      pools.push_back(net.add_pool(
          "c" + std::to_string(c) + "p" + std::to_string(p), cap));
      base_capacity.push_back(cap);
    }
  }
  std::map<std::uint64_t, LiveFlow> live;  // flows we may still abort

  const auto check = [&](int step) {
    const auto reference = net.recompute_rates_reference();
    const std::vector<FlowId> ids = net.live_flow_ids();
    ASSERT_EQ(reference.size(), ids.size()) << "seed " << seed
                                            << " step " << step;
    for (std::size_t i = 0; i < ids.size(); ++i) {
      ASSERT_EQ(reference[i].first, ids[i].id);
      const double incremental = net.flow_rate(ids[i]);
      // Exact: both paths must run the identical FP operation sequence.
      ASSERT_EQ(incremental, reference[i].second)
          << "rate divergence: seed " << seed << " step " << step
          << " flow " << ids[i].id;
    }
    // Conservation invariants (tolerances only absorb benign last-ulp
    // residue in the *sums*, not incremental-vs-reference drift).
    for (std::size_t p = 0; p < pools.size(); ++p) {
      ASSERT_LE(net.pool_allocated(pools[p]),
                net.pool_capacity(pools[p]) * (1 + 1e-9) + 1e-9)
          << "pool over capacity: seed " << seed << " step " << step;
    }
    for (const auto& [id, lf] : live) {
      const double r = net.flow_rate(lf.id);
      ASSERT_GE(r, 0.0);
      ASSERT_LE(r, lf.cap * (1 + 1e-9))
          << "flow over cap: seed " << seed << " step " << step;
      // Work conservation: a flow below its cap must cross a saturated
      // pool (otherwise max-min fairness would raise its rate).  A flow
      // stalled by a zero-capacity pool satisfies this via that pool
      // (allocated 0 >= capacity 0).
      if (lf.cap != FlowNetwork::kUnlimited && r >= lf.cap * (1 - 1e-9)) {
        continue;  // cap-limited, not pool-limited
      }
      bool saturated_leg = false;
      for (const PathLeg& leg : lf.path) {
        if (net.pool_allocated(leg.pool) >=
            net.pool_capacity(leg.pool) * (1 - 1e-9)) {
          saturated_leg = true;
          break;
        }
      }
      ASSERT_TRUE(saturated_leg)
          << "flow " << id << " below cap with no saturated pool: seed "
          << seed << " step " << step;
    }
  };

  for (int step = 0; step < steps; ++step) {
    const double dice = rng.uniform();
    if (dice < mix.start || live.empty()) {
      // Start a flow: 1-3 legs, usually inside one cluster, sometimes
      // bridging two (which must merge their components).
      const int cluster = static_cast<int>(rng.uniform_u64(
          0, static_cast<std::uint64_t>(n_clusters - 1)));
      std::vector<PathLeg> path;
      const int legs = static_cast<int>(rng.uniform_u64(1, 3));
      for (int l = 0; l < legs; ++l) {
        int c = cluster;
        if (rng.chance(0.12)) {  // bridge
          c = static_cast<int>(
              rng.uniform_u64(0, static_cast<std::uint64_t>(n_clusters - 1)));
        }
        const int p = static_cast<int>(rng.uniform_u64(
            0, static_cast<std::uint64_t>(pools_per_cluster - 1)));
        const double weight = rng.chance(0.3) ? rng.uniform(0.25, 1.0) : 1.0;
        path.emplace_back(pools[static_cast<std::size_t>(
                              c * pools_per_cluster + p)],
                          weight);
      }
      const double cap =
          rng.chance(0.3) ? rng.uniform(5, 100) * kMBd : FlowNetwork::kUnlimited;
      const double bytes = rng.chance(0.02)
                               ? 0.0  // degenerate zero-byte flow
                               : rng.uniform(1, mix.max_mb) * kMBd;
      const FlowId id = net.start_flow(path, bytes, nullptr, cap);
      ++*started;
      if (bytes > 0.0) live.emplace(id.id, LiveFlow{id, cap, std::move(path)});
    } else if (dice < mix.abort) {
      // Abort a random live flow (may already have completed: then
      // abort_flow returns false and we just forget it).
      auto it = live.begin();
      std::advance(it, static_cast<long>(
                           rng.uniform_u64(0, live.size() - 1)));
      net.abort_flow(it->second.id);
      live.erase(it);
    } else if (dice < mix.capacity) {
      // Capacity churn, including full stalls and restores.
      const std::size_t p = static_cast<std::size_t>(
          rng.uniform_u64(0, pools.size() - 1));
      double cap;
      if (rng.chance(0.15)) {
        cap = 0.0;  // stall the component
      } else if (rng.chance(0.3)) {
        cap = base_capacity[p];  // restore
      } else {
        cap = rng.uniform(10, 500) * kMBd;
      }
      net.set_pool_capacity(pools[p], cap);
    } else {
      // Advance virtual time; completions fire and resolve components.
      sim.run_until(sim.now() + secs(rng.uniform(0.05, 20.0)));
      // Drop handles of flows that completed meanwhile (merge-scan the
      // sorted live-id list against our sorted handle map).
      std::vector<std::uint64_t> gone;
      {
        const auto ids = net.live_flow_ids();
        std::size_t j = 0;
        for (const auto& [id, lf] : live) {
          while (j < ids.size() && ids[j].id < id) ++j;
          if (j >= ids.size() || ids[j].id != id) gone.push_back(id);
        }
      }
      for (const std::uint64_t id : gone) live.erase(id);
    }
    peak = std::max(peak, net.active_flows());
    EXPECT_NO_FATAL_FAILURE(check(step));
    if (::testing::Test::HasFatalFailure()) return peak;
  }
  // Drain: let everything finish; the network must end empty with the
  // reference agreeing on the (empty) rate vector.
  for (const auto& [id, lf] : live) net.abort_flow(lf.id);
  live.clear();
  sim.run();
  EXPECT_NO_FATAL_FAILURE(check(steps));
  EXPECT_EQ(net.active_flows(), 0u);
  EXPECT_TRUE(net.recompute_rates_reference().empty());
  return peak;
}

INSTANTIATE_TEST_SUITE_P(RandomChurn, FlowOracle,
                         ::testing::Range<std::uint64_t>(1, kSeeds + 1));

}  // namespace
}  // namespace cpa::sim
