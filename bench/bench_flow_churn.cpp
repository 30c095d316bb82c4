// Flow-churn microbenchmark: incremental dirty-component scheduling vs
// full from-scratch water-filling.
//
// The campaign workloads churn flows constantly (every file copy is a
// flow start + completion), but each mutation touches only the small
// connected component of pools its flow traverses.  This bench builds F
// flows spread over pool clusters with sparse overlap, then measures
// steady-state churn throughput (abort one flow + start a replacement)
// with the incremental scheduler and again with `set_full_recompute(true)`
// (the pre-incremental behaviour).  Every run cross-checks the
// incrementally maintained rates against `recompute_rates_reference()`
// bit-for-bit and exits non-zero on any divergence, so CI smoke runs double
// as a correctness gate.
//
// Output: a human table plus BENCH_flow_churn.json with one record per F.
//
// Flags: --smoke (fewer ops, skip F=5000), --seed=N, --json=PATH.
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench/common.hpp"
#include "simcore/flow_network.hpp"
#include "simcore/rng.hpp"

namespace {

using namespace cpa;
using sim::FlowId;
using sim::FlowNetwork;
using sim::PathLeg;
using sim::PoolId;

constexpr double kMBd = 1e6;
constexpr int kPoolsPerCluster = 4;

struct ChurnResult {
  std::size_t flows = 0;
  std::size_t pools = 0;
  std::size_t ops = 0;
  double ops_per_sec = 0.0;
};

struct Topology {
  sim::Simulation sim;
  FlowNetwork net;
  sim::Rng rng;
  std::size_t clusters;
  std::vector<PoolId> pools;
  std::vector<FlowId> live;     // index-aligned with `cluster_of`
  std::vector<std::size_t> cluster_of;

  Topology(std::size_t flows, std::uint64_t seed)
      : net(sim), rng(seed), clusters(std::max<std::size_t>(1, flows / 50)) {
    for (std::size_t c = 0; c < clusters; ++c) {
      for (int p = 0; p < kPoolsPerCluster; ++p) {
        pools.push_back(net.add_pool(
            "c" + std::to_string(c) + "p" + std::to_string(p),
            rng.uniform(50, 200) * kMBd));
      }
    }
    for (std::size_t i = 0; i < flows; ++i) {
      const std::size_t c = i % clusters;
      live.push_back(start_in_cluster(c));
      cluster_of.push_back(c);
    }
  }

  FlowId start_in_cluster(std::size_t c) {
    // Two legs inside the cluster: enough overlap that components are
    // real (cluster-sized), sparse enough that clusters stay disjoint.
    const auto leg = [&] {
      return pools[c * kPoolsPerCluster +
                   rng.uniform_u64(0, kPoolsPerCluster - 1)];
    };
    // Big enough that nothing completes during the measured loop.
    return net.start_flow({PathLeg(leg()), PathLeg(leg())},
                          1e12 * rng.uniform(1.0, 2.0), nullptr);
  }

  /// One churn op: abort a random flow, start a replacement in the same
  /// cluster (two rate recomputes).
  void churn() {
    const std::size_t i =
        static_cast<std::size_t>(rng.uniform_u64(0, live.size() - 1));
    net.abort_flow(live[i]);
    live[i] = start_in_cluster(cluster_of[i]);
  }

  /// Bit-exact incremental-vs-reference comparison.
  [[nodiscard]] bool rates_match_reference() const {
    const auto reference = net.recompute_rates_reference();
    const auto ids = net.live_flow_ids();
    if (reference.size() != ids.size()) return false;
    for (std::size_t i = 0; i < ids.size(); ++i) {
      if (reference[i].first != ids[i].id) return false;
      if (net.flow_rate(ids[i]) != reference[i].second) return false;
    }
    return true;
  }
};

/// Runs `ops` churn operations and returns throughput; `check_every > 0`
/// cross-checks rates against the reference during the loop (outside the
/// timed region cost is negligible vs the solve itself, so we keep it in —
/// both modes pay it equally).
ChurnResult run_mode(std::size_t flows, std::uint64_t seed, std::size_t ops,
                     bool full_recompute, bool* diverged) {
  Topology topo(flows, seed);
  topo.net.set_full_recompute(full_recompute);
  const std::size_t check_every = std::max<std::size_t>(1, ops / 8);
  const auto t0 = std::chrono::steady_clock::now();
  for (std::size_t op = 0; op < ops; ++op) {
    topo.churn();
    if (op % check_every == 0 && !topo.rates_match_reference()) {
      *diverged = true;
    }
  }
  const auto t1 = std::chrono::steady_clock::now();
  if (!topo.rates_match_reference()) *diverged = true;
  const double dt = std::chrono::duration<double>(t1 - t0).count();
  ChurnResult r;
  r.flows = flows;
  r.pools = topo.pools.size();
  r.ops = ops;
  r.ops_per_sec = dt > 0.0 ? static_cast<double>(ops) / dt : 0.0;
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--smoke") smoke = true;
  }
  const bench::ObsCli cli = bench::parse_obs_cli(argc, argv);
  const std::uint64_t seed = cli.seed_set ? cli.seed : 42;

  bench::header("bench_flow_churn",
                "incremental dirty-component scheduling vs full recompute");
  std::printf("  %6s %6s | %12s %12s | %12s %12s | %8s\n", "flows", "pools",
              "inc ops", "inc ops/s", "full ops", "full ops/s", "speedup");

  std::vector<std::size_t> sizes = {10, 100, 1000};
  if (!smoke) sizes.push_back(5000);

  bool diverged = false;
  double speedup_at_1000 = 0.0;
  // The absolute ops/s depend on the machine and stay in the printed
  // table; their ratio is gated only against a collapse (for example the
  // incremental scheduler silently reverting to full recompute).
  bench::JsonTable table("flow_churn", "flows",
                         {{"pools", bench::Clock::Virtual, "%.0f"},
                          {"speedup", bench::Clock::Host, "%.2f"}});
  for (const std::size_t flows : sizes) {
    // The full mode is O(F^2) per op; scale its op count down so the
    // largest points stay sub-minute while the rate estimate stays sound.
    const std::size_t inc_ops = smoke ? 2000 : 20000;
    const std::size_t full_ops =
        std::max<std::size_t>(smoke ? 20 : 50, (smoke ? 20000 : 200000) / flows);
    const ChurnResult inc = run_mode(flows, seed, inc_ops, false, &diverged);
    const ChurnResult full = run_mode(flows, seed, full_ops, true, &diverged);
    const double speedup =
        full.ops_per_sec > 0.0 ? inc.ops_per_sec / full.ops_per_sec : 0.0;
    if (flows == 1000) speedup_at_1000 = speedup;
    std::printf("  %6zu %6zu | %12zu %12.0f | %12zu %12.0f | %7.1fx\n",
                inc.flows, inc.pools, inc.ops, inc.ops_per_sec, full.ops,
                full.ops_per_sec, speedup);
    table.row(std::to_string(flows),
              {{"pools", inc.pools}, {"speedup", speedup}});
  }
  if (!table.write(argc, argv)) return 1;

  bench::section("summary");
  bench::compare("churn speedup at F=1000, sparse overlap", ">= 5x",
                 bench::fmt("%.1fx", speedup_at_1000));
  if (diverged) {
    std::fprintf(stderr,
                 "bench_flow_churn: FAIL — incremental rates diverged from "
                 "recompute_rates_reference()\n");
    return 1;
  }
  std::printf("  incremental rates matched the reference exactly at every "
              "checkpoint\n");
  return 0;
}
