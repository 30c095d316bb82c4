// google-benchmark microbenchmarks of the simulation substrates: they
// document the simulator's own capacity (events/s, flow recompute cost,
// policy-scan and path-resolve cost, indexed lookups), not any paper
// result.
#include <benchmark/benchmark.h>

#include "metadb/tsm_export.hpp"
#include "pfs/filesystem.hpp"
#include "pfs/policy.hpp"
#include "pftool/core/queues.hpp"
#include "simcore/flow_network.hpp"
#include "simcore/rng.hpp"
#include "simcore/simulation.hpp"

namespace {

using namespace cpa;

void BM_EventQueueScheduleFire(benchmark::State& state) {
  for (auto _ : state) {
    sim::Simulation s;
    for (int i = 0; i < 1000; ++i) {
      s.after(sim::usecs(static_cast<double>(i % 97)), [] {});
    }
    benchmark::DoNotOptimize(s.run());
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_EventQueueScheduleFire);

void BM_EventCancel(benchmark::State& state) {
  for (auto _ : state) {
    sim::Simulation s;
    std::vector<sim::Simulation::EventId> ids;
    ids.reserve(1000);
    for (int i = 0; i < 1000; ++i) {
      ids.push_back(s.after(sim::secs(1), [] {}));
    }
    for (const auto id : ids) s.cancel(id);
    s.run();
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_EventCancel);

void BM_FlowNetworkRecompute(benchmark::State& state) {
  const auto flows = static_cast<int>(state.range(0));
  sim::Simulation s;
  sim::FlowNetwork net(s);
  std::vector<sim::PoolId> pools;
  for (int p = 0; p < 16; ++p) {
    pools.push_back(net.add_pool("p" + std::to_string(p), 1e9));
  }
  sim::Rng rng(1);
  for (int f = 0; f < flows; ++f) {
    std::vector<sim::PathLeg> path;
    for (const auto p : pools) {
      if (rng.chance(0.3)) path.emplace_back(p);
    }
    if (path.empty()) path.emplace_back(pools[0]);
    net.start_flow(std::move(path), 1e18, nullptr);
  }
  sim::PoolId probe = pools[0];
  for (auto _ : state) {
    // Each capacity change triggers a full max-min recompute.
    net.set_pool_capacity(probe, 1e9 + static_cast<double>(state.iterations()));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FlowNetworkRecompute)->Arg(16)->Arg(64)->Arg(256);

// A fig10-shaped archive namespace: /proj/u<50>/d<10>/f<100>, 50,000
// files aged an hour.  `resident_pct` percent of them (every n-th) stay
// resident; the rest are migrated stubs, as after an ILM cycle.
struct ScanTree {
  static constexpr int kUsers = 50, kDirs = 10, kFiles = 100;
  sim::Simulation sim;
  pfs::FileSystem fs;

  explicit ScanTree(int resident_pct)
      : fs(sim, pfs::FsConfig{"gpfs", 4ULL << 20,
                              {pfs::PoolConfig{"fast", 0, 4, false}},
                              1e6 / 600.0}) {
    int n = 0;
    for (int u = 0; u < kUsers; ++u) {
      for (int d = 0; d < kDirs; ++d) {
        const std::string dir =
            "/proj/u" + std::to_string(u) + "/d" + std::to_string(d);
        fs.mkdirs(dir);
        for (int f = 0; f < kFiles; ++f, ++n) {
          const std::string path = dir + "/f" + std::to_string(f);
          fs.create(path);
          fs.write_all(path, 1 << 20, static_cast<std::uint64_t>(n));
          if (n % 100 >= resident_pct) {
            fs.premigrate(path);
            fs.punch(path);
          }
        }
      }
    }
    sim.run_until(sim::secs(3600));
  }
  static std::string file(int i) {
    return "/proj/u" + std::to_string(i / (kDirs * kFiles) % kUsers) + "/d" +
           std::to_string(i / kFiles % kDirs) + "/f" + std::to_string(i % kFiles);
  }
};

// One ILM list-policy scan with fig10's rule (path glob written first,
// then residency and age), in host time per scanned inode.  Arg: percent of files
// still resident, i.e. whose path the scan has to build.
void BM_PolicyScan(benchmark::State& state) {
  const ScanTree tree(static_cast<int>(state.range(0)));
  pfs::PolicyEngine engine;
  pfs::Rule rule;
  rule.name = "ilm";
  rule.action = pfs::Rule::Action::List;
  rule.where = {pfs::Condition::path_glob("/proj/*"),
                pfs::Condition::dmapi_is(pfs::DmapiState::Resident),
                pfs::Condition::age_ge(1800)};
  engine.add_rule(rule);
  const auto inodes = static_cast<double>(tree.fs.total_inodes());
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.run_scan(tree.fs).inodes_scanned);
  }
  // An inverted rate: host time per scanned inode, printed as e.g. "50ns".
  state.counters["per_inode"] = benchmark::Counter(
      inodes,
      benchmark::Counter::kIsIterationInvariantRate | benchmark::Counter::kInvert);
}
BENCHMARK(BM_PolicyScan)->Arg(0)->Arg(10)->Arg(100)->Unit(benchmark::kMillisecond);

// Path resolution (exists() is resolve() and nothing else) of depth-4
// file paths in the same tree.
void BM_Resolve(benchmark::State& state) {
  const ScanTree tree(0);
  std::vector<std::string> paths;
  for (int i = 0; i < 1024; ++i) paths.push_back(ScanTree::file(i * 48 + 7));
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(tree.fs.exists(paths[i++ % paths.size()]));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_Resolve);

void BM_TsmExportIndexedLookup(benchmark::State& state) {
  metadb::TsmExportDb db;
  const auto rows = static_cast<std::uint64_t>(state.range(0));
  for (std::uint64_t i = 0; i < rows; ++i) {
    db.upsert(metadb::TapeObjectRow{i + 1, i + 1, "/a/f" + std::to_string(i),
                                    1024, i % 24, i / 24});
  }
  std::uint64_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(db.by_path("/a/f" + std::to_string(i++ % rows)));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TsmExportIndexedLookup)->Arg(1000)->Arg(100000);

void BM_TsmExportFullScanLookup(benchmark::State& state) {
  metadb::TsmExportDb db;
  const auto rows = static_cast<std::uint64_t>(state.range(0));
  for (std::uint64_t i = 0; i < rows; ++i) {
    db.upsert(metadb::TapeObjectRow{i + 1, i + 1, "/a/f" + std::to_string(i),
                                    1024, i % 24, i / 24});
  }
  std::uint64_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        db.by_path_unindexed("/a/f" + std::to_string(i++ % rows)));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TsmExportFullScanLookup)->Arg(1000);

// The allocation-free visitor vs the vector-materializing lookup on the
// tape index (24 rows per tape here) — the tape-ordered recall planner's
// hot path after the for_each_u64 migration.
void BM_TsmExportVisitOnTape(benchmark::State& state) {
  metadb::TsmExportDb db;
  const std::uint64_t rows = 100000;
  for (std::uint64_t i = 0; i < rows; ++i) {
    db.upsert(metadb::TapeObjectRow{i + 1, i + 1, "/a/f" + std::to_string(i),
                                    1024, i % 24, i / 24});
  }
  std::uint64_t i = 0;
  std::uint64_t sum = 0;
  for (auto _ : state) {
    if (state.range(0) == 0) {
      db.for_each_on_tape(i++ % 24,
                          [&](const metadb::TapeObjectRow& r) { sum += r.tape_seq; });
    } else {
      for (const auto* r : db.on_tape(i++ % 24)) sum += r->tape_seq;
    }
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(state.iterations());
  state.SetLabel(state.range(0) == 0 ? "visitor" : "materialize");
}
BENCHMARK(BM_TsmExportVisitOnTape)->Arg(0)->Arg(1);

void BM_TapeQueueOrdering(benchmark::State& state) {
  sim::Rng rng(5);
  for (auto _ : state) {
    pftool::TapeCopyQueues<int> q;
    for (int i = 0; i < 1000; ++i) {
      q.add(rng.uniform_u64(1, 8), rng.uniform_u64(1, 100000), i);
    }
    std::uint64_t cart = 0;
    std::vector<int> items;
    while (q.pop_cartridge(&cart, &items)) {
      benchmark::DoNotOptimize(items.size());
    }
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_TapeQueueOrdering);

}  // namespace

BENCHMARK_MAIN();
