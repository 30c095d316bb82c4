// Sec 6.4 "Single TSM Server", and metadata batching as its fix.
//
//   "Having a single TSM server creates a single point of a failure ...
//    It also creates a limitation when we need to scale beyond what a
//    single TSM server can provide.  ...  By leveraging the remote file
//    system feature of GPFS, it might be possible to tether multiple
//    archive file systems together thus allowing for multiple TSM
//    servers."
//
// The wall is metadata, not data: every migrate/recall/delete pays a
// server round-trip per mutation, serialized FIFO on one TSM server.
// Every mutation goes through a TxnSession.  At B=1 (the default; the
// `*_plain_s` columns) each is its own round-trip at one full
// metadata_txn_cost; at B=16 (the `*_batched_s` columns) up to 16
// mutations share one amortized round-trip (batch_base + per_op * n).
// Either way a window of W=4 round-trips may be in flight.  Two
// measurements against 1..8 hash-routed servers:
//   (a) a bookkeeping txn storm — the pure-metadata worst case;
//   (b) a synchronous-delete sweep — two dependent round-trips per file
//       through the real HSM delete path.
// The plain columns over the server count are the paper's single-server
// limit and its tethering fix; the speedup columns are batching's gain.
//
// Correctness gates (exit non-zero): the one-server B=1 storm must take
// exactly txns * metadata_txn_cost (a singleton costs what a
// stop-and-wait round-trip cost), and the one-server storm must speed up
// by >=5x batched-over-singleton — the acceptance bar; the cost model
// alone provides ~6.4x at B=16.
//
// Output: a human table plus BENCH_md_batch.json, one record per server
// count.  Flags: --smoke, --json=PATH.
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "archive/system.hpp"
#include "bench/common.hpp"
#include "hsm/txn_batch.hpp"
#include "workload/tree.hpp"

namespace {

using namespace cpa;

constexpr sim::Tick kTxnCost = sim::msecs(20);  // loaded TSM server
constexpr unsigned kBatch = 16;
constexpr unsigned kWindow = 4;

archive::SystemConfig plant(unsigned servers, bool batched) {
  archive::SystemConfig cfg = archive::SystemConfig::roadrunner();
  cfg.hsm.server_count = servers;
  cfg.hsm.server.metadata_txn_cost = kTxnCost;
  cfg.hsm.server.md_batch_size = batched ? kBatch : 1;
  cfg.hsm.server.md_window = kWindow;
  return cfg;
}

/// The bookkeeping storm: `txns` object-DB mutations spread over the
/// servers' sessions.  Returns the virtual time until the last applied.
sim::Tick txn_storm(unsigned servers, unsigned txns, bool batched) {
  archive::CotsParallelArchive sys(plant(servers, batched));
  for (unsigned i = 0; i < txns; ++i) {
    const std::string path = "/proj/f" + std::to_string(i);
    sys.hsm().session_for(sys.hsm().server_for(path)).submit([] {});
  }
  for (unsigned i = 0; i < servers; ++i) {
    sys.hsm().session_for(sys.hsm().server(i)).flush();
  }
  sys.sim().run();
  return sys.sim().now();
}

/// Synchronous-delete sweep through the full HSM path (lookup join +
/// cascade delete per file).
double sync_delete_seconds(unsigned servers, unsigned files, bool batched) {
  archive::CotsParallelArchive sys(plant(servers, batched));
  workload::TreeSpec tree;
  tree.root = "/proj/data";
  for (unsigned i = 0; i < files; ++i) tree.file_sizes.push_back(kMB);
  workload::build_tree(sys.archive_fs(), tree);
  std::vector<std::string> paths;
  for (unsigned i = 0; i < files; ++i) {
    paths.push_back(workload::tree_file_path(tree, i));
  }
  sys.hsm().parallel_migrate(paths, {0, 1, 2, 3, 4, 5, 6, 7, 8, 9},
                             hsm::DistributionStrategy::SizeBalanced, "g",
                             nullptr);
  sys.sim().run();

  const sim::Tick t0 = sys.sim().now();
  for (const auto& p : paths) {
    sys.hsm().synchronous_delete(p, nullptr);
  }
  sys.sim().run();
  return sim::to_seconds(sys.sim().now() - t0);
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--smoke") smoke = true;
  }
  const unsigned kTxns = smoke ? 4'000 : 20'000;
  const unsigned kFiles = smoke ? 500 : 2'000;

  bench::header("Sec 6.4 + batching",
                "Single archive server as the metadata bottleneck; "
                "group-committed metadata as its fix");
  std::printf(
      "\n  B=%u W=%u, txn cost %.0f ms; storm = %u txns, delete = %u files\n",
      kBatch, kWindow, sim::to_seconds(kTxnCost) * 1e3, kTxns, kFiles);
  std::printf(
      "\n  servers | storm B=1 (s) | storm batched (s) | speedup |"
      " delete B=1 (s) | delete batched (s) | speedup\n"
      "  --------+---------------+-------------------+---------+"
      "----------------+--------------------+--------\n");

  // Every column is a server count or a virtual time or ratio of them.
  bench::JsonTable table("md_batch", "case",
                         {{"servers", bench::Clock::Virtual, "%.0f"},
                          {"storm_plain_s", bench::Clock::Virtual, "%.3f"},
                          {"storm_batched_s", bench::Clock::Virtual, "%.3f"},
                          {"storm_speedup", bench::Clock::Virtual, "%.3f"},
                          {"delete_plain_s", bench::Clock::Virtual, "%.3f"},
                          {"delete_batched_s", bench::Clock::Virtual, "%.3f"},
                          {"delete_speedup", bench::Clock::Virtual, "%.3f"}});
  double storm_speedup1 = 0;
  sim::Tick storm_plain1 = 0;
  double storm_plain8 = 0;
  double del_plain1 = 0;
  double del_plain8 = 0;
  for (const unsigned servers : {1u, 2u, 4u, 8u}) {
    const sim::Tick storm_plain_ticks = txn_storm(servers, kTxns, false);
    const double storm_plain = sim::to_seconds(storm_plain_ticks);
    const double storm_batch = sim::to_seconds(txn_storm(servers, kTxns, true));
    const double del_plain = sync_delete_seconds(servers, kFiles, false);
    const double del_batch = sync_delete_seconds(servers, kFiles, true);
    const double storm_speedup = storm_plain / storm_batch;
    const double del_speedup = del_plain / del_batch;
    if (servers == 1) {
      storm_speedup1 = storm_speedup;
      storm_plain1 = storm_plain_ticks;
      del_plain1 = del_plain;
    }
    if (servers == 8) {
      storm_plain8 = storm_plain;
      del_plain8 = del_plain;
    }
    std::printf(
        "  %7u | %13.1f | %17.1f | %6.1fx | %14.1f | %18.1f | %5.1fx\n",
        servers, storm_plain, storm_batch, storm_speedup, del_plain,
        del_batch, del_speedup);
    table.row("s" + std::to_string(servers),
              {{"servers", servers},
               {"storm_plain_s", storm_plain},
               {"storm_batched_s", storm_batch},
               {"storm_speedup", storm_speedup},
               {"delete_plain_s", del_plain},
               {"delete_batched_s", del_batch},
               {"delete_speedup", del_speedup}});
  }
  if (!table.write(argc, argv)) return 1;

  const double storm1_s = sim::to_seconds(storm_plain1);
  bench::section("paper vs measured");
  bench::compare("single-server txn throughput", "the scale limitation",
                 bench::fmt("%.0f txn/s", static_cast<double>(kTxns) / storm1_s));
  bench::compare("8 tethered servers (txn storm)", "scales with servers",
                 bench::fmt("%.1fx faster", storm1_s / storm_plain8));
  bench::compare("8 tethered servers (delete sweep)", "scales with servers",
                 bench::fmt("%.1fx faster", del_plain1 / del_plain8));
  bench::compare("single-server storm, batched",
                 "amortized group commit",
                 bench::fmt("%.1fx faster than B=1", storm_speedup1));

  // B=1 is the singleton configuration of the one metadata path: it must
  // cost exactly what one stop-and-wait round-trip per mutation cost.
  const sim::Tick stop_and_wait = static_cast<sim::Tick>(kTxns) * kTxnCost;
  if (storm_plain1 != stop_and_wait) {
    std::fprintf(stderr,
                 "FAIL: one-server B=1 storm took %.6f s, expected exactly "
                 "%u x %.0f ms = %.6f s\n",
                 storm1_s, kTxns, sim::to_seconds(kTxnCost) * 1e3,
                 sim::to_seconds(stop_and_wait));
    return 1;
  }
  if (storm_speedup1 < 5.0) {
    std::fprintf(stderr,
                 "FAIL: one-server storm speedup %.2fx < 5x acceptance bar\n",
                 storm_speedup1);
    return 1;
  }
  return 0;
}
