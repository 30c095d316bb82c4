// Crash-recovery benchmark and loss gate: WAL replay time vs log length
// and checkpoint interval.
//
// The paper's archive survives host power loss because TSM's database and
// PFTool's restart journals are logged to stable storage; what it pays
// for that is the recovery scan after the crash.  This bench measures the
// simulated equivalent: a metadata plant (object catalog + fixity table +
// restart journal) redo-logged through the WAL, driven through M
// mutations with periodic group-commit barriers, then power-failed and
// recovered.
//
// Two series over the same mutation counts:
//   no checkpoint    the log holds every record since boot; replay time
//                    grows linearly with M,
//   64 KB checkpoint auto-checkpoints bound the log, so recovery time
//                    stays flat no matter how long the plant ran.
// The crossover is the whole argument for checkpointing: the flat series
// costs snapshot installs during normal operation and wins them back at
// recovery time.
//
// Correctness gate (exit non-zero): every durably-acked object must be
// present after recovery, with its fixity row, in every scenario.
//
// Output: a human table plus BENCH_recovery.json, one record per
// (mutations, checkpoint) cell.  Flags: --smoke, --seed=N, --json=PATH.
#include <cinttypes>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/common.hpp"
#include "hsm/server.hpp"
#include "integrity/fixity.hpp"
#include "obs/observer.hpp"
#include "pftool/core/restart_journal.hpp"
#include "simcore/units.hpp"
#include "wal/durable.hpp"

namespace {

using namespace cpa;

struct CellResult {
  std::string name;
  std::uint64_t mutations = 0;
  std::uint64_t checkpoint_bytes_cfg = 0;
  std::uint64_t replayed = 0;
  std::uint64_t log_bytes = 0;
  std::uint64_t checkpoint_bytes = 0;
  double recovery_ms = 0;
};

/// Drives `mutations` catalog+fixity+journal updates through a Durable
/// (sync barrier every 8 mutations, like acknowledgement points), then
/// power-fails and recovers.  Returns the recovery stats; appends to
/// `failures` if any durably-acked object or fixity row is missing.
CellResult run_cell(std::uint64_t mutations, std::uint64_t checkpoint_bytes,
                    std::uint64_t seed, std::vector<std::string>* failures) {
  sim::Simulation sim;
  sim::FlowNetwork net(sim);
  obs::Observer obs;
  hsm::ArchiveServer server(sim, net, "tsm0", hsm::ServerConfig{});
  integrity::FixityDb fixity;
  pftool::RestartJournal journal;
  wal::WalConfig cfg;
  cfg.checkpoint_bytes = checkpoint_bytes;
  wal::Durable durable(sim, cfg, obs);
  durable.attach_server(0, server);
  durable.attach_fixity(fixity);
  durable.attach_journal(journal);

  std::vector<std::uint64_t> acked;
  for (std::uint64_t i = 0; i < mutations; ++i) {
    hsm::ArchiveObject o;
    o.object_id = server.allocate_object_id();
    o.gpfs_file_id = o.object_id;
    o.size_bytes = 16 * kMB;
    o.content_tag = seed + i;
    o.cartridge_id = 1 + i % 4;
    o.tape_seq = i;
    o.path = "/arch/d" + std::to_string(i % 16) + "/f" + std::to_string(i);
    const std::uint64_t id = o.object_id;
    server.record_object(std::move(o));
    fixity.add(id, 1 + i % 4, i, 16 * kMB, seed * 1000003 + i, 0);
    if (i % 4 == 0) {
      journal.begin(std::string("/arch/j") + std::to_string(i), 16 * kMB, 4);
      journal.mark_good("/arch/j" + std::to_string(i), i % 4);
    }
    if (i % 8 == 7) {
      durable.sync([&acked, id] { acked.push_back(id); });
      sim.run();
    }
  }
  durable.sync([&acked, &server] { acked.push_back(server.next_object_id()); });
  sim.run();
  acked.pop_back();  // the final barrier's marker, not an object id

  // Whole-host power failure, then recovery from checkpoint + log.
  server.power_fail();
  fixity.clear();
  journal.clear();
  durable.crash(seed);
  const wal::Durable::RecoveryStats st = durable.recover();

  CellResult r;
  r.mutations = mutations;
  r.checkpoint_bytes_cfg = checkpoint_bytes;
  r.replayed = st.replayed_records;
  r.log_bytes = st.log_bytes;
  r.checkpoint_bytes = st.checkpoint_bytes;
  r.recovery_ms = sim::to_seconds(st.duration) * 1e3;
  r.name = "m" + std::to_string(mutations) +
           (checkpoint_bytes == 0 ? "_nockpt" : "_ckpt64k");

  std::uint64_t lost = 0;
  for (const std::uint64_t id : acked) {
    if (server.object(id) == nullptr || fixity.by_object(id).empty()) {
      std::fprintf(stderr, "bench_recovery: %s lost id=%" PRIu64
                           " object=%d fixity=%zu\n",
                   r.name.c_str(), id,
                   server.object(id) != nullptr,
                   fixity.by_object(id).size());
      ++lost;
    }
  }
  if (lost > 0) {
    failures->push_back(r.name + ": " + std::to_string(lost) +
                        " durably-acked object(s) missing after recovery");
  }
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--smoke") smoke = true;
  }
  const bench::ObsCli cli = bench::parse_obs_cli(argc, argv);
  const std::uint64_t seed = cli.seed_set ? cli.seed : 7;

  bench::header("bench_recovery",
                "WAL crash recovery: replay time vs log length & checkpoints");

  const std::vector<std::uint64_t> sizes =
      smoke ? std::vector<std::uint64_t>{200, 800}
            : std::vector<std::uint64_t>{500, 2000, 8000};
  constexpr std::uint64_t kCkpt = 64 * 1024;

  std::vector<std::string> failures;
  std::vector<CellResult> cells;
  for (const std::uint64_t m : sizes) {
    cells.push_back(run_cell(m, 0, seed, &failures));
    cells.push_back(run_cell(m, kCkpt, seed, &failures));
  }

  std::printf("  scenario      | mutations | replayed | log bytes | ckpt bytes | recovery ms\n");
  std::printf("  --------------+-----------+----------+-----------+------------+------------\n");
  for (const CellResult& c : cells) {
    std::printf("  %-13s | %9" PRIu64 " | %8" PRIu64 " | %9" PRIu64
                " | %10" PRIu64 " | %11.2f\n",
                c.name.c_str(), c.mutations, c.replayed, c.log_bytes,
                c.checkpoint_bytes, c.recovery_ms);
  }

  // The headline: without checkpoints recovery grows with history; with
  // them it stays bounded.  Gate on the largest cell pair.
  const CellResult& big_plain = cells[cells.size() - 2];
  const CellResult& big_ckpt = cells[cells.size() - 1];
  if (big_ckpt.recovery_ms >= big_plain.recovery_ms) {
    failures.push_back("checkpointed recovery not faster than full replay (" +
                       bench::fmt("%.2f", big_ckpt.recovery_ms) + " ms vs " +
                       bench::fmt("%.2f", big_plain.recovery_ms) + " ms)");
  }

  // Replay counts, on-disk sizes (they pin the record codec, so any byte
  // drift in the format shows) and the virtual recovery time.
  bench::JsonTable table("recovery", "scenario",
                         {{"mutations", bench::Clock::Virtual, "%.0f"},
                          {"replayed", bench::Clock::Virtual, "%.0f"},
                          {"log_bytes", bench::Clock::Virtual, "%.0f"},
                          {"checkpoint_bytes", bench::Clock::Virtual, "%.0f"},
                          {"recovery_ms", bench::Clock::Virtual, "%.3f"}});
  for (const CellResult& c : cells) {
    table.row(c.name, {{"mutations", c.mutations},
                       {"replayed", c.replayed},
                       {"log_bytes", c.log_bytes},
                       {"checkpoint_bytes", c.checkpoint_bytes},
                       {"recovery_ms", c.recovery_ms}});
  }
  if (!table.write(argc, argv)) return 1;

  bench::section("paper vs measured");
  bench::compare("checkpointed recovery bound", "flat in history length",
                 bench::fmt("%.2f ms", big_ckpt.recovery_ms));
  bench::compare(
      "full-replay recovery at max history", "linear in history",
      bench::fmt("%.2f ms", big_plain.recovery_ms));
  bench::compare("durably-acked survival", "100%",
                 failures.empty() ? "100%" : "INCOMPLETE");

  if (!failures.empty()) {
    for (const std::string& f : failures) {
      std::fprintf(stderr, "bench_recovery: FAIL — %s\n", f.c_str());
    }
    return 1;
  }
  std::printf("  every durably-acked mutation survived the crash in every "
              "cell\n");
  return 0;
}
