// Scrubber benchmark and correctness gate: tape-ordered vs naive scan
// order, plus the full repair lattice under injected silent corruption.
//
// Three integrity scenarios exercise every rung of the repair lattice
// (Sec 4.1's copy pools are the safety net; the scrubber is the process
// that cashes them in):
//   copy_pool    duplicate volumes clean -> every bad segment rewritten
//                from the copy pool,
//   premigrated  no duplicates but disk data still premigrated -> every
//                bad segment re-migrated from the filesystem,
//   no_source    stubs only, no duplicates -> unrepairable, reported
//                exactly once (a re-scrub stays silent).
// Each scenario injects a known number of corruptions and the binary
// exits non-zero if any injected corruption goes undetected or the
// repair counts disagree -- CI smoke runs double as a correctness gate.
//
// The scan-order scenario measures why the scrubber walks fixity rows in
// (cartridge, tape_seq) order: files archived round-robin over several
// colocation groups interleave volumes in the fixity table, so the
// archive-order (row id) baseline pays a robot exchange on nearly every
// row while the tape-ordered walk pays one mount per volume (the
// Sec 4.2.5 tape-order lesson applied to scrubbing).
//
// Output: a human table plus BENCH_scrub.json, one record per scenario.
// Flags: --smoke (smaller population), --seed=N, --json=PATH.
#include <cinttypes>
#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "bench/common.hpp"
#include "hsm/hsm.hpp"
#include "simcore/units.hpp"

namespace {

using namespace cpa;

constexpr std::uint64_t kFileBytes = 64 * kMB;

pfs::FsConfig fs_config() {
  pfs::FsConfig cfg;
  cfg.pools = {pfs::PoolConfig{"fast", 0, 4, false}};
  return cfg;
}

tape::LibraryConfig lib_config() {
  tape::LibraryConfig cfg;
  cfg.drive_count = 4;
  return cfg;
}

hsm::HsmConfig hsm_config(unsigned copies, bool punch) {
  hsm::HsmConfig cfg;
  cfg.tape_copies = copies;
  cfg.punch_after_migrate = punch;
  return cfg;
}

/// One self-contained archive plant with `files` regular files migrated
/// to colocation group "g" (plus copy pools when copies > 1).
struct Plant {
  sim::Simulation sim;
  sim::FlowNetwork net{sim};
  pfs::FileSystem fs;
  tape::TapeLibrary lib;
  hsm::HsmSystem hsm;
  std::vector<std::string> paths;

  /// `groups` > 1 archives file i to colocation group "g<i % groups>" one
  /// file at a time, so consecutive fixity rows land on different volumes
  /// (the ingest pattern that makes archive-order scrubbing pathological).
  Plant(unsigned copies, bool punch, unsigned files, unsigned groups = 1)
      : fs(sim, fs_config()),
        lib(sim, net, lib_config()),
        hsm(sim, net, fs, lib, hsm::Fabric::unconstrained(),
            hsm_config(copies, punch)) {
    for (unsigned i = 0; i < files; ++i) {
      const std::string p = "/arch/f" + std::to_string(i);
      fs.mkdirs(pfs::parent_path(p));
      fs.create(p);
      fs.write_all(p, kFileBytes, 0x9000 + i);
      paths.push_back(p);
    }
    if (groups <= 1) {
      hsm.migrate_batch(0, paths, "g", nullptr);
      sim.run();
    } else {
      for (unsigned i = 0; i < files; ++i) {
        hsm.migrate_batch(0, {paths[i]}, "g" + std::to_string(i % groups),
                          nullptr);
        sim.run();
      }
    }
  }

  /// Flips exactly `count` live segments into silent corruption, spread
  /// over the cartridges selected by `primaries_only` (true skips the
  /// "~copyN" duplicate volumes so the copy pool stays clean).
  std::uint64_t inject(std::uint64_t count, std::uint64_t seed,
                       bool primaries_only) {
    std::uint64_t injected = 0;
    lib.for_each_cartridge([&](tape::Cartridge& c) {
      if (injected >= count) return;
      if (primaries_only &&
          c.colocation_group().find("~copy") != std::string::npos) {
        return;
      }
      injected += c.corrupt_random_segments(count - injected, seed + c.id());
    });
    return injected;
  }

  integrity::ScrubReport scrub(bool tape_ordered) {
    integrity::ScrubConfig cfg;
    cfg.tape_ordered = tape_ordered;
    std::optional<integrity::ScrubReport> out;
    hsm.scrub(cfg, [&](const integrity::ScrubReport& r) { out = r; });
    sim.run();
    return *out;
  }
};

struct ScenarioResult {
  std::string name;
  std::uint64_t injected = 0;
  std::uint64_t detected = 0;
  std::uint64_t repaired_from_copy = 0;
  std::uint64_t remigrated = 0;
  std::uint64_t unrepairable = 0;
  std::uint64_t rescrub_mismatches = 0;  // must be 0: repaired or reported once
};

/// Injects `n` corruptions, scrubs, then scrubs again: the second pass
/// proves repairs stuck and unrepairables are not re-reported.
ScenarioResult run_scenario(const std::string& name, unsigned copies,
                            bool punch, unsigned files, std::uint64_t n,
                            std::uint64_t seed, bool primaries_only,
                            std::vector<std::string>* failures) {
  Plant plant(copies, punch, files);
  ScenarioResult r;
  r.name = name;
  r.injected = plant.inject(n, seed, primaries_only);
  const integrity::ScrubReport first = plant.scrub(/*tape_ordered=*/true);
  const integrity::ScrubReport second = plant.scrub(/*tape_ordered=*/true);
  r.detected = first.mismatches;
  r.repaired_from_copy = first.repaired_from_copy;
  r.remigrated = first.remigrated;
  r.unrepairable = first.unrepairable;
  r.rescrub_mismatches = second.mismatches;
  if (r.injected != n) {
    failures->push_back(name + ": injected " + std::to_string(r.injected) +
                        " of " + std::to_string(n) + " requested corruptions");
  }
  if (r.detected != r.injected) {
    failures->push_back(name + ": " + std::to_string(r.injected - r.detected) +
                        " injected corruption(s) went undetected");
  }
  if (r.rescrub_mismatches != 0) {
    failures->push_back(name + ": re-scrub still sees " +
                        std::to_string(r.rescrub_mismatches) + " mismatches");
  }
  return r;
}

struct OrderResult {
  std::uint64_t segments = 0;
  double tape_ordered_seconds = 0;
  double naive_seconds = 0;
  std::uint64_t tape_ordered_mounts = 0;
  std::uint64_t naive_mounts = 0;

  [[nodiscard]] double speedup() const {
    return tape_ordered_seconds > 0 ? naive_seconds / tape_ordered_seconds : 0;
  }
};

/// Clean (no corruption) scan-cost comparison on identical plants.  Files
/// archived round-robin over four colocation groups interleave volumes in
/// the fixity table, so archive order pays a robot exchange on almost
/// every row while tape order pays one mount per volume.
OrderResult run_order_comparison(unsigned files) {
  OrderResult out;
  for (const bool tape_ordered : {true, false}) {
    Plant plant(/*copies=*/1, /*punch=*/true, files, /*groups=*/4);
    const std::uint64_t mounts0 = plant.lib.aggregate_stats().mounts;
    const integrity::ScrubReport rep = plant.scrub(tape_ordered);
    const double secs = sim::to_seconds(rep.finished - rep.started);
    const std::uint64_t mounts = plant.lib.aggregate_stats().mounts - mounts0;
    out.segments = rep.segments_scanned;
    if (tape_ordered) {
      out.tape_ordered_seconds = secs;
      out.tape_ordered_mounts = mounts;
    } else {
      out.naive_seconds = secs;
      out.naive_mounts = mounts;
    }
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--smoke") smoke = true;
  }
  const bench::ObsCli cli = bench::parse_obs_cli(argc, argv);
  const std::uint64_t seed = cli.seed_set ? cli.seed : 42;

  const unsigned files = smoke ? 10 : 40;
  const std::uint64_t inject = smoke ? 4 : 10;

  bench::header("bench_scrub",
                "fixity scrubbing: repair lattice + tape-ordered scan");

  std::vector<std::string> failures;
  std::vector<ScenarioResult> scenarios;
  scenarios.push_back(run_scenario("copy_pool", /*copies=*/2, /*punch=*/true,
                                   files, inject, seed,
                                   /*primaries_only=*/true, &failures));
  scenarios.push_back(run_scenario("premigrated", /*copies=*/1, /*punch=*/false,
                                   files, inject, seed,
                                   /*primaries_only=*/false, &failures));
  scenarios.push_back(run_scenario("no_source", /*copies=*/1, /*punch=*/true,
                                   files, inject, seed,
                                   /*primaries_only=*/false, &failures));
  if (scenarios[0].repaired_from_copy != scenarios[0].injected) {
    failures.push_back("copy_pool: expected every corruption repaired from "
                       "the copy pool");
  }
  if (scenarios[1].remigrated != scenarios[1].injected) {
    failures.push_back("premigrated: expected every corruption re-migrated "
                       "from disk data");
  }
  if (scenarios[2].unrepairable != scenarios[2].injected) {
    failures.push_back("no_source: expected every corruption reported "
                       "unrepairable");
  }

  std::printf("  scenario     | injected | detected | copy-fix | remigr | unrep | re-scrub\n");
  std::printf("  -------------+----------+----------+----------+--------+-------+---------\n");
  for (const ScenarioResult& s : scenarios) {
    std::printf("  %-12s | %8" PRIu64 " | %8" PRIu64 " | %8" PRIu64
                " | %6" PRIu64 " | %5" PRIu64 " | %8" PRIu64 "\n",
                s.name.c_str(), s.injected, s.detected, s.repaired_from_copy,
                s.remigrated, s.unrepairable, s.rescrub_mismatches);
  }

  const OrderResult order = run_order_comparison(files);
  bench::section("scan order (clean pass, 4 interleaved groups)");
  std::printf("  order        | segments | mounts | virtual seconds\n");
  std::printf("  -------------+----------+--------+----------------\n");
  std::printf("  tape-ordered | %8" PRIu64 " | %6" PRIu64 " | %15.0f\n",
              order.segments, order.tape_ordered_mounts,
              order.tape_ordered_seconds);
  std::printf("  archive-order| %8" PRIu64 " | %6" PRIu64 " | %15.0f\n",
              order.segments, order.naive_mounts, order.naive_seconds);

  // Every column is a verdict count or a virtual-time result.
  const auto count = [](const char* name) {
    return bench::Column{name, bench::Clock::Virtual, "%.0f"};
  };
  bench::JsonTable table(
      "scrub", "scenario",
      {count("injected"), count("detected"), count("repaired_from_copy"),
       count("remigrated"), count("unrepairable"), count("rescrub_mismatches"),
       count("segments"), count("tape_ordered_seconds"), count("naive_seconds"),
       count("tape_ordered_mounts"), count("naive_mounts"),
       {"speedup", bench::Clock::Virtual, "%.2f"}});
  for (const ScenarioResult& s : scenarios) {
    table.row(s.name, {{"injected", s.injected},
                       {"detected", s.detected},
                       {"repaired_from_copy", s.repaired_from_copy},
                       {"remigrated", s.remigrated},
                       {"unrepairable", s.unrepairable},
                       {"rescrub_mismatches", s.rescrub_mismatches}});
  }
  table.row("scan_order",
            {{"segments", order.segments},
             {"tape_ordered_seconds", order.tape_ordered_seconds},
             {"naive_seconds", order.naive_seconds},
             {"tape_ordered_mounts", order.tape_ordered_mounts},
             {"naive_mounts", order.naive_mounts},
             {"speedup", order.speedup()}});
  if (!table.write(argc, argv)) return 1;

  bench::section("paper vs measured");
  bench::compare("tape-ordered scrub speedup", "one mount per volume",
                 bench::fmt("%.1fx", order.speedup()));
  bench::compare("silent corruption detection", "100%",
                 failures.empty() ? "100%" : "INCOMPLETE");

  if (!failures.empty()) {
    for (const std::string& f : failures) {
      std::fprintf(stderr, "bench_scrub: FAIL — %s\n", f.c_str());
    }
    return 1;
  }
  std::printf("  every injected corruption detected and resolved per the "
              "repair lattice\n");
  return 0;
}
