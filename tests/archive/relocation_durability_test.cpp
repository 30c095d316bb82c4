// Acked relocations are durable.  Reclaim and scrub repair move objects
// to new cartridges through the metadata session, whose `applied` sits
// behind the WAL group commit, so `done` implies every relocation is
// durable.  A power failure right after each `done` must recover a
// catalog that already names the new cartridges, leaving the recovery
// scan nothing to adopt.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "archive/system.hpp"
#include "simcore/units.hpp"
#include "workload/tree.hpp"

namespace cpa::archive {
namespace {

using Location = std::pair<std::uint64_t, std::uint64_t>;  // cartridge, seq

/// Primary location of every tape object in the catalog.
std::map<std::uint64_t, Location> catalog(CotsParallelArchive& sys) {
  std::map<std::uint64_t, Location> out;
  sys.hsm().server(0).for_each_object([&](const hsm::ArchiveObject& o) {
    if (o.cartridge_id != 0) out[o.object_id] = {o.cartridge_id, o.tape_seq};
  });
  return out;
}

/// Runs recovery after a power failure to completion.
CotsParallelArchive::RecoveryReport recover(CotsParallelArchive& sys) {
  std::optional<CotsParallelArchive::RecoveryReport> rep;
  sys.recover([&rep](const CotsParallelArchive::RecoveryReport& r) { rep = r; });
  sys.sim().run();
  EXPECT_TRUE(rep.has_value());
  return rep.value_or(CotsParallelArchive::RecoveryReport{});
}

/// Migrate, purge three files in four, reclaim, then scrub one planted
/// rot; the power fails the moment each `done` fires, tearing the
/// un-fsynced WAL tail at `seed`.
void reclaim_then_scrub_with_crashes(std::uint64_t seed) {
  SystemConfig cfg = SystemConfig::small().with_wal();
  cfg.hsm.tape_copies = 2;  // scrub repairs the planted rot from the copy
  CotsParallelArchive sys(cfg);

  constexpr unsigned kFiles = 40;
  workload::TreeSpec tree;
  tree.root = "/proj/data";
  for (unsigned i = 0; i < kFiles; ++i) tree.file_sizes.push_back(8 * kMB);
  workload::build_tree(sys.archive_fs(), tree);
  std::vector<std::string> paths;
  for (unsigned i = 0; i < kFiles; ++i) {
    paths.push_back(workload::tree_file_path(tree, i));
  }
  std::optional<hsm::MigrateReport> migrated;
  sys.hsm().migrate_batch(0, paths, "g",
                          [&](const hsm::MigrateReport& r) { migrated = r; });
  sys.sim().run();
  ASSERT_TRUE(migrated.has_value());
  ASSERT_EQ(migrated->files_migrated, kFiles);

  // Trash and purge three files in four: both volumes end up mostly dead.
  for (unsigned i = 0; i < kFiles; ++i) {
    if (i % 4 != 0) {
      ASSERT_EQ(sys.trashcan().trash(paths[i]), pfs::Errc::Ok);
    }
  }
  sys.trashcan().purge_older_than(sys.sim().now(), nullptr);
  sys.sim().run();

  // Reclaim; the crash lands the moment `done` fires.
  const std::map<std::uint64_t, Location> before = catalog(sys);
  std::optional<hsm::ReclaimReport> reclaimed;
  std::map<std::uint64_t, Location> acked;
  sys.hsm().reclaim_volumes(0.5, 0, [&](const hsm::ReclaimReport& r) {
    reclaimed = r;
    acked = catalog(sys);
    sys.power_fail(seed);
  });
  sys.sim().run();
  ASSERT_TRUE(reclaimed.has_value());
  ASSERT_GT(reclaimed->objects_moved, 0u);
  EXPECT_EQ(recover(sys).reconcile.adopted_segments, 0u);
  const std::map<std::uint64_t, Location> recovered = catalog(sys);
  unsigned relocated = 0;
  for (const auto& [id, loc] : acked) {
    const auto old = before.find(id);
    if (old == before.end() || old->second == loc) continue;
    ++relocated;
    const auto now = recovered.find(id);
    ASSERT_NE(now, recovered.end()) << "object " << id << " lost";
    EXPECT_EQ(now->second, loc) << "object " << id;
  }
  EXPECT_GT(relocated, 0u);

  // Plant one rot on a survivor's primary segment; scrub repairs it from
  // the copy, and again the crash lands the moment `done` fires.
  const Location victim = recovered.begin()->second;
  ASSERT_EQ(sys.library().cartridge(victim.first)->corrupt_random_segments(1, 7),
            1u);
  std::optional<integrity::ScrubReport> scrubbed;
  sys.hsm().scrub(integrity::ScrubConfig{},
                  [&](const integrity::ScrubReport& r) {
                    scrubbed = r;
                    sys.power_fail(seed + 1);
                  });
  sys.sim().run();
  ASSERT_TRUE(scrubbed.has_value());
  ASSERT_EQ(scrubbed->repaired_from_copy, 1u);
  ASSERT_EQ(scrubbed->repair_log.size(), 1u);
  EXPECT_EQ(recover(sys).reconcile.adopted_segments, 0u);
  const integrity::ScrubRepair& fix = scrubbed->repair_log.front();
  const hsm::ArchiveObject* obj = sys.hsm().server(0).object(fix.object_id);
  ASSERT_NE(obj, nullptr);
  EXPECT_EQ(obj->cartridge_id, fix.new_cartridge);
  EXPECT_EQ(obj->tape_seq, fix.new_seq);
}

TEST(RelocationDurability, ReclaimAndScrubRepairSurviveCrashAfterAck) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    SCOPED_TRACE("tear seed " + std::to_string(seed));
    reclaim_then_scrub_with_crashes(seed);
  }
}

}  // namespace
}  // namespace cpa::archive
