// End-to-end data integrity: fixity checksums recorded at migrate time,
// verified on recall, and repaired by the tape-ordered scrubber.
#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <vector>

#include "hsm/hsm.hpp"
#include "integrity/fixity.hpp"
#include "integrity/scrubber.hpp"
#include "simcore/units.hpp"

namespace cpa::integrity {
namespace {

// ------------------------------------------------------------- checksum math

TEST(Fixity, ChecksumIsDeterministicAndSensitiveToEveryInput) {
  const std::uint64_t base = fixity_checksum(7, 4096, 0, 0x5EED);
  EXPECT_EQ(base, fixity_checksum(7, 4096, 0, 0x5EED));
  EXPECT_NE(base, fixity_checksum(8, 4096, 0, 0x5EED));   // id
  EXPECT_NE(base, fixity_checksum(7, 4097, 0, 0x5EED));   // length
  EXPECT_NE(base, fixity_checksum(7, 4096, 1, 0x5EED));   // chunk index
  EXPECT_NE(base, fixity_checksum(7, 4096, 0, 0x5EEE));   // salt
}

TEST(Fixity, FoldOrderMatters) {
  const std::uint64_t h = splitmix64(1);
  EXPECT_NE(fixity_fold(fixity_fold(h, 2), 3), fixity_fold(fixity_fold(h, 3), 2));
}

// ----------------------------------------------------------------- FixityDb

TEST(FixityDb, RelocateFollowsSegmentMoves) {
  FixityDb db;
  const std::uint64_t id = db.add(42, 1, 3, 100, 0xABCD, 0);
  ASSERT_TRUE(db.relocate(42, 1, 9, 0));
  const FixityRow* row = db.find(id);
  ASSERT_NE(row, nullptr);
  EXPECT_EQ(row->cartridge_id, 9u);
  EXPECT_EQ(row->tape_seq, 0u);
  EXPECT_EQ(row->checksum, 0xABCDu);  // checksum rides along unchanged
  EXPECT_FALSE(db.relocate(42, 1, 9, 0));  // old location gone
}

TEST(FixityDb, EraseObjectDropsAllReplicaRows) {
  FixityDb db;
  db.add(5, 1, 0, 10, 1, 0);
  db.add(5, 2, 0, 10, 1, 1);
  db.add(6, 1, 1, 10, 2, 0);
  EXPECT_TRUE(db.erase_object(5));
  EXPECT_EQ(db.size(), 1u);
  EXPECT_TRUE(db.by_object(5).empty());
  ASSERT_EQ(db.by_object(6).size(), 1u);
}

TEST(ScrubOrder, TapeOrderedSortsByCartridgeThenSeqNaiveKeepsArchiveOrder) {
  FixityDb db;
  // Archive order interleaves cartridges: (2,1) (1,5) (2,0) (1,2).
  db.add(10, 2, 1, 1, 0, 0);
  db.add(11, 1, 5, 1, 0, 0);
  db.add(12, 2, 0, 1, 0, 0);
  db.add(13, 1, 2, 1, 0, 0);

  const auto naive = plan_scrub_order(db, false);
  ASSERT_EQ(naive.size(), 4u);
  EXPECT_EQ(naive[0].object_id, 10u);
  EXPECT_EQ(naive[3].object_id, 13u);

  const auto ordered = plan_scrub_order(db, true);
  ASSERT_EQ(ordered.size(), 4u);
  EXPECT_EQ(ordered[0].object_id, 13u);  // (1,2)
  EXPECT_EQ(ordered[1].object_id, 11u);  // (1,5)
  EXPECT_EQ(ordered[2].object_id, 12u);  // (2,0)
  EXPECT_EQ(ordered[3].object_id, 10u);  // (2,1)
}

TEST(ScrubOrder, UnrepairableRowsAreExcluded) {
  FixityDb db;
  const std::uint64_t a = db.add(1, 1, 0, 1, 0, 0);
  db.add(2, 1, 1, 1, 0, 0);
  db.set_status(a, FixityStatus::Unrepairable);
  const auto rows = plan_scrub_order(db, true);
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0].object_id, 2u);
}

// ------------------------------------------------------- HSM integration

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

class IntegrityTest : public ::testing::Test {
 protected:
  explicit IntegrityTest(unsigned copies = 2, bool punch = true)
      : fs_(sim_, fs_config()),
        lib_(sim_, net_, lib_config()),
        hsm_(sim_, net_, fs_, lib_, hsm::Fabric::unconstrained(),
             hsm_config(copies, punch)) {}

  void make_file(const std::string& path, std::uint64_t size,
                 std::uint64_t tag) {
    ASSERT_EQ(fs_.mkdirs(pfs::parent_path(path)), pfs::Errc::Ok);
    ASSERT_TRUE(fs_.create(path).ok());
    ASSERT_EQ(fs_.write_all(path, size, tag), pfs::Errc::Ok);
  }

  std::vector<std::string> migrate_files(unsigned n) {
    std::vector<std::string> paths;
    for (unsigned i = 0; i < n; ++i) {
      const std::string p = "/arch/f" + std::to_string(i);
      make_file(p, 50 * kMB, 0x100 + i);
      paths.push_back(p);
    }
    hsm_.migrate_batch(0, paths, "g", nullptr);
    sim_.run();
    return paths;
  }

  ScrubReport scrub(ScrubConfig cfg = {}) {
    std::optional<ScrubReport> report;
    hsm_.scrub(cfg, [&](const ScrubReport& r) { report = r; });
    sim_.run();
    EXPECT_TRUE(report.has_value());
    return report.value_or(ScrubReport{});
  }

  sim::Simulation sim_;
  sim::FlowNetwork net_{sim_};
  pfs::FileSystem fs_;
  tape::TapeLibrary lib_;
  hsm::HsmSystem hsm_;
};

TEST_F(IntegrityTest, MigrationRecordsFixityRowsForEveryReplica) {
  migrate_files(3);
  // 3 files x (primary + copy) = 6 rows, all distinct locations.
  EXPECT_EQ(hsm_.fixity_db().size(), 6u);
  hsm_.fixity_db().for_each([&](const FixityRow& row) {
    tape::Cartridge* cart = lib_.cartridge(row.cartridge_id);
    ASSERT_NE(cart, nullptr);
    const tape::Segment* seg = cart->segment_by_seq(row.tape_seq);
    ASSERT_NE(seg, nullptr);
    EXPECT_EQ(seg->fingerprint, row.checksum);
    EXPECT_EQ(seg->observed_fingerprint(), row.checksum);
  });
}

TEST_F(IntegrityTest, CopiesShareTheirPrimaryChecksum) {
  migrate_files(2);
  hsm_.fixity_db().for_each([&](const FixityRow& row) {
    const auto replicas = hsm_.fixity_db().by_object(row.object_id);
    ASSERT_EQ(replicas.size(), 2u);
    EXPECT_EQ(replicas[0]->checksum, replicas[1]->checksum);
    EXPECT_NE(replicas[0]->cartridge_id, replicas[1]->cartridge_id);
  });
}

TEST_F(IntegrityTest, CleanScrubFindsNothing) {
  migrate_files(4);
  const ScrubReport r = scrub();
  EXPECT_EQ(r.segments_scanned, 8u);
  EXPECT_EQ(r.mismatches, 0u);
  EXPECT_EQ(r.repaired(), 0u);
  EXPECT_EQ(r.unrepairable, 0u);
  EXPECT_TRUE(r.repair_log.empty());
  // Tape order: both cartridges visited exactly once.
  EXPECT_EQ(r.cartridges_visited, 2u);
}

TEST_F(IntegrityTest, ScrubDetectsAndRepairsFromCopyPool) {
  migrate_files(4);
  // Corrupt two primary-volume segments; the copy volume stays clean.
  ASSERT_EQ(lib_.cartridge(1)->corrupt_random_segments(2, 7), 2u);

  const ScrubReport r = scrub();
  EXPECT_EQ(r.mismatches, 2u);
  EXPECT_EQ(r.repaired_from_copy, 2u);
  EXPECT_EQ(r.unrepairable, 0u);
  ASSERT_EQ(r.repair_log.size(), 2u);
  for (const ScrubRepair& rep : r.repair_log) {
    EXPECT_EQ(rep.action, ScrubRepair::Action::RepairedFromCopy);
    EXPECT_NE(rep.new_cartridge, rep.bad_cartridge);
  }

  // Fixity rows follow the rewrite and a second scrub comes back clean.
  hsm_.fixity_db().for_each([&](const FixityRow& row) {
    tape::Cartridge* cart = lib_.cartridge(row.cartridge_id);
    ASSERT_NE(cart, nullptr);
    const tape::Segment* seg = cart->segment_by_seq(row.tape_seq);
    ASSERT_NE(seg, nullptr);
    EXPECT_EQ(seg->object_id, row.object_id);
    EXPECT_EQ(seg->observed_fingerprint(), row.checksum);
  });
  const ScrubReport again = scrub();
  EXPECT_EQ(again.mismatches, 0u);
}

// Plain (non-fixture) plant so a test can build several independent runs.
struct ScrubRunner {
  sim::Simulation sim;
  sim::FlowNetwork net{sim};
  pfs::FileSystem fs{sim, fs_config()};
  tape::TapeLibrary lib{sim, net, lib_config()};
  hsm::HsmSystem hsm{sim,
                     net,
                     fs,
                     lib,
                     hsm::Fabric::unconstrained(),
                     hsm_config(2, true)};

  std::string run(std::uint64_t seed) {
    std::vector<std::string> paths;
    for (unsigned i = 0; i < 6; ++i) {
      const std::string p = "/arch/f" + std::to_string(i);
      fs.mkdirs(pfs::parent_path(p));
      fs.create(p);
      fs.write_all(p, 50 * kMB, 0x100 + i);
      paths.push_back(p);
    }
    hsm.migrate_batch(0, paths, "g", nullptr);
    sim.run();
    lib.cartridge(1)->corrupt_random_segments(3, seed);
    std::string log;
    hsm.scrub({}, [&](const ScrubReport& r) { log = r.render_repair_log(); });
    sim.run();
    return log;
  }
};

TEST(ScrubDeterminism, SameSeedAndPlanGiveIdenticalRepairLogs) {
  ScrubRunner a, b;
  const std::string log_a = a.run(42);
  const std::string log_b = b.run(42);
  EXPECT_FALSE(log_a.empty());
  EXPECT_EQ(log_a, log_b);
}

TEST_F(IntegrityTest, RecallVerifiesFixityAndHealsFromCopy) {
  const auto paths = migrate_files(2);
  // Rot every primary segment; reads still succeed, checksums do not.
  ASSERT_EQ(lib_.cartridge(1)->corrupt_random_segments(2, 3), 2u);

  std::optional<hsm::RecallReport> report;
  hsm_.recall(paths, hsm::RecallOptions{},
              [&](const hsm::RecallReport& r) { report = r; });
  sim_.run();
  ASSERT_TRUE(report.has_value());
  EXPECT_EQ(report->files_recalled, 2u);
  EXPECT_EQ(report->files_failed, 0u);
  EXPECT_EQ(report->files_unrepairable, 0u);
  EXPECT_EQ(report->fixity_mismatches, 2u);
  EXPECT_GE(report->fixity_verified, 2u);
  // The healed files carry the right content.
  EXPECT_EQ(fs_.read_tag(paths[0]).value(), 0x100u);
  EXPECT_EQ(fs_.read_tag(paths[1]).value(), 0x101u);
}

TEST_F(IntegrityTest, RecallWithEveryReplicaRottenIsUnrepairableNotARetryLoop) {
  const auto paths = migrate_files(1);
  // Both the primary and the copy-pool replica are silently corrupted.
  ASSERT_EQ(lib_.cartridge(1)->corrupt_random_segments(1, 1), 1u);
  ASSERT_EQ(lib_.cartridge(2)->corrupt_random_segments(1, 1), 1u);

  std::optional<hsm::RecallReport> report;
  hsm_.recall(paths, hsm::RecallOptions{},
              [&](const hsm::RecallReport& r) { report = r; });
  sim_.run();  // terminates: fixity failure is not a loud-fault retry
  ASSERT_TRUE(report.has_value());
  EXPECT_EQ(report->files_recalled, 0u);
  EXPECT_EQ(report->files_failed, 1u);
  EXPECT_EQ(report->files_unrepairable, 1u);
  EXPECT_GE(report->fixity_mismatches, 2u);  // primary + fallback both failed
}

TEST_F(IntegrityTest, RateLimitedScrubHonorsCeiling) {
  migrate_files(4);
  ScrubConfig cfg;
  cfg.rate_limit_bps = 20.0 * 1e6;  // 20 MB/s ceiling
  const ScrubReport r = scrub(cfg);
  EXPECT_EQ(r.segments_scanned, 8u);
  EXPECT_GT(r.scan_rate_bps(), 0.0);
  EXPECT_LE(r.scan_rate_bps(), cfg.rate_limit_bps);
}

TEST_F(IntegrityTest, ScrubYieldsToConcurrentRecalls) {
  const auto paths = migrate_files(6);
  ScrubConfig cfg;
  cfg.rate_limit_bps = 10.0 * 1e6;  // slow scan: recalls overlap it
  std::optional<ScrubReport> scrub_report;
  hsm_.scrub(cfg, [&](const ScrubReport& r) { scrub_report = r; });
  std::optional<hsm::RecallReport> recall_report;
  sim_.after(sim::secs(1), [&] {
    hsm_.recall({paths[0], paths[3]}, hsm::RecallOptions{},
                [&](const hsm::RecallReport& r) { recall_report = r; });
  });
  sim_.run();
  ASSERT_TRUE(scrub_report.has_value());
  ASSERT_TRUE(recall_report.has_value());
  // The scrub held one drive; the recall got another and finished clean.
  EXPECT_EQ(recall_report->files_recalled, 2u);
  EXPECT_EQ(recall_report->files_failed, 0u);
  EXPECT_EQ(scrub_report->segments_scanned, 12u);
  EXPECT_LE(scrub_report->scan_rate_bps(), cfg.rate_limit_bps);
}

// A scrub whose drive dies mid-pass gives it back and carries on with a
// healthy one.  Report and finish tick are pinned.
TEST_F(IntegrityTest, ScrubFailsOverToAnotherDrive) {
  migrate_files(6);
  const sim::Tick t0 = sim_.now();
  std::optional<ScrubReport> report;
  hsm_.scrub(ScrubConfig{}, [&](const ScrubReport& r) { report = r; });
  // The scrub takes the first idle drive, drive 0, which dies while
  // reading the first cartridge's fourth segment: that read is lost, the
  // rest of the pass runs on drive 1.
  sim_.after(sim::secs(103), [&] { lib_.fail_drive(0); });
  sim_.run();
  ASSERT_TRUE(report.has_value());
  EXPECT_EQ(report->segments_scanned, 11u);
  EXPECT_EQ(report->read_errors, 1u);
  EXPECT_EQ(report->cartridges_visited, 2u);
  EXPECT_EQ(report->mismatches, 0u);
  EXPECT_EQ(report->started, t0);
  EXPECT_EQ(report->finished - t0, sim::usecs(316965500));
  EXPECT_EQ(lib_.drive(0).stats().read_txns, 3u);
  EXPECT_EQ(lib_.drive(1).stats().read_txns, 8u);
}

// Single-copy plant: exercises re-migration and exactly-once unrepairable.
struct SingleCopyIntegrityTest : IntegrityTest {
  SingleCopyIntegrityTest() : IntegrityTest(1) {}
};

// Backup semantics: tape copy exists but disk data is NOT punched, so the
// repair lattice can fall back to re-migration.
struct PremigratedIntegrityTest : IntegrityTest {
  PremigratedIntegrityTest() : IntegrityTest(1, /*punch=*/false) {}
};

TEST_F(PremigratedIntegrityTest, ScrubRemigratesFromPremigratedDiskData) {
  const auto paths = migrate_files(2);
  ASSERT_EQ(fs_.stat(paths[0]).value().dmapi, pfs::DmapiState::Premigrated);
  ASSERT_EQ(lib_.cartridge(1)->corrupt_random_segments(1, 5), 1u);

  const ScrubReport r = scrub();
  EXPECT_EQ(r.mismatches, 1u);
  EXPECT_EQ(r.remigrated, 1u);
  EXPECT_EQ(r.repaired_from_copy, 0u);
  EXPECT_EQ(r.unrepairable, 0u);
  EXPECT_EQ(scrub().mismatches, 0u);  // repaired segment verifies now
}

TEST_F(SingleCopyIntegrityTest, UnrepairableIsReportedExactlyOnceAcrossScrubs) {
  migrate_files(2);  // punched: no disk fallback, no copy pool
  ASSERT_EQ(lib_.cartridge(1)->corrupt_random_segments(1, 9), 1u);

  const ScrubReport first = scrub();
  EXPECT_EQ(first.mismatches, 1u);
  EXPECT_EQ(first.repaired(), 0u);
  EXPECT_EQ(first.unrepairable, 1u);
  ASSERT_EQ(first.repair_log.size(), 1u);
  EXPECT_EQ(first.repair_log[0].action, ScrubRepair::Action::Unrepairable);

  // The poisoned row is excluded from later snapshots: scanned segments
  // drop by one and nothing is re-reported.
  const ScrubReport second = scrub();
  EXPECT_EQ(second.segments_scanned, 1u);
  EXPECT_EQ(second.mismatches, 0u);
  EXPECT_EQ(second.unrepairable, 0u);
}

TEST_F(SingleCopyIntegrityTest, FixityRowsStayConsistentAcrossReclamation) {
  const auto paths = migrate_files(8);
  // Kill most of the volume, then reclaim: survivors move to a new one.
  for (unsigned i = 2; i < 8; ++i) {
    hsm_.synchronous_delete(paths[i], nullptr);
  }
  sim_.run();
  EXPECT_EQ(hsm_.fixity_db().size(), 2u);  // deleted objects dropped rows

  std::optional<hsm::ReclaimReport> reclaim;
  hsm_.reclaim_volumes(0.5, 0, [&](const hsm::ReclaimReport& r) { reclaim = r; });
  sim_.run();
  ASSERT_TRUE(reclaim.has_value());
  EXPECT_EQ(reclaim->objects_moved, 2u);

  // Every surviving row points at a live segment whose fingerprint still
  // matches — the relocation carried the checksums with the bits.
  hsm_.fixity_db().for_each([&](const FixityRow& row) {
    EXPECT_NE(row.cartridge_id, 1u);  // off the reclaimed volume
    tape::Cartridge* cart = lib_.cartridge(row.cartridge_id);
    ASSERT_NE(cart, nullptr);
    const tape::Segment* seg = cart->segment_by_seq(row.tape_seq);
    ASSERT_NE(seg, nullptr);
    EXPECT_EQ(seg->object_id, row.object_id);
    EXPECT_EQ(seg->observed_fingerprint(), row.checksum);
  });
  const ScrubReport r = scrub();
  EXPECT_EQ(r.segments_scanned, 2u);
  EXPECT_EQ(r.mismatches, 0u);
}

}  // namespace
}  // namespace cpa::integrity
