#include "pftool/sim/job.hpp"

#include <gtest/gtest.h>

#include "archive/system.hpp"

namespace cpa::pftool::sim {
namespace {

using archive::CotsParallelArchive;
using archive::SystemConfig;

class PftoolSimTest : public ::testing::Test {
 protected:
  PftoolSimTest() : sys_(SystemConfig::small()) {}

  /// Builds a small scratch tree: 2 dirs, `files_per_dir` files each.
  void build_tree(unsigned files_per_dir, std::uint64_t file_size) {
    for (int d = 0; d < 2; ++d) {
      for (unsigned f = 0; f < files_per_dir; ++f) {
        const std::string path = "/runs/d" + std::to_string(d) + "/f" +
                                 std::to_string(f);
        ASSERT_EQ(sys_.make_file(sys_.scratch(), path, file_size,
                                 0x1000 + d * 100 + f),
                  pfs::Errc::Ok);
      }
    }
  }

  CotsParallelArchive sys_;
};

TEST_F(PftoolSimTest, PflsWalksAndLists) {
  build_tree(5, kMB);
  const JobReport r = sys_.pfls("/runs");
  EXPECT_EQ(r.command, "pfls");
  EXPECT_EQ(r.dirs_walked, 3u);   // /runs, d0, d1
  EXPECT_EQ(r.files_stated, 10u);
  EXPECT_EQ(r.files_copied, 0u);
  EXPECT_GT(r.finished, r.started);
}

TEST_F(PftoolSimTest, PfcpCopiesTreePreservingContent) {
  build_tree(5, 10 * kMB);
  const JobReport r = sys_.pfcp_archive("/runs", "/archive/runs");
  EXPECT_EQ(r.files_copied, 10u);
  EXPECT_EQ(r.bytes_copied, 100 * kMB);
  EXPECT_EQ(r.files_failed, 0u);
  EXPECT_EQ(r.chunks_copied, 10u);  // all small -> whole-file copies

  // Destination tree mirrors the source with identical content tags.
  for (int d = 0; d < 2; ++d) {
    for (int f = 0; f < 5; ++f) {
      const std::string src = "/runs/d" + std::to_string(d) + "/f" +
                              std::to_string(f);
      const std::string dst = "/archive/runs/d" + std::to_string(d) + "/f" +
                              std::to_string(f);
      ASSERT_TRUE(sys_.archive_fs().exists(dst)) << dst;
      EXPECT_EQ(sys_.archive_fs().read_tag(dst).value(),
                sys_.scratch().read_tag(src).value());
    }
  }
}

TEST_F(PftoolSimTest, PfcmVerifiesCopiedTree) {
  build_tree(4, 5 * kMB);
  sys_.pfcp_archive("/runs", "/archive/runs");
  const JobReport r = sys_.pfcm("/runs", "/archive/runs");
  EXPECT_EQ(r.files_compared, 8u);
  EXPECT_EQ(r.files_matched, 8u);
  EXPECT_EQ(r.files_mismatched, 0u);
}

TEST_F(PftoolSimTest, PfcmDetectsCorruption) {
  build_tree(4, 5 * kMB);
  sys_.pfcp_archive("/runs", "/archive/runs");
  // Corrupt one destination file.
  ASSERT_EQ(sys_.archive_fs().write_all("/archive/runs/d0/f1", 5 * kMB, 0xBAD),
            pfs::Errc::Ok);
  const JobReport r = sys_.pfcm("/runs", "/archive/runs");
  EXPECT_EQ(r.files_compared, 8u);
  EXPECT_EQ(r.files_matched, 7u);
  EXPECT_EQ(r.files_mismatched, 1u);
}

TEST_F(PftoolSimTest, PfcmDetectsMissingDestination) {
  build_tree(2, kMB);
  sys_.pfcp_archive("/runs", "/archive/runs");
  ASSERT_EQ(sys_.archive_fs().unlink("/archive/runs/d1/f0"), pfs::Errc::Ok);
  const JobReport r = sys_.pfcm("/runs", "/archive/runs");
  EXPECT_EQ(r.files_failed, 1u);  // incomparable
  EXPECT_EQ(r.files_compared, 3u);
}

TEST_F(PftoolSimTest, SingleFilePfcp) {
  ASSERT_EQ(sys_.make_file(sys_.scratch(), "/data/one", 7 * kMB, 0x777),
            pfs::Errc::Ok);
  const JobReport r = sys_.pfcp_archive("/data/one", "/archive/one");
  EXPECT_EQ(r.files_copied, 1u);
  EXPECT_EQ(r.dirs_walked, 0u);
  EXPECT_EQ(sys_.archive_fs().read_tag("/archive/one").value(), 0x777u);
}

TEST_F(PftoolSimTest, LargeFileGoesNto1Chunked) {
  // 20 GB: within the "10 GBs to 100 GBs" N-to-1 band.
  ASSERT_EQ(sys_.make_file(sys_.scratch(), "/data/big", 20 * kGB, 0xB16),
            pfs::Errc::Ok);
  const JobReport r = sys_.pfcp_archive("/data/big", "/archive/big");
  EXPECT_EQ(r.files_copied, 1u);
  EXPECT_EQ(r.chunks_copied, 5u);  // 20 GB / 4 GB chunks
  EXPECT_EQ(r.fuse_files, 0u);
  EXPECT_EQ(sys_.archive_fs().read_tag("/archive/big").value(), 0xB16u);
  EXPECT_EQ(sys_.archive_fs().stat("/archive/big").value().size, 20 * kGB);
}

TEST_F(PftoolSimTest, VeryLargeFileGoesThroughFuseNtoN) {
  ASSERT_EQ(sys_.make_file(sys_.scratch(), "/data/huge", 200 * kGB, 0xA5A5),
            pfs::Errc::Ok);
  const JobReport r = sys_.pfcp_archive("/data/huge", "/archive/huge");
  EXPECT_EQ(r.files_copied, 1u);
  EXPECT_EQ(r.fuse_files, 1u);
  EXPECT_EQ(r.chunks_copied, 13u);  // ceil(200/16)
  ASSERT_TRUE(sys_.fuse().is_chunked("/archive/huge"));
  const auto st = sys_.fuse().stat("/archive/huge");
  ASSERT_TRUE(st.ok());
  EXPECT_TRUE(st.value().complete);
  EXPECT_EQ(st.value().size, 200 * kGB);
  EXPECT_EQ(sys_.fuse().origin_tag("/archive/huge").value(), 0xA5A5u);
}

TEST_F(PftoolSimTest, PfcmMatchesFuseChunkedCopy) {
  ASSERT_EQ(sys_.make_file(sys_.scratch(), "/data/huge", 150 * kGB, 0xFACE),
            pfs::Errc::Ok);
  sys_.pfcp_archive("/data/huge", "/archive/huge");
  const JobReport r = sys_.pfcm("/data/huge", "/archive/huge");
  EXPECT_EQ(r.files_compared, 1u);
  EXPECT_EQ(r.files_matched, 1u);
}

TEST_F(PftoolSimTest, MoreWorkersCopyFaster) {
  for (int f = 0; f < 32; ++f) {
    ASSERT_EQ(sys_.make_file(sys_.scratch(), "/w/f" + std::to_string(f),
                             500 * kMB, static_cast<std::uint64_t>(f)),
              pfs::Errc::Ok);
  }
  PftoolConfig one = sys_.config().pftool;
  one.num_workers = 1;
  const JobReport r1 =
      run_pfcp(sys_.job_env(false), one, "/w", "/archive/w1");

  PftoolConfig eight = sys_.config().pftool;
  eight.num_workers = 8;
  const JobReport r8 =
      run_pfcp(sys_.job_env(false), eight, "/w", "/archive/w8");

  EXPECT_EQ(r1.files_copied, 32u);
  EXPECT_EQ(r8.files_copied, 32u);
  EXPECT_GT(r8.rate_bps(), 2.0 * r1.rate_bps());
}

TEST_F(PftoolSimTest, RestoreDirectionEngagesTapeProcs) {
  // Archive 6 files, migrate them to tape, punch stubs.
  build_tree(3, 50 * kMB);
  sys_.pfcp_archive("/runs", "/archive/runs");
  std::vector<std::string> paths;
  for (int d = 0; d < 2; ++d) {
    for (int f = 0; f < 3; ++f) {
      paths.push_back("/archive/runs/d" + std::to_string(d) + "/f" +
                      std::to_string(f));
    }
  }
  bool migrated = false;
  sys_.hsm().migrate_batch(0, paths, "g",
                           [&](const hsm::MigrateReport& r) {
                             EXPECT_EQ(r.files_migrated, 6u);
                             migrated = true;
                           });
  sys_.sim().run();
  ASSERT_TRUE(migrated);

  // Restore to a fresh scratch location.
  const JobReport r = sys_.pfcp_restore("/archive/runs", "/restored");
  EXPECT_EQ(r.files_restored, 6u);
  EXPECT_EQ(r.files_copied, 6u);
  EXPECT_GE(r.tapes_touched, 1u);
  EXPECT_EQ(r.files_failed, 0u);
  for (const auto& p : paths) {
    const std::string dst = "/restored" + p.substr(std::string("/archive/runs").size());
    ASSERT_TRUE(sys_.scratch().exists(dst)) << dst;
    EXPECT_EQ(sys_.scratch().read_tag(dst).value(),
              sys_.archive_fs().read_tag(p).value());
  }
}

TEST_F(PftoolSimTest, PartiallyFailedRecallCopiesOnlyRecalledFiles) {
  // Six files on one cartridge; bit-rot on one segment (not the batch's
  // last) makes its recall fail while the other five come back.
  std::vector<std::string> paths;
  for (int f = 0; f < 6; ++f) {
    const std::string name = "/f" + std::to_string(f);
    ASSERT_EQ(sys_.make_file(sys_.scratch(), "/runs" + name, 50 * kMB,
                             0x2000 + f),
              pfs::Errc::Ok);
    paths.push_back("/archive/runs" + name);
  }
  sys_.pfcp_archive("/runs", "/archive/runs");
  bool migrated = false;
  sys_.hsm().migrate_batch(0, paths, "g", [&](const hsm::MigrateReport& r) {
    EXPECT_EQ(r.files_migrated, 6u);
    migrated = true;
  });
  sys_.sim().run();
  ASSERT_TRUE(migrated);
  tape::Cartridge* cart = nullptr;
  sys_.library().for_each_cartridge([&](tape::Cartridge& c) {
    if (cart == nullptr && c.bytes_used() > 0) cart = &c;
  });
  ASSERT_NE(cart, nullptr);
  ASSERT_EQ(cart->corrupt_random_segments(1, 1), 1u);

  const JobReport r = sys_.pfcp_restore("/archive/runs", "/back");
  unsigned still_migrated = 0;
  for (const std::string& p : paths) {
    const bool recalled = sys_.archive_fs().stat(p).value().dmapi !=
                          pfs::DmapiState::Migrated;
    const std::string dst = "/back" + p.substr(std::string("/archive/runs").size());
    EXPECT_EQ(sys_.scratch().exists(dst), recalled) << dst;
    if (!recalled) {
      ++still_migrated;
      EXPECT_NE(p, paths.back()) << "the victim must not end the batch";
    }
  }
  EXPECT_EQ(still_migrated, 1u);
  EXPECT_EQ(r.files_restored, 5u);
  EXPECT_EQ(r.files_copied, 5u);
  EXPECT_EQ(r.files_failed, 1u);
}

TEST_F(PftoolSimTest, RestartSkipsKnownGoodChunks) {
  ASSERT_EQ(sys_.make_file(sys_.scratch(), "/data/big", 20 * kGB, 0x5E57),
            pfs::Errc::Ok);
  // Simulate a previous interrupted run: 3 of 5 chunks already good.
  sys_.journal().begin("/archive/big", 20 * kGB, 5);
  sys_.journal().mark_good("/archive/big", 0);
  sys_.journal().mark_good("/archive/big", 1);
  sys_.journal().mark_good("/archive/big", 2);
  // The interrupted run had already created the destination file.
  ASSERT_EQ(sys_.archive_fs().mkdirs("/archive"), pfs::Errc::Ok);

  PftoolConfig cfg = sys_.config().pftool;
  cfg.restartable = true;
  const JobReport r = run_pfcp(sys_.job_env(false), cfg, "/data/big",
                               "/archive/big");
  EXPECT_EQ(r.files_copied, 1u);
  EXPECT_EQ(r.chunks_skipped_restart, 3u);
  EXPECT_EQ(r.chunks_copied, 2u);
  EXPECT_EQ(r.bytes_copied, 8 * kGB);  // only the missing 2 x 4 GB
  EXPECT_EQ(sys_.archive_fs().read_tag("/archive/big").value(), 0x5E57u);
  // Journal entry cleaned up after completion.
  EXPECT_FALSE(sys_.journal().known("/archive/big"));
}

TEST_F(PftoolSimTest, WatchdogRecordsProgressSamples) {
  for (int f = 0; f < 16; ++f) {
    ASSERT_EQ(sys_.make_file(sys_.scratch(), "/w/f" + std::to_string(f),
                             20 * kGB, static_cast<std::uint64_t>(f)),
              pfs::Errc::Ok);
  }
  JobReport out;
  PftoolJob job(sys_.job_env(false), sys_.config().pftool, Command::Pfcp,
                "/w", "/archive/w", [&](const JobReport& r) { out = r; });
  job.start();
  sys_.sim().run();
  EXPECT_EQ(out.files_copied, 16u);
  // The job runs minutes of virtual time; the WatchDog sampled it.
  EXPECT_GT(job.watchdog_samples().size(), 0u);
  EXPECT_GT(job.watchdog_samples().back().total_bytes, 0u);
}

TEST_F(PftoolSimTest, WatchdogAbortsStalledJob) {
  ASSERT_EQ(sys_.make_file(sys_.scratch(), "/w/f", kGB, 1), pfs::Errc::Ok);
  // Stall the data path completely: zero both trunks.
  sys_.net().set_pool_capacity(sys_.fta().trunk_for(0), 0.0);
  sys_.net().set_pool_capacity(sys_.fta().trunk_for(1), 0.0);
  PftoolConfig cfg = sys_.config().pftool;
  cfg.stall_timeout = cpa::sim::minutes(5);
  JobReport out;
  PftoolJob job(sys_.job_env(false), cfg, Command::Pfcp, "/w", "/archive/w",
                [&](const JobReport& r) { out = r; });
  job.start();
  sys_.sim().run();
  EXPECT_TRUE(out.aborted_by_watchdog);
  EXPECT_EQ(out.files_copied, 0u);
}

TEST_F(PftoolSimTest, MissingSourceFailsCleanly) {
  const JobReport r = sys_.pfcp_archive("/does/not/exist", "/archive/x");
  EXPECT_EQ(r.files_failed, 1u);
  EXPECT_EQ(r.files_copied, 0u);
}

TEST_F(PftoolSimTest, EmptyDirectoryTreeCopiesStructureOnly) {
  ASSERT_EQ(sys_.scratch().mkdirs("/empty/a/b"), pfs::Errc::Ok);
  const JobReport r = sys_.pfcp_archive("/empty", "/archive/empty");
  EXPECT_EQ(r.dirs_walked, 3u);
  EXPECT_EQ(r.files_copied, 0u);
  EXPECT_TRUE(sys_.archive_fs().exists("/archive/empty/a/b"));
}

TEST_F(PftoolSimTest, OutputProcReceivesListingLines) {
  build_tree(5, kMB);
  JobReport out;
  PftoolJob job(sys_.job_env(false), sys_.config().pftool, Command::Pfls,
                "/runs", "", [&](const JobReport& r) { out = r; });
  job.start();
  sys_.sim().run();
  EXPECT_EQ(job.output_lines(), 10u);
}

TEST_F(PftoolSimTest, PlacementPolicyRoutesSmallFilesToSlowPool) {
  // Sec 4.2.1: "a 'slow' disk pool used to store small files".
  pfs::Rule place;
  place.name = "smalls-to-slow";
  place.action = pfs::Rule::Action::Place;
  place.target = "slow";
  place.where = {pfs::Condition::path_glob("/archive/smallfiles/*")};
  sys_.policy().add_rule(place);

  ASSERT_EQ(sys_.make_file(sys_.scratch(), "/in/tiny", 64 * kKB, 1), pfs::Errc::Ok);
  ASSERT_EQ(sys_.make_file(sys_.scratch(), "/in/big", 200 * kMB, 2), pfs::Errc::Ok);
  sys_.pfcp_archive("/in/tiny", "/archive/smallfiles/tiny");
  sys_.pfcp_archive("/in/big", "/archive/bigfiles/big");
  EXPECT_EQ(sys_.archive_fs().stat("/archive/smallfiles/tiny").value().pool,
            "slow");
  EXPECT_EQ(sys_.archive_fs().stat("/archive/bigfiles/big").value().pool,
            "fast");
}

TEST_F(PftoolSimTest, ReportCarriesQueueHighWatermarks) {
  build_tree(20, kMB);
  const JobReport r = sys_.pfcp_archive("/runs", "/archive/runs");
  EXPECT_GT(r.nameq_max_depth, 0u);
  EXPECT_GT(r.copyq_max_depth, 0u);
  EXPECT_GT(r.dirq_max_depth, 0u);
  EXPECT_NE(r.render().find("queues:"), std::string::npos);
}

}  // namespace
}  // namespace cpa::pftool::sim
