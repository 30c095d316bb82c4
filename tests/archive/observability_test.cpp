// Acceptance checks for the observability layer, end to end: the metrics
// registry must agree *exactly* with the substrate reports, and a traced
// run must produce spans from every major subsystem.
#include <gtest/gtest.h>

#include "archive/system.hpp"

namespace cpa::archive {
namespace {

class ObservabilityTest : public ::testing::Test {
 protected:
  ObservabilityTest() : sys_(traced_config()) {}

  static SystemConfig traced_config() {
    SystemConfig cfg = SystemConfig::small();
    cfg.obs.tracing = true;
    return cfg;
  }

  void make_scratch_tree(int files, std::uint64_t bytes) {
    for (int i = 0; i < files; ++i) {
      ASSERT_EQ(sys_.make_file(sys_.scratch(), "/runs/f" + std::to_string(i),
                               bytes, 0xFEED + static_cast<std::uint64_t>(i)),
                pfs::Errc::Ok);
    }
  }

  hsm::MigrateReport migrate_all() {
    pfs::Rule rule;
    rule.name = "tape-candidates";
    rule.action = pfs::Rule::Action::List;
    rule.where = {pfs::Condition::path_glob("/proj/*"),
                  pfs::Condition::dmapi_is(pfs::DmapiState::Resident)};
    sys_.policy().add_rule(rule);
    hsm::MigrateReport out;
    bool done = false;
    sys_.run_migration_cycle("tape-candidates", "proj",
                             [&](const hsm::MigrateReport& r) {
                               out = r;
                               done = true;
                             });
    sys_.sim().run();
    EXPECT_TRUE(done);
    return out;
  }

  CotsParallelArchive sys_;
};

TEST_F(ObservabilityTest, PftoolCountersMatchJobReportExactly) {
  make_scratch_tree(6, 50 * kMB);
  const pftool::JobReport cp = sys_.pfcp_archive("/runs", "/proj/run");
  ASSERT_EQ(cp.files_failed, 0u);
  const obs::MetricsRegistry& m = sys_.observer().metrics();
  EXPECT_EQ(m.counter_value("pftool.jobs"), 1u);
  EXPECT_EQ(m.counter_value("pftool.files_copied"), cp.files_copied);
  EXPECT_EQ(m.counter_value("pftool.bytes_copied"), cp.bytes_copied);
  EXPECT_EQ(m.counter_value("pftool.files_failed"), cp.files_failed);
}

TEST_F(ObservabilityTest, HsmCountersMatchMigrateReportExactly) {
  make_scratch_tree(8, 40 * kMB);
  const pftool::JobReport cp = sys_.pfcp_archive("/runs", "/proj/run");
  ASSERT_EQ(cp.files_copied, 8u);
  const hsm::MigrateReport mig = migrate_all();
  ASSERT_GT(mig.files_migrated, 0u);
  const obs::MetricsRegistry& m = sys_.observer().metrics();
  // The combined parallel_migrate report is the sum of its batches, and
  // the counters accrue once per finished batch: exact equality.
  EXPECT_EQ(m.counter_value("hsm.migrated_files"), mig.files_migrated);
  EXPECT_EQ(m.counter_value("hsm.migrated_bytes"), mig.bytes);
  EXPECT_EQ(m.counter_value("hsm.migrate_failed_files"), mig.files_failed);
  EXPECT_EQ(m.counter_value("hsm.tape_objects_written"),
            mig.tape_objects_written);
  // Every migrated byte crossed a tape drive's write head.
  EXPECT_EQ(m.counter_value("tape.bytes_written"), mig.bytes);
}

TEST(ObservabilityBatched, MdBatchCountersAccrueAndSaveRoundTrips) {
  // A batched migrate must report its group commits: batches, ops
  // carried, and round-trips saved (ops minus batches).  Aggregation is
  // on so one migrate unit records several member objects plus the
  // container in a single group commit — a genuine multi-op batch.
  SystemConfig cfg = SystemConfig::small();
  cfg.hsm.server.md_batch_size = 16;
  cfg.hsm.aggregation_enabled = true;
  CotsParallelArchive sys(cfg);
  for (int i = 0; i < 6; ++i) {
    ASSERT_EQ(sys.make_file(sys.scratch(), "/runs/f" + std::to_string(i),
                            20 * kMB, 0xFEED + static_cast<std::uint64_t>(i)),
              pfs::Errc::Ok);
  }
  sys.pfcp_archive("/runs", "/proj/run");
  pfs::Rule rule;
  rule.name = "tape-candidates";
  rule.action = pfs::Rule::Action::List;
  rule.where = {pfs::Condition::path_glob("/proj/*"),
                pfs::Condition::dmapi_is(pfs::DmapiState::Resident)};
  sys.policy().add_rule(rule);
  bool done = false;
  sys.run_migration_cycle("tape-candidates", "proj",
                          [&](const hsm::MigrateReport&) { done = true; });
  sys.sim().run();
  ASSERT_TRUE(done);
  const obs::MetricsRegistry& m = sys.observer().metrics();
  const std::uint64_t batches = m.counter_value("hsm.md_batches");
  const std::uint64_t ops = m.counter_value("hsm.md_batch_ops");
  EXPECT_GT(batches, 0u);
  EXPECT_GT(ops, batches);  // at least one multi-op group commit
  EXPECT_EQ(m.counter_value("hsm.md_txn_saved"), ops - batches);
}

TEST(ObservabilityBatched, DefaultPlantCarriesEveryMutationThroughSession) {
  // At the default B=1 there is no second metadata path: every round-trip
  // the server serviced — migrate records, recall bookkeeping, both legs
  // of a synchronous delete — came through a TxnSession as a one-op batch.
  CotsParallelArchive sys(SystemConfig::small());
  for (int i = 0; i < 4; ++i) {
    ASSERT_EQ(sys.make_file(sys.archive_fs(), "/proj/f" + std::to_string(i),
                            10 * kMB, 0xBEEF + static_cast<std::uint64_t>(i)),
              pfs::Errc::Ok);
  }
  const std::vector<std::string> paths = {"/proj/f0", "/proj/f1", "/proj/f2",
                                          "/proj/f3"};
  sys.hsm().migrate_batch(0, paths, "proj", nullptr);
  sys.sim().run();
  unsigned recalled = 0;
  sys.hsm().recall({paths[0], paths[1]}, hsm::RecallOptions{},
                   [&](const hsm::RecallReport& r) { recalled = r.files_recalled; });
  sys.sim().run();
  ASSERT_EQ(recalled, 2u);
  sys.hsm().synchronous_delete(paths[3], nullptr);
  sys.sim().run();
  const obs::MetricsRegistry& m = sys.observer().metrics();
  const std::uint64_t batches = m.counter_value("hsm.md_batches");
  EXPECT_GE(batches, 4u + 2u + 2u);
  EXPECT_EQ(batches, m.counter_value("hsm.md_batch_ops"));
  EXPECT_EQ(batches, sys.hsm().server(0).txns_completed());
  EXPECT_EQ(m.find_counter("hsm.md_txn_saved"), nullptr);
}

TEST_F(ObservabilityTest, TracedRunCoversAllMajorSubsystems) {
  make_scratch_tree(6, 80 * kMB);
  const pftool::JobReport cp = sys_.pfcp_archive("/runs", "/proj/run");
  ASSERT_EQ(cp.files_failed, 0u);
  migrate_all();
  const pftool::JobReport rs = sys_.pfcp_restore("/proj/run", "/restage/run");
  EXPECT_EQ(rs.files_restored, 6u);

  const obs::TraceRecorder& tr = sys_.observer().trace();
  EXPECT_GT(tr.events_for(obs::Component::Net), 0u);
  EXPECT_GT(tr.events_for(obs::Component::Pfs), 0u);
  EXPECT_GT(tr.events_for(obs::Component::Hsm), 0u);
  EXPECT_GT(tr.events_for(obs::Component::Tape), 0u);
  EXPECT_GT(tr.events_for(obs::Component::Pftool), 0u);
  EXPECT_GE(tr.track_count(), 5u);

  const std::string json = tr.chrome_json();
  EXPECT_EQ(json.rfind("{\"traceEvents\":[", 0), 0u);
  EXPECT_NE(json.find("\"cat\":\"tape\""), std::string::npos);
  EXPECT_NE(json.find("\"cat\":\"pftool\""), std::string::npos);

  // Restores came back through the HSM recall path.
  const obs::MetricsRegistry& m = sys_.observer().metrics();
  EXPECT_GT(m.counter_value("hsm.recalled_files"), 0u);

  sys_.snapshot_net_metrics();
  EXPECT_NE(m.find_gauge("net.trunk_busy_seconds"), nullptr);
  EXPECT_GT(m.find_gauge("net.trunk_busy_seconds")->value(), 0.0);
}

TEST(ObservabilityDisabled, MetricsStillAccrueButNoEventsRecord) {
  CotsParallelArchive sys(SystemConfig::small());  // tracing defaults off
  ASSERT_EQ(sys.make_file(sys.scratch(), "/runs/f0", 10 * kMB, 1),
            pfs::Errc::Ok);
  const pftool::JobReport cp = sys.pfcp_archive("/runs", "/proj/run");
  ASSERT_EQ(cp.files_copied, 1u);
  EXPECT_EQ(sys.observer().trace().event_count(), 0u);
  EXPECT_EQ(sys.observer().metrics().counter_value("pftool.bytes_copied"),
            cp.bytes_copied);
  EXPECT_GT(sys.observer().metrics().counter_value("net.flows_completed"), 0u);
}

}  // namespace
}  // namespace cpa::archive
