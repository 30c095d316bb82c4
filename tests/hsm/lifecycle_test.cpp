// The HSM job lifecycle contract: every operation that can be caught by a
// power failure reports back exactly once, and the four tape jobs
// (migrate, recall, reclaim, scrub) close their books at the crash tick.
#include <gtest/gtest.h>

#include <optional>
#include <vector>

#include "hsm/hsm.hpp"
#include "obs/observer.hpp"
#include "simcore/units.hpp"

namespace cpa::hsm {
namespace {

pfs::FsConfig fs_config() {
  pfs::FsConfig cfg;
  cfg.pools = {pfs::PoolConfig{"fast", 100 * kGB, 4, false}};
  return cfg;
}

tape::LibraryConfig lib_config(unsigned drives) {
  tape::LibraryConfig cfg;
  cfg.drive_count = drives;
  cfg.cartridge_capacity = 800 * kGB;
  return cfg;
}

class LifecycleTest : public ::testing::Test {
 protected:
  explicit LifecycleTest(HsmConfig cfg = HsmConfig{}, unsigned drives = 4)
      : fs_(sim_, fs_config()),
        lib_(sim_, net_, lib_config(drives)),
        hsm_(sim_, net_, fs_, lib_, Fabric::unconstrained(), cfg) {
    obs_.set_tracing(true);
    hsm_.set_observer(obs_);
  }

  std::vector<std::string> make_files(const std::string& stem, int n,
                                      std::uint64_t size) {
    std::vector<std::string> paths;
    for (int i = 0; i < n; ++i) {
      const std::string p = "/arch/" + stem + std::to_string(i);
      EXPECT_EQ(fs_.mkdirs(pfs::parent_path(p)), pfs::Errc::Ok);
      EXPECT_TRUE(fs_.create(p).ok());
      EXPECT_EQ(fs_.write_all(p, size, 0x500 + static_cast<std::uint64_t>(i)),
                pfs::Errc::Ok);
      paths.push_back(p);
    }
    return paths;
  }

  /// Migrates `paths` and runs the plant to quiescence.
  void migrate(const std::vector<std::string>& paths) {
    hsm_.migrate_batch(0, paths, "g", nullptr);
    sim_.run();
  }

  /// The whole-archive power failure, in CotsParallelArchive's order.
  void crash() {
    hsm_.power_fail();
    lib_.power_fail();
  }

  /// Schedules crash() `delay` from now and returns its tick.
  sim::Tick crash_after(sim::Tick delay) {
    sim_.after(delay, [this] { crash(); });
    return sim_.now() + delay;
  }

  std::uint64_t counter(const std::string& name) const {
    return obs_.metrics().counter_value(name);
  }

  /// True when lane 0 of `group` is free, i.e. every span opened on it has
  /// been ended (an open span would push a new one to lane 1).
  bool lane_free(obs::Component comp, const std::string& group) {
    obs::TraceRecorder& tr = obs_.trace();
    const obs::SpanId probe = tr.begin_lane(comp, group, "probe", sim_.now());
    const bool free = *tr.view(probe.idx - 1).track == group + "#0";
    tr.end(probe, sim_.now());
    return free;
  }

  /// 0-based event indices of every span named `name`, in log order.
  std::vector<std::size_t> spans_named(const std::string& name) const {
    std::vector<std::size_t> out;
    for (std::size_t i = 0; i < obs_.trace().event_count(); ++i) {
      if (*obs_.trace().view(i).name == name) out.push_back(i);
    }
    return out;
  }

  sim::Simulation sim_;
  sim::FlowNetwork net_{sim_};
  pfs::FileSystem fs_;
  tape::TapeLibrary lib_;
  HsmSystem hsm_;
  obs::Observer obs_;
};

// --- the four tape jobs, each crashed mid-run -------------------------------

TEST_F(LifecycleTest, MigrateCrashedMidRunClosesAtTheCrashTick) {
  const auto paths = make_files("m", 4, kGB);
  std::vector<MigrateReport> calls;
  hsm_.migrate_batch(0, paths, "g",
                     [&](const MigrateReport& r) { calls.push_back(r); });
  const sim::Tick t_crash = crash_after(sim::secs(100));
  sim_.run();
  ASSERT_EQ(calls.size(), 1u);
  EXPECT_EQ(calls[0].started, 0);
  EXPECT_EQ(calls[0].finished, t_crash);
  EXPECT_LT(calls[0].files_migrated, 4u);
  EXPECT_EQ(counter("hsm.migrate_batches"), 1u);
  EXPECT_TRUE(lane_free(obs::Component::Hsm, "migrate"));
}

TEST_F(LifecycleTest, RecallCrashedMidRunClosesAtTheCrashTick) {
  const auto paths = make_files("r", 4, kGB);
  migrate(paths);
  const sim::Tick t0 = sim_.now();
  std::vector<RecallReport> calls;
  hsm_.recall(paths, RecallOptions{},
              [&](const RecallReport& r) { calls.push_back(r); });
  const sim::Tick t_crash = crash_after(sim::secs(15));
  sim_.run();
  ASSERT_EQ(calls.size(), 1u);
  EXPECT_EQ(calls[0].started, t0);
  EXPECT_EQ(calls[0].finished, t_crash);
  EXPECT_LT(calls[0].files_recalled, 4u);
  EXPECT_EQ(counter("hsm.recalls"), 1u);
  EXPECT_TRUE(lane_free(obs::Component::Hsm, "recall"));
}

TEST_F(LifecycleTest, ReclaimCrashedMidRunClosesAtTheCrashTick) {
  const auto paths = make_files("c", 20, 50 * kMB);
  migrate(paths);
  for (std::size_t i = 4; i < paths.size(); ++i) {
    hsm_.synchronous_delete(paths[i], nullptr);
  }
  sim_.run();
  const sim::Tick t0 = sim_.now();
  std::vector<ReclaimReport> calls;
  hsm_.reclaim_volumes(0.5, 0,
                       [&](const ReclaimReport& r) { calls.push_back(r); });
  const sim::Tick t_crash = crash_after(sim::secs(60));
  sim_.run();
  ASSERT_EQ(calls.size(), 1u);
  EXPECT_EQ(calls[0].started, t0);
  EXPECT_EQ(calls[0].finished, t_crash);
  EXPECT_EQ(calls[0].volumes_reclaimed, 0u);
  EXPECT_EQ(counter("hsm.reclaim_runs"), 1u);
  EXPECT_TRUE(lane_free(obs::Component::Hsm, "reclaim"));
}

TEST_F(LifecycleTest, ScrubCrashedMidRunClosesAtTheCrashTick) {
  const auto paths = make_files("s", 4, kGB);
  migrate(paths);
  const sim::Tick t0 = sim_.now();
  std::vector<integrity::ScrubReport> calls;
  hsm_.scrub(integrity::ScrubConfig{},
             [&](const integrity::ScrubReport& r) { calls.push_back(r); });
  const sim::Tick t_crash = crash_after(sim::secs(15));
  sim_.run();
  ASSERT_EQ(calls.size(), 1u);
  EXPECT_EQ(calls[0].started, t0);
  EXPECT_EQ(calls[0].finished, t_crash);
  EXPECT_LT(calls[0].segments_scanned, 4u);
  EXPECT_EQ(counter("integrity.scrub_runs"), 1u);
  EXPECT_TRUE(lane_free(obs::Component::Integrity, "scrub"));
}

// --- the two stateless operations -------------------------------------------

// HsmTest.PowerFailTearsSingletonRoundTripInService crashes the join leg;
// this crash lands in the second (cascade) round-trip.
TEST_F(LifecycleTest, SynchronousDeleteCrashedInCascadeAnswersStaleOnce) {
  const auto paths = make_files("d", 1, kMB);
  migrate(paths);
  const std::uint64_t txns0 = hsm_.server(0).txns_completed();
  std::vector<pfs::Errc> calls;
  hsm_.synchronous_delete(paths[0],
                          [&](pfs::Errc e) { calls.push_back(e); });
  crash_after(hsm_.config().server.metadata_txn_cost * 3 / 2);
  sim_.run();
  EXPECT_EQ(calls, std::vector<pfs::Errc>{pfs::Errc::Stale});
  EXPECT_EQ(hsm_.server(0).txns_completed(), txns0 + 1);  // the join only
  EXPECT_TRUE(fs_.exists(paths[0]));
}

struct PremigrateLifecycleTest : LifecycleTest {
  PremigrateLifecycleTest() : LifecycleTest(config()) {}
  static HsmConfig config() {
    HsmConfig cfg;
    cfg.punch_after_migrate = false;
    return cfg;
  }
};

TEST_F(PremigrateLifecycleTest, SpaceManagementCrashedBehindBarrierReportsOnce) {
  const auto paths = make_files("p", 3, 100 * kMB);
  migrate(paths);
  // A slow durability barrier holds the punch pass open across the crash.
  hsm_.set_durability_barrier([this](std::function<void()> k) {
    sim_.after(sim::msecs(5), std::move(k));
  });
  std::vector<SpaceManagementReport> calls;
  hsm_.space_management(
      "fast", 0.0, 0.0,
      [&](const SpaceManagementReport& r) { calls.push_back(r); });
  crash_after(sim::msecs(1));
  sim_.run();
  ASSERT_EQ(calls.size(), 1u);
  EXPECT_EQ(calls[0].files_punched, 0u);
  for (const auto& p : paths) {
    EXPECT_EQ(fs_.stat(p).value().dmapi, pfs::DmapiState::Premigrated);
  }
}

// --- empty input: done at the submit tick, finished == started --------------

TEST_F(LifecycleTest, EmptyJobsFinishAtTheirSubmitTick) {
  const sim::Tick t_submit = sim::secs(7);
  std::vector<std::pair<sim::Tick, MigrateReport>> migrates;
  std::vector<std::pair<sim::Tick, RecallReport>> recalls;
  std::vector<std::pair<sim::Tick, integrity::ScrubReport>> scrubs;
  sim_.after(t_submit, [&] {
    hsm_.migrate_batch(0, {}, "g", [&](const MigrateReport& r) {
      migrates.emplace_back(sim_.now(), r);
    });
    hsm_.recall({}, RecallOptions{}, [&](const RecallReport& r) {
      recalls.emplace_back(sim_.now(), r);
    });
    hsm_.scrub(integrity::ScrubConfig{}, [&](const integrity::ScrubReport& r) {
      scrubs.emplace_back(sim_.now(), r);
    });
  });
  sim_.run();
  ASSERT_EQ(migrates.size(), 1u);
  ASSERT_EQ(recalls.size(), 1u);
  ASSERT_EQ(scrubs.size(), 1u);
  EXPECT_EQ(migrates[0].first, t_submit);
  EXPECT_EQ(migrates[0].second.started, t_submit);
  EXPECT_EQ(migrates[0].second.finished, t_submit);
  EXPECT_EQ(recalls[0].first, t_submit);
  EXPECT_EQ(recalls[0].second.started, t_submit);
  EXPECT_EQ(recalls[0].second.finished, t_submit);
  EXPECT_EQ(scrubs[0].first, t_submit);
  EXPECT_EQ(scrubs[0].second.started, t_submit);
  EXPECT_EQ(scrubs[0].second.finished, t_submit);
  EXPECT_EQ(counter("hsm.migrate_batches"), 1u);
  EXPECT_EQ(counter("hsm.recalls"), 1u);
  EXPECT_EQ(counter("integrity.scrub_runs"), 1u);
  EXPECT_TRUE(lane_free(obs::Component::Hsm, "migrate"));
  EXPECT_TRUE(lane_free(obs::Component::Hsm, "recall"));
  EXPECT_TRUE(lane_free(obs::Component::Integrity, "scrub"));
}

// --- the migrate-launch drive grant honours the dead-job guard --------------

struct OneDriveLifecycleTest : LifecycleTest {
  OneDriveLifecycleTest() : LifecycleTest(HsmConfig{}, 1) {}
};

// The first batch's release schedules the drive grant to the queued second
// batch with after(0); the crash lands before that grant fires.  The dead
// second batch must not record a drive_wait under its already-closed span.
TEST_F(OneDriveLifecycleTest, GrantAfterCrashRecordsNothingUnderClosedBatch) {
  const auto a = make_files("a", 1, 100 * kMB);
  const auto b = make_files("b", 1, 100 * kMB);
  int first_done = 0;
  int second_done = 0;
  std::optional<std::size_t> closed_at;  // event count when batch 2 closed
  hsm_.migrate_batch(0, a, "g", [&](const MigrateReport&) {
    ++first_done;
    crash();
  });
  hsm_.migrate_batch(0, b, "g", [&](const MigrateReport&) {
    ++second_done;
    closed_at = obs_.trace().event_count();
  });
  sim_.run();
  EXPECT_EQ(first_done, 1);
  ASSERT_EQ(second_done, 1);
  const auto batches = spans_named("migrate_batch");
  ASSERT_EQ(batches.size(), 2u);
  for (const auto& [parent, child] : obs_.trace().edges()) {
    if (parent != batches[1]) continue;
    EXPECT_LT(child, *closed_at) << "span '" << *obs_.trace().view(child).name
                                 << "' linked under the closed batch";
  }
}

}  // namespace
}  // namespace cpa::hsm
