// tape_lifecycle: the archive over time, on the default Roadrunner plant
// with the WAL on.
//
//   1. build kFiles mostly small files (long tail of large ones) in
//      archive_fs, kFilesPerDir per directory;
//   2. parallel_migrate all of them to tape;
//   3. an open loop of verified pfcp restores, one directory each, due
//      every kRestoreIntervalS of virtual time (restores overlap, the
//      backlog stays bounded);
//   4. trash kTrashDirs directories and purge them through the trashcan's
//      synchronous deletes;
//   5. reclaim_volumes, then a full scrub;
//   6. power_fail, then recover.
//
// Why: hsm, metadb, wal, tape and pfs resolve() carry this workload;
// FlowNetwork is a small share and there are no policy scans, so it is the
// control for changes aimed at fig10_campaign's layers (and the reverse).
// It also puts tape writes beside tape reads and deletes.
#include <algorithm>
#include <cstdio>
#include <memory>

#include "archive/system.hpp"
#include "sim_common.hpp"
#include "simcore/rng.hpp"
#include "simcore/stats.hpp"
#include "workload/tree.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace cpa;

constexpr unsigned kFiles = 30000;
constexpr unsigned kFilesPerDir = 10;
constexpr unsigned kDirs = kFiles / kFilesPerDir;
constexpr unsigned kRestores = 1200;
constexpr double kRestoreIntervalS = 600.0;
constexpr unsigned kTrashDirs = 600;
constexpr double kReclaimDeadFraction = 0.10;
constexpr unsigned kMoverNodes = 10;
const char* const kRoot = "/proj/lifecycle";

struct Inputs {
  workload::TreeSpec tree;
  std::vector<unsigned> restore_dirs;  // in request order
  std::vector<unsigned> trash_dirs;
};

/// Sizes: 99% log-normal around 4 MB (4 KB .. 512 MB), 1% uniform
/// 2 .. 20 GB.  Restore and trash directories are seeded samples.
Inputs make_inputs(std::uint64_t seed) {
  Inputs in;
  sim::Rng rng(seed ^ 0x7A9E11FEULL);
  sim::Rng size_rng = rng.split();
  in.tree.root = kRoot;
  in.tree.files_per_dir = kFilesPerDir;
  in.tree.tag_seed = seed ^ 0x5EEDULL;
  for (unsigned i = 0; i < kFiles; ++i) {
    std::uint64_t size = 0;
    if (size_rng.chance(0.01)) {
      size = size_rng.uniform_u64(2 * kGB, 20 * kGB);
    } else {
      size = static_cast<std::uint64_t>(
          size_rng.lognormal_mean(4.0 * static_cast<double>(kMB), 1.5));
      size = std::clamp<std::uint64_t>(size, 4 * kKB, 512 * kMB);
    }
    in.tree.file_sizes.push_back(size);
  }
  std::vector<unsigned> dirs(kDirs);
  for (unsigned d = 0; d < kDirs; ++d) dirs[d] = d;
  rng.shuffle(dirs);
  in.restore_dirs.assign(dirs.begin(), dirs.begin() + kRestores);
  rng.shuffle(dirs);
  in.trash_dirs.assign(dirs.begin(), dirs.begin() + kTrashDirs);
  return in;
}

std::string dir_path(unsigned d) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%s/d%04u", kRoot, d);
  return buf;
}

std::string restore_path(unsigned req) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "/restore/r%04u", req);
  return buf;
}

struct Restore {
  sim::Tick due = 0;
  double lateness_s = 0.0;  // submit time minus due time
  double latency_s = -1.0;  // due time to on_done
  pftool::JobReport report;
};

struct Iteration {
  double setup_s = 0.0;
  double host_s = 0.0;
  hsm::MigrateReport migrate;
  std::vector<Restore> restores;
  std::uint64_t restore_files = 0;      // files in the requested dirs
  std::uint64_t restored_wrong = 0;     // present on scratch, wrong tag
  std::uint64_t restore_missing = 0;    // requested, not on scratch
  std::uint64_t restore_failed = 0;     // reported failed by pftool
  std::uint64_t restore_aborted = 0;    // requests the stall watchdog ended
  bool restore_counts_ok = true;
  bool fixity_ok = true;
  std::uint64_t trashed = 0;
  std::uint64_t purged = 0;
  hsm::ReclaimReport reclaim;
  integrity::ScrubReport scrub;
  double recover_s = 0.0;
  archive::CotsParallelArchive::RecoveryReport recovery;
  std::uint64_t durable_checked = 0;
  std::uint64_t durable_lost = 0;
  std::string digest_text;
  TracedRun traced;  // traced iterations only
};

/// Calls fn(path, index) for every file of directory `dir` of the tree.
template <typename Fn>
void for_each_file_in(const Inputs& in, unsigned dir, Fn&& fn) {
  for (unsigned k = 0; k < kFilesPerDir; ++k) {
    const unsigned idx = dir * kFilesPerDir + k;
    fn(workload::tree_file_path(in.tree, idx), idx);
  }
}

Iteration run_once(const Inputs& in, std::uint64_t seed, bool traced,
                   const std::string& doctor, Ledger& ledger,
                   const std::string& scratch_trace) {
  Iteration it;
  const auto root = ledger.span("iteration");
  const Clock::time_point t_setup = Clock::now();
  std::unique_ptr<archive::CotsParallelArchive> sys;
  {
    const auto setup = ledger.span("setup");
    archive::SystemConfig cfg = archive::SystemConfig::roadrunner().with_wal();
    cfg.obs.tracing = traced;
    {
      const auto plant = ledger.span("archive.build_plant");
      sys = std::make_unique<archive::CotsParallelArchive>(cfg);
    }
    const auto span = ledger.span("workload.build_tree");
    workload::build_tree(sys->archive_fs(), in.tree);
  }
  const Clock::time_point t_run = Clock::now();
  it.setup_s = seconds_between(t_setup, t_run);
  sim::Simulation& simu = sys->sim();
  const auto run_sim = [&ledger, &simu] {
    const auto span = ledger.span("simcore.run");
    simu.run();
  };

  // 2. Migrate everything.
  {
    const auto span = ledger.span("hsm.migrate");
    std::vector<std::string> paths;
    for (unsigned i = 0; i < kFiles; ++i) {
      paths.push_back(workload::tree_file_path(in.tree, i));
    }
    std::vector<tape::NodeId> nodes;
    for (unsigned n = 0; n < kMoverNodes; ++n) nodes.push_back(n);
    sys->hsm().parallel_migrate(std::move(paths), std::move(nodes),
                                hsm::DistributionStrategy::SizeBalanced,
                                "lifecycle",
                                [&it](const hsm::MigrateReport& r) { it.migrate = r; });
    run_sim();
  }

  // 3. Open-loop restores, each timed from its due time.
  {
    const auto span = ledger.span("pftool.restore");
    it.restores.resize(in.restore_dirs.size());
    const sim::Tick t0 = simu.now();
    archive::CotsParallelArchive& s = *sys;
    for (std::size_t q = 0; q < in.restore_dirs.size(); ++q) {
      Restore& rq = it.restores[q];
      rq.due = t0 + sim::secs(kRestoreIntervalS) * q;
      const unsigned dir = in.restore_dirs[q];
      simu.at(rq.due, [&s, &rq, dir, q] {
        rq.lateness_s = sim::to_seconds(s.sim().now() - rq.due);
        archive::JobHandle h = s.submit(
            archive::JobSpec::pfcp_restore(dir_path(dir), restore_path(static_cast<unsigned>(q)))
                .with_verified());
        h.on_done([&s, &rq](const pftool::JobReport& r) {
          rq.report = r;
          rq.latency_s = sim::to_seconds(s.sim().now() - rq.due);
        });
      });
    }
    run_sim();
  }
  const auto restored_path = [](std::size_t q, unsigned idx) {
    char leaf[32];
    std::snprintf(leaf, sizeof(leaf), "f%06u", idx);
    return pfs::join_path(restore_path(static_cast<unsigned>(q)), leaf);
  };
  if (doctor == "drop_restored_file") {
    // Unlink the first restored file there is.
    bool dropped = false;
    for (std::size_t q = 0; q < it.restores.size() && !dropped; ++q) {
      for_each_file_in(in, in.restore_dirs[q], [&](const std::string&, unsigned idx) {
        dropped = dropped || sys->scratch().unlink(restored_path(q, idx)) == pfs::Errc::Ok;
      });
    }
  }
  // Restored content: every file present on scratch carries the tree's tag.
  for (std::size_t q = 0; q < it.restores.size(); ++q) {
    const Restore& rq = it.restores[q];
    std::uint64_t ok = 0;
    for_each_file_in(in, in.restore_dirs[q], [&](const std::string&, unsigned idx) {
      ++it.restore_files;
      const auto tag = sys->scratch().read_tag(restored_path(q, idx));
      if (!tag.ok()) return;
      if (tag.value() == workload::tree_file_tag(in.tree.tag_seed, idx)) {
        ++ok;
      } else {
        ++it.restored_wrong;
      }
    });
    const pftool::JobReport& r = rq.report;
    it.restore_counts_ok = it.restore_counts_ok && rq.latency_s >= 0.0 &&
                           ok == r.files_copied &&
                           r.files_copied + r.files_failed <= kFilesPerDir;
    it.restore_missing += kFilesPerDir - std::min<std::uint64_t>(kFilesPerDir, r.files_copied);
    it.restore_failed += r.files_failed;
    if (r.aborted_by_watchdog) ++it.restore_aborted;
    it.fixity_ok = it.fixity_ok && r.fixity_mismatches == 0 &&
                   r.files_unrepairable == 0 &&
                   r.fixity_verified >= r.files_restored;
  }

  // 4. Trashcan purge through synchronous deletes.
  {
    const auto span = ledger.span("hsm.delete");
    for (const unsigned d : in.trash_dirs) {
      for_each_file_in(in, d, [&](const std::string& path, unsigned) {
        if (sys->trashcan().trash(path) == pfs::Errc::Ok) ++it.trashed;
      });
    }
    sys->trashcan().purge_older_than(simu.now(),
                                     [&it](std::size_t n) { it.purged = n; });
    run_sim();
  }

  // 5. Reclaim, then a full scrub.
  {
    const auto span = ledger.span("hsm.reclaim");
    sys->hsm().reclaim_volumes(kReclaimDeadFraction, 0,
                               [&it](const hsm::ReclaimReport& r) { it.reclaim = r; });
    run_sim();
  }
  {
    const auto span = ledger.span("integrity.scrub");
    sys->hsm().scrub(integrity::ScrubConfig{},
                     [&it](const integrity::ScrubReport& r) { it.scrub = r; });
    run_sim();
  }

  // 6. Power failure and recovery.  Everything acknowledged before the
  // crash (the archive is quiescent) must survive it.
  struct Live {
    std::string path;
    std::uint64_t size;
    std::uint64_t tag;
    bool on_tape;
  };
  std::vector<Live> live;
  std::vector<bool> trashed_dir(kDirs, false);
  for (const unsigned d : in.trash_dirs) trashed_dir[d] = true;
  for (unsigned i = 0; i < kFiles; ++i) {
    if (trashed_dir[i / kFilesPerDir]) continue;
    const std::string path = workload::tree_file_path(in.tree, i);
    const auto st = sys->archive_fs().stat(path);
    if (!st.ok()) continue;
    const bool on_tape = st.value().dmapi != pfs::DmapiState::Resident;
    live.push_back({path, st.value().size, st.value().content_tag, on_tape});
  }
  {
    const auto span = ledger.span("wal.recover");
    const double t_fail = sim::to_seconds(simu.now());
    sys->power_fail(seed);
    sys->recover([&it, &simu, t_fail](const archive::CotsParallelArchive::RecoveryReport& r) {
      it.recovery = r;
      it.recover_s = sim::to_seconds(simu.now()) - t_fail;
    });
    run_sim();
  }
  it.host_s = seconds_between(t_run, Clock::now());
  for (const Live& l : live) {
    ++it.durable_checked;
    const auto st = sys->archive_fs().stat(l.path);
    const bool cataloged =
        !l.on_tape ||
        sys->hsm().server_for(l.path).export_db().by_path(l.path) != nullptr;
    if (!st.ok() || st.value().size != l.size ||
        st.value().content_tag != l.tag || !cataloged) {
      ++it.durable_lost;
    }
  }

  obs::MetricsRegistry& m = sys->observer().metrics();
  sys->snapshot_net_metrics();
  appendf(it.digest_text,
          "migrate files %u failed %u bytes %llu started %lld finished %lld\n",
          it.migrate.files_migrated, it.migrate.files_failed,
          static_cast<unsigned long long>(it.migrate.bytes),
          static_cast<long long>(it.migrate.started),
          static_cast<long long>(it.migrate.finished));
  for (std::size_t q = 0; q < it.restores.size(); ++q) {
    const Restore& rq = it.restores[q];
    appendf(it.digest_text, "restore %zu latency_s %a copied %llu failed %llu\n", q,
            rq.latency_s, static_cast<unsigned long long>(rq.report.files_copied),
            static_cast<unsigned long long>(rq.report.files_failed));
  }
  appendf(it.digest_text,
          "purged %llu/%llu reclaimed %u moved %u scrub %llu/%llu "
          "recover_s %a replayed %llu\n",
          static_cast<unsigned long long>(it.purged),
          static_cast<unsigned long long>(it.trashed), it.reclaim.volumes_reclaimed,
          it.reclaim.objects_moved,
          static_cast<unsigned long long>(it.scrub.segments_scanned),
          static_cast<unsigned long long>(it.scrub.unrepairable), it.recover_s,
          static_cast<unsigned long long>(it.recovery.wal.replayed_records));
  it.digest_text += m.summary();
  if (traced) {
    it.traced = measure_traced(sys->observer(), scratch_trace);
  }
  return it;
}

}  // namespace

Result run_tape_lifecycle(const Options& opts, Ledger& ledger) {
  const Inputs in = make_inputs(opts.seed);
  std::vector<Iteration> untraced, traced;
  const std::string scratch_trace = opts.out_dir + "/tape_lifecycle.trace.bin";
  repeat_for(opts.seconds, opts.trace, 1, [&](std::uint32_t i, bool t) {
    ledger.set_enabled(t);
    ledger.begin_run(i);
    Iteration it = run_once(in, opts.seed, t, opts.doctor, ledger, scratch_trace);
    if (t) {
      it.traced.run = i;
      it.traced.host_s = it.host_s;
    }
    (t ? traced : untraced).push_back(std::move(it));
  });

  Result r;
  const Iteration& it = untraced.front();
  // --- checks -------------------------------------------------------------
  r.check("tape.migrated_all", it.migrate.files_migrated + it.migrate.files_failed == kFiles,
          strf("%u migrated, %u failed", it.migrate.files_migrated,
               it.migrate.files_failed));
  r.check("tape.restores_completed_and_counted", it.restore_counts_ok,
          strf("%zu requests finished; per request, files with the tree's "
               "tag on scratch == files_copied <= %u - files_failed",
               it.restores.size(), kFilesPerDir));
  r.check("tape.restored_tags_match_tree", it.restored_wrong == 0,
          strf("%llu restored with a wrong tag",
               static_cast<unsigned long long>(it.restored_wrong)));
  r.check("tape.restores_fixity_verified", it.fixity_ok);
  r.check("tape.trash_purged", it.purged == it.trashed,
          strf("%llu/%llu", static_cast<unsigned long long>(it.purged),
               static_cast<unsigned long long>(it.trashed)));
  r.check("tape.scrub_clean", it.scrub.unrepairable == 0 && it.scrub.mismatches == 0 &&
                                  it.scrub.segments_scanned > 0,
          strf("%llu segments scanned",
               static_cast<unsigned long long>(it.scrub.segments_scanned)));
  r.check("tape.no_acked_object_lost_across_recover",
          it.durable_lost == 0 && it.recovery.reconcile.stub_violations == 0 &&
              it.durable_checked > 0,
          strf("%llu files checked, %llu lost",
               static_cast<unsigned long long>(it.durable_checked),
               static_cast<unsigned long long>(it.durable_lost)));
  bool deterministic = true;
  for (const Iteration& u : untraced) deterministic = deterministic && u.digest_text == it.digest_text;
  r.check("tape.repeat_iterations_identical", deterministic);
  if (!traced.empty()) {
    bool same = true, conserved = true;
    for (const Iteration& t : traced) {
      same = same && t.digest_text == it.digest_text;
      conserved = conserved && t.traced.conserved;
    }
    r.check("tape.tracing_leaves_virtual_results_unchanged", same);
    r.check("tape.profiler_conservation", conserved,
            strf("%zu profiled jobs", traced.back().traced.profiled_jobs));
  }

  // --- failures: files not migrated, not restored, not purged, or lost
  // to the scrub (restores cut short by the stall watchdog count too).
  r.attempted = kFiles + it.restore_files + it.trashed + it.scrub.segments_scanned;
  r.failed = it.migrate.files_failed + it.restore_missing +
             (it.trashed - std::min(it.trashed, it.purged)) + it.scrub.unrepairable;
  r.virtual_digest_text = it.digest_text;

  sim::Samples latency;
  double lateness = 0.0;
  for (const Restore& rq : it.restores) {
    latency.add(rq.latency_s);
    lateness = std::max(lateness, rq.lateness_s);
  }
  std::vector<double> setup, host;
  for (const Iteration& u : untraced) {
    setup.push_back(u.setup_s);
    host.push_back(u.host_s);
  }
  r.metric("setup_s", median(setup), "s", MetricClock::Host);
  r.metric("host_s", median(host), "s", MetricClock::Host);
  r.metric("peak_rss_mb", peak_rss_mb(), "MB", MetricClock::Host);
  r.metric("failed_ops", r.attempted ? static_cast<double>(r.failed) / static_cast<double>(r.attempted) : 0.0,
           "ratio", MetricClock::Count);
  r.metric("migrate_mbs", it.migrate.mean_rate_bps() / 1e6, "MB/s", MetricClock::Virtual);
  r.metric("restore_s_p50", latency.percentile(50.0), "s", MetricClock::Virtual);
  r.metric("restore_s_p99", latency.percentile(99.0), "s", MetricClock::Virtual);
  r.metric("recover_s", it.recover_s, "s", MetricClock::Virtual);
  r.note(strf("restores: %zu requests due every %.0f s (open loop), %llu files; "
              "latency from due time, generator lateness max %.3f s (virtual)",
              latency.count(), kRestoreIntervalS,
              static_cast<unsigned long long>(it.restore_files), lateness));
  r.note(strf("restore failures: %llu files reported failed by pftool with "
              "no faults armed (the known recall defect; tape.handoffs tracks "
              "it), %llu of %zu requests ended by the stall watchdog, %llu "
              "requested files not restored in all",
              static_cast<unsigned long long>(it.restore_failed),
              static_cast<unsigned long long>(it.restore_aborted),
              it.restores.size(),
              static_cast<unsigned long long>(it.restore_missing)));
  r.note(strf("migrated %u files (%.1f GB); purged %llu; reclaimed %u volumes; "
              "scrubbed %llu segments; recovery replayed %llu WAL records",
              it.migrate.files_migrated, static_cast<double>(it.migrate.bytes) / 1e9,
              static_cast<unsigned long long>(it.purged), it.reclaim.volumes_reclaimed,
              static_cast<unsigned long long>(it.scrub.segments_scanned),
              static_cast<unsigned long long>(it.recovery.wal.replayed_records)));
  std::string per_iter;
  for (const double h : host) appendf(per_iter, " %.3f", h);
  r.note(strf("iterations: %zu untraced, %zu traced; host_s per iteration:%s",
              untraced.size(), traced.size(), per_iter.c_str()));

  if (!traced.empty()) {
    std::vector<TracedRun> runs;
    for (const Iteration& t : traced) runs.push_back(t.traced);
    add_layer_metrics(r, ledger, runs, median(host),
                      {"pfs.policy_scan", "workload.build_tree", "hsm.migrate",
                       "pftool.restore", "hsm.delete", "hsm.reclaim",
                       "integrity.scrub", "wal.recover"});
  }
  return r;
}

}  // namespace perfbench
