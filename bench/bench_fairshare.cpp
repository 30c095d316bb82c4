// bench_fairshare: multi-tenant QoS isolation under a bulk recall storm.
//
// The paper's archive is a shared facility: one user's bulk restore
// campaign and another's interactive "give me that one checkpoint" hit
// the same FTA nodes, trunks, and tape drives.  This bench measures what
// the admission scheduler buys the interactive user.  Two identical
// plants run the identical workload — a batch tenant fires a storm of
// multi-file tape restores at t=0 while an analysis tenant submits small
// staggered single-directory restores — first with admission disabled
// (FIFO: every job launches immediately and drive queues serve in
// arrival order), then with the fair-share scheduler on (batch capped to
// drives-1 drives, a running-job quota that keeps one admission slot
// free, a PFS bandwidth shaper, and Interactive outranking Bulk at every
// drive grant).
//
// Headline: the ratio of interactive p99 latency FIFO/sched, gated at
// >= 5x (the ISSUE's isolation target).  The binary also enforces, and
// exits non-zero on violation:
//   - every job in both runs ends Succeeded (no rejects, no starvation),
//   - the scheduler run's max queue wait respects the aging starvation
//     bound (aging_bound + one service time per queued job),
//   - with tracing on, the profiler's conservation invariant holds and
//     the admission wait shows up in the AdmissionWait bucket.
//
// Output: a human table plus BENCH_fairshare.json (one record per mode
// plus a summary record), consumed by bench_regress in ci.sh.
// Flags: --smoke (smaller storm), --json=PATH.
#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "archive/system.hpp"
#include "bench/common.hpp"
#include "obs/profile.hpp"
#include "simcore/units.hpp"

namespace {

using namespace cpa;

// Bulk restores are deliberately transfer-dominated (one long cart run
// per job, ~640 s of streaming per 64 GB file): isolation then hinges on
// who *holds* the drives, which the scheduler controls, rather than on
// the single FIFO robot arm, which it cannot reorder.
struct Workload {
  unsigned bulk_jobs = 10;
  unsigned bulk_files_per_job = 1;
  std::uint64_t bulk_file_bytes = 128ULL * kGB;
  unsigned interactive_jobs = 12;
  std::uint64_t interactive_file_bytes = 64 * kMB;
  /// Past the storm's initial mount burst (the single robot arm serves
  /// FIFO; no scheduler can reorder it) but deep inside the ~1300 s cart
  /// runs, where drive possession is what decides interactive latency.
  sim::Tick first_interactive = sim::secs(450);
  sim::Tick stagger = sim::secs(120);

  static Workload smoke() {
    Workload w;
    w.bulk_jobs = 6;
    w.interactive_jobs = 6;
    return w;
  }
};

struct RunResult {
  std::vector<double> interactive_lat;  // submit -> done, virtual seconds
  std::vector<double> bulk_lat;
  double makespan_s = 0;
  double max_service_s = 0;     // longest launch -> finish of any job
  double max_queue_wait_s = 0;  // scheduler-observed (sched mode only)
  double aging_bound_s = 0;
  std::uint64_t rejected = 0;
  std::uint64_t drive_queue_jumps = 0;
  std::uint64_t not_succeeded = 0;
  bool conservation_ok = true;
  std::uint64_t admission_wait_ticks = 0;  // profiler AdmissionWait total
};

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const auto idx = static_cast<std::size_t>(
      std::ceil(p * static_cast<double>(v.size()))) - 1;
  return v[std::min(idx, v.size() - 1)];
}

/// The scheduler policy under test: batch is capped to drives-1 drives,
/// one global admission slot is kept free of batch jobs, and batch's PFS
/// share is shaped to half the trunks.
sched::SchedConfig sched_policy(unsigned drive_count) {
  return sched::SchedConfig{}
      .with_max_running_jobs(6)
      .with_max_queue(256)
      .with_aging_step(sim::minutes(2))
      .with_aging_max_boost(3)
      .with_tenant("batch", sched::TenantQuota{}
                                .with_weight(1.0)
                                .with_max_drives(drive_count - 1)
                                .with_max_running_jobs(3)
                                .with_pfs_bw_fraction(0.5))
      .with_tenant("ana", sched::TenantQuota{}.with_weight(4.0));
}

/// Runs the storm on a fresh plant.  `use_sched` toggles admission
/// control; everything else — files, groups, submit times — is identical.
RunResult run_mode(const Workload& w, bool use_sched) {
  archive::SystemConfig cfg = archive::SystemConfig::small();
  cfg.hsm.punch_after_migrate = true;  // restores must recall from tape
  // A bulk job at the back of the FIFO storm legitimately sees no first
  // byte for ~45 virtual minutes; that is the congestion under test, not
  // a stall the watchdog should abort.
  cfg.pftool.stall_timeout = sim::hours(2);
  if (use_sched) {
    cfg.with_sched(sched_policy(cfg.tape.drive_count));
    cfg.obs.tracing = true;  // conservation + AdmissionWait checks
  }
  archive::CotsParallelArchive sys(cfg);

  // Stage: bulk trees and interactive directories, migrated to tape with
  // per-job colocation groups so recalls can parallelize across drives.
  unsigned migrations = 0;
  for (unsigned j = 0; j < w.bulk_jobs; ++j) {
    std::vector<std::string> paths;
    for (unsigned f = 0; f < w.bulk_files_per_job; ++f) {
      const std::string p =
          "/proj/bulk/j" + std::to_string(j) + "/f" + std::to_string(f);
      sys.make_file(sys.archive_fs(), p, w.bulk_file_bytes, 0xB000 + j);
      paths.push_back(p);
    }
    sys.hsm().migrate_batch(0, paths, "bulk" + std::to_string(j),
                            [&](const hsm::MigrateReport&) { ++migrations; });
  }
  for (unsigned k = 0; k < w.interactive_jobs; ++k) {
    const std::string p = "/proj/ana/d" + std::to_string(k) + "/f";
    sys.make_file(sys.archive_fs(), p, w.interactive_file_bytes, 0xA000 + k);
    // One colocation group per interactive directory: the staggered
    // restores must not serialize on a shared cartridge, or the bench
    // would measure volume conflicts instead of scheduling.
    sys.hsm().migrate_batch(0, {p}, "ana" + std::to_string(k),
                            [&](const hsm::MigrateReport&) { ++migrations; });
  }
  sys.sim().run();
  if (migrations != w.bulk_jobs + w.interactive_jobs) {
    std::fprintf(stderr, "bench_fairshare: staging migration failed\n");
    std::exit(2);
  }

  // Storm.  The virtual clock is already past the staging phase; measure
  // latencies from each job's own submit tick.
  RunResult r;
  std::vector<archive::JobHandle> jobs;
  jobs.reserve(w.bulk_jobs + w.interactive_jobs);
  const sim::Tick t0 = sys.sim().now();
  const auto track = [&](archive::JobHandle h, std::vector<double>* lat) {
    const sim::Tick submitted = sys.sim().now();
    h.on_done([&sys, submitted, lat](const pftool::JobReport&) {
      lat->push_back(sim::to_seconds(sys.sim().now() - submitted));
    });
    jobs.push_back(std::move(h));
  };
  for (unsigned j = 0; j < w.bulk_jobs; ++j) {
    const std::string root = "/proj/bulk/j" + std::to_string(j);
    track(sys.submit(archive::JobSpec::pfcp_restore(root, "/restage" + root)
                         .with_tenant("batch")
                         .with_qos(sched::QosClass::Bulk)),
          &r.bulk_lat);
  }
  for (unsigned k = 0; k < w.interactive_jobs; ++k) {
    sys.sim().at(t0 + w.first_interactive + k * w.stagger, [&, k] {
      const std::string root = "/proj/ana/d" + std::to_string(k);
      track(sys.submit(archive::JobSpec::pfcp_restore(root, "/restage" + root)
                           .with_tenant("ana")
                           .with_qos(sched::QosClass::Interactive)),
            &r.interactive_lat);
    });
  }
  sys.sim().run();

  r.makespan_s = sim::to_seconds(sys.sim().now() - t0);
  for (const archive::JobHandle& h : jobs) {
    if (h.state() != archive::JobState::Succeeded) {
      ++r.not_succeeded;
      if (std::getenv("CPA_FAIRSHARE_DEBUG") != nullptr) {
        std::printf("DBG not-succeeded: %s %s (%s) failed=%" PRIu64 "\n",
                    h.report().command.c_str(), h.report().src_root.c_str(),
                    archive::to_string(h.state()), h.report().files_failed);
      }
    }
    r.max_service_s = std::max(
        r.max_service_s,
        sim::to_seconds(h.report().finished - h.report().started));
  }
  r.rejected = sys.observer().metrics().counter_value("sched.rejected");
  r.drive_queue_jumps =
      sys.observer().metrics().counter_value("sched.drive_queue_jumps");
  if (sched::AdmissionScheduler* s = sys.scheduler()) {
    r.max_queue_wait_s = sim::to_seconds(s->max_queue_wait());
    r.aging_bound_s = sim::to_seconds(s->aging_bound());
  }
  if (cfg.obs.tracing) {
    const obs::Profiler prof(sys.observer().trace());
    r.conservation_ok = prof.conservation_ok();
    for (const obs::JobProfile& jp : prof.jobs()) {
      r.conservation_ok = r.conservation_ok && jp.conserved();
      r.admission_wait_ticks +=
          jp.buckets[static_cast<std::size_t>(obs::Bucket::AdmissionWait)];
      if (std::getenv("CPA_FAIRSHARE_DEBUG") != nullptr) {
        std::printf("DBG %s wall=%.0fs:", jp.job_class.c_str(),
                    sim::to_seconds(jp.wall()));
        for (unsigned b = 0; b < obs::kBucketCount; ++b) {
          if (jp.buckets[b] > 0) {
            std::printf(" %s=%.0fs",
                        obs::to_string(static_cast<obs::Bucket>(b)),
                        sim::to_seconds(jp.buckets[b]));
          }
        }
        std::printf("\n");
      }
    }
  }
  return r;
}

void print_mode(const char* name, const RunResult& r) {
  std::printf("  %-5s | %11.1f | %11.1f | %11.1f | %11.1f | %8.0f\n", name,
              percentile(r.interactive_lat, 0.50),
              percentile(r.interactive_lat, 0.99),
              percentile(r.bulk_lat, 0.50), percentile(r.bulk_lat, 0.99),
              r.makespan_s);
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--smoke") smoke = true;
  }
  const Workload w = smoke ? Workload::smoke() : Workload{};

  bench::header("bench_fairshare",
                "multi-tenant QoS isolation: interactive p99 under a bulk "
                "recall storm");
  std::printf("  %u bulk restore jobs (tenant batch, Bulk) vs %u staggered "
              "interactive restores (tenant ana)\n",
              w.bulk_jobs, w.interactive_jobs);

  const RunResult fifo = run_mode(w, /*use_sched=*/false);
  const RunResult fair = run_mode(w, /*use_sched=*/true);

  bench::section("latency, virtual seconds (submit -> done)");
  std::printf("  mode  | inter. p50  | inter. p99  | bulk p50    | bulk p99  "
              "  | makespan\n");
  std::printf("  ------+-------------+-------------+-------------+-----------"
              "--+---------\n");
  print_mode("fifo", fifo);
  print_mode("sched", fair);

  const double p99_fifo = percentile(fifo.interactive_lat, 0.99);
  const double p99_fair = percentile(fair.interactive_lat, 0.99);
  const double ratio = p99_fair > 0 ? p99_fifo / p99_fair : 0;
  std::printf("\n  interactive p99 isolation: %.1fx (target >= 5x)\n", ratio);
  std::printf("  scheduler max queue wait %.0f s (aging bound %.0f s, drive "
              "queue jumps %" PRIu64 ")\n",
              fair.max_queue_wait_s, fair.aging_bound_s,
              fair.drive_queue_jumps);

  std::vector<std::string> failures;
  if (fifo.not_succeeded + fair.not_succeeded > 0) {
    failures.push_back(std::to_string(fifo.not_succeeded + fair.not_succeeded) +
                       " job(s) did not end Succeeded");
  }
  if (fair.rejected > 0) {
    failures.push_back("admission rejected " + std::to_string(fair.rejected) +
                       " job(s); the queue should absorb this storm");
  }
  if (ratio < 5.0) {
    failures.push_back("isolation ratio " + bench::fmt("%.2f", ratio) +
                       "x below the 5x target");
  }
  // Starvation bound: once a job's aging boost saturates it outranks any
  // fresh arrival, so its residual wait is at most one service time per
  // job that can still be ahead of it.
  const double wait_bound =
      fair.aging_bound_s +
      (w.bulk_jobs + w.interactive_jobs) * fair.max_service_s;
  if (fair.max_queue_wait_s > wait_bound) {
    failures.push_back("max queue wait " +
                       bench::fmt("%.0f", fair.max_queue_wait_s) +
                       " s exceeds the aging starvation bound " +
                       bench::fmt("%.0f", wait_bound) + " s");
  }
  if (!fair.conservation_ok) {
    failures.push_back("profiler conservation violated with the "
                       "admission-wait bucket in play");
  }
  if (fair.admission_wait_ticks == 0) {
    failures.push_back("no admission wait attributed: the AdmissionWait "
                       "bucket stayed empty under a storm");
  }

  // Every column is a job count or a virtual-time latency.
  bench::JsonTable table(
      "fairshare", "mode",
      {{"bulk_jobs", bench::Clock::Virtual, "%.0f"},
       {"interactive_jobs", bench::Clock::Virtual, "%.0f"},
       {"p50_s", bench::Clock::Virtual, "%.1f"},
       {"p99_s", bench::Clock::Virtual, "%.1f"},
       {"makespan_s", bench::Clock::Virtual, "%.1f"},
       {"max_queue_wait_s", bench::Clock::Virtual, "%.1f"},
       {"p99_ratio", bench::Clock::Virtual, "%.2f"},
       {"drive_queue_jumps", bench::Clock::Virtual, "%.0f"}});
  table.row("fifo", {{"bulk_jobs", w.bulk_jobs},
                     {"interactive_jobs", w.interactive_jobs},
                     {"p50_s", percentile(fifo.interactive_lat, 0.50)},
                     {"p99_s", p99_fifo},
                     {"makespan_s", fifo.makespan_s}});
  table.row("sched", {{"bulk_jobs", w.bulk_jobs},
                      {"interactive_jobs", w.interactive_jobs},
                      {"p50_s", percentile(fair.interactive_lat, 0.50)},
                      {"p99_s", p99_fair},
                      {"makespan_s", fair.makespan_s},
                      {"max_queue_wait_s", fair.max_queue_wait_s}});
  table.row("summary", {{"p99_ratio", ratio},
                        {"drive_queue_jumps", fair.drive_queue_jumps}});
  if (!table.write(argc, argv)) return 1;

  bench::section("paper vs measured");
  bench::compare("shared-facility interference", "minutes-long stalls",
                 bench::fmt("p99 %.0f s FIFO", p99_fifo));
  bench::compare("interactive isolation (sched)", ">= 5x",
                 bench::fmt("%.1fx", ratio));

  if (!failures.empty()) {
    for (const std::string& f : failures) {
      std::fprintf(stderr, "bench_fairshare: FAIL — %s\n", f.c_str());
    }
    return 1;
  }
  std::printf("  interactive tenant isolated; aging kept every bulk job "
              "inside the starvation bound\n");
  return 0;
}
