// fig10_campaign: the 62-job Open Science campaign on the Roadrunner plant.
//
// Why: it is the paper's headline workload, and FlowNetwork plus the pfs
// policy scans do most of its host work.  The WAL, recall and delete paths
// do none, so tape_lifecycle is its control.
//
// The campaign — jobs, files and each user's worker count — is always the
// one bench/campaign_runner.cpp builds at seed 2009, the repository's
// stand-in for the paper's unpublished trace.  Another generator seed
// changes the campaign's volume about twofold, and the worker counts shape
// the flow network; either would swamp a host-time comparison between
// seeds.  --seed drives the background trunk load (other users' traffic)
// instead.  Plant, generator, schedule and draw order are the runner's,
// rebuilt here so setup is timed apart from the run and each policy scan
// is timed; at --seed 2009 the run is that bench's default run, and the
// checks compare the two job by job.  Closed loop: each job is submitted
// at its generated time.
#include <algorithm>
#include <cmath>
#include <memory>

#include "archive/system.hpp"
#include "bench/campaign_runner.hpp"
#include "sim_common.hpp"
#include "simcore/rng.hpp"
#include "simcore/stats.hpp"
#include "workload/campaign.hpp"
#include "workload/tree.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace cpa;

constexpr double kGoodput = 0.75;
constexpr double kFileCountScale = 0.01;
constexpr std::uint64_t kCampaignSeed = 2009;

struct JobOutcome {
  unsigned job_id = 0;
  std::uint64_t materialized = 0;  // files build_tree created
  double rate_bps = 0.0;
  double elapsed_s = 0.0;
  std::uint64_t files_copied = 0;
  std::uint64_t files_failed = 0;
  bool succeeded = false;
};

struct Iteration {
  double setup_s = 0.0;
  double host_s = 0.0;
  std::vector<JobOutcome> jobs;
  std::vector<double> series_bps;  // pftool.job_rate_bps
  std::uint64_t migrate_attempted = 0;
  std::uint64_t migrate_failed = 0;
  std::string digest_text;
  TracedRun traced;  // traced iterations only
};

/// One busy interval of other site traffic on a trunk.
struct LoadPulse {
  unsigned trunk = 0;
  double at_hours = 0.0;
  double busy_hours = 0.0;
  double fraction = 0.0;  // of the trunk's capacity
};

/// "Machine sharing among multiple users": alternating busy/quiet
/// intervals on each trunk over the operation days, drawn as the campaign
/// runner draws them.
std::vector<LoadPulse> draw_background_load(sim::Rng& rng, unsigned trunks,
                                            double days) {
  std::vector<LoadPulse> pulses;
  for (unsigned t = 0; t < trunks; ++t) {
    double at_hours = rng.uniform(0.0, 2.0);
    while (at_hours < days * 24.0) {
      LoadPulse p{t, at_hours, rng.uniform(0.5, 4.0), 0.0};
      p.fraction = rng.uniform(0.15, 0.6);
      pulses.push_back(p);
      at_hours += p.busy_hours + rng.uniform(0.5, 4.0);
    }
  }
  return pulses;
}

void schedule_background_load(archive::CotsParallelArchive& sys,
                              const std::vector<LoadPulse>& pulses) {
  for (const LoadPulse& p : pulses) {
    const sim::PoolId trunk = sys.fta().trunk_for(p.trunk);
    const double rate = sys.net().pool_capacity(trunk) * p.fraction;
    const double bytes = rate * p.busy_hours * 3600.0;
    sys.sim().at(sim::hours(p.at_hours), [&sys, trunk, bytes, rate] {
      sys.net().start_flow({sim::PathLeg(trunk)}, bytes, nullptr, rate);
    });
  }
}

/// 4-hourly ILM list-policy cycles; each cycle's policy scan is timed.
/// The returned closure must outlive the run (queued events hold only
/// weak references to it).
std::shared_ptr<std::function<void()>> schedule_migration_cycles(
    archive::CotsParallelArchive& sys, double horizon_days, Ledger& ledger) {
  pfs::Rule rule;
  rule.name = "campaign-mig";
  rule.action = pfs::Rule::Action::List;
  rule.where = {pfs::Condition::path_glob("/proj/*"),
                pfs::Condition::dmapi_is(pfs::DmapiState::Resident),
                pfs::Condition::age_ge(1800)};
  sys.policy().add_rule(rule);

  auto cycle = std::make_shared<std::function<void()>>();
  const std::weak_ptr<std::function<void()>> weak = cycle;
  *cycle = [&sys, &ledger, weak, horizon_days] {
    if (sim::to_seconds(sys.sim().now()) > horizon_days * 86400.0) return;
    const auto span = ledger.span("pfs.policy_scan");
    sys.run_migration_cycle("campaign-mig", "opensci",
                            [&sys, weak](const hsm::MigrateReport&) {
                              sys.sim().after(sim::hours(4), [weak] {
                                if (const auto c = weak.lock()) (*c)();
                              });
                            });
  };
  sys.sim().at(sim::hours(2), [weak] {
    if (const auto c = weak.lock()) (*c)();
  });
  return cycle;
}

Iteration run_once(std::uint64_t seed, bool traced, Ledger& ledger,
                   const std::string& scratch_trace) {
  Iteration it;
  const Clock::time_point t_setup = Clock::now();
  const auto root = ledger.span("iteration");
  std::unique_ptr<archive::CotsParallelArchive> sys;
  std::vector<workload::JobSpec> specs;
  std::shared_ptr<std::function<void()>> migration_keeper;
  // The campaign runner draws the background load and then each user's
  // worker count from one stream seeded by the campaign seed.  Here the
  // background load comes from --seed, and the users' choices stay those
  // of the campaign's own stream (after its background draws), so at
  // --seed 2009 every draw matches the runner's.
  sim::Rng site_rng(seed ^ 0xBADCAFE);
  sim::Rng user_rng(kCampaignSeed ^ 0xBADCAFE);
  workload::CampaignConfig wl;
  {
    const auto setup = ledger.span("setup");
    wl.file_count_scale = kFileCountScale;
    wl.max_materialized_files = 4000;
    wl.preserve_total_bytes = true;
    wl.seed = kCampaignSeed;
    {
      const auto gen = ledger.span("workload.generate");
      specs = workload::CampaignGenerator(wl).generate();
    }
    archive::SystemConfig cfg = archive::SystemConfig::roadrunner();
    cfg.cluster.trunk_bps *= kGoodput;
    cfg.cluster.node_nic_bps *= kGoodput;
    cfg.obs.tracing = traced;
    {
      const auto plant = ledger.span("archive.build_plant");
      sys = std::make_unique<archive::CotsParallelArchive>(cfg);
    }
    const unsigned trunks = cfg.cluster.trunk_count;
    schedule_background_load(
        *sys, draw_background_load(site_rng, trunks, wl.operation_days));
    draw_background_load(user_rng, trunks, wl.operation_days);
    migration_keeper =
        schedule_migration_cycles(*sys, wl.operation_days + 2.0, ledger);
    it.jobs.resize(specs.size());
    for (std::size_t i = 0; i < specs.size(); ++i) {
      workload::TreeSpec tree;
      tree.root = "/scratch/job" + std::to_string(specs[i].job_id);
      tree.file_sizes = specs[i].file_sizes;
      tree.tag_seed = 0xC0FFEE + specs[i].job_id;
      const auto span = ledger.span("workload.build_tree");
      it.jobs[i].job_id = specs[i].job_id;
      it.jobs[i].materialized = workload::build_tree(sys->scratch(), tree).files;
    }
  }

  std::vector<archive::JobHandle> handles(specs.size());
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const workload::JobSpec& spec = specs[i];
    // Users' NumProcs choices, as in the campaign runner.
    static constexpr unsigned kWorkerChoices[] = {1, 2, 2, 3, 3, 4,
                                                  4, 6, 8, 12, 16};
    pftool::PftoolConfig job_cfg = sys->config().pftool;
    job_cfg.num_workers =
        kWorkerChoices[user_rng.uniform_u64(0, std::size(kWorkerChoices) - 1)];
    job_cfg.num_readdir = 2;
    job_cfg.num_tapeprocs = 0;
    job_cfg.per_stream_max_bps = 200.0 * static_cast<double>(kMB);
    // Each materialised file stands for the unscaled count's share of
    // create/open/close work.
    const double expansion = static_cast<double>(spec.file_count) /
                             static_cast<double>(spec.file_sizes.size());
    job_cfg.per_file_cost = static_cast<sim::Tick>(
        static_cast<double>(sim::msecs(4)) * std::max(1.0, expansion));
    archive::CotsParallelArchive& s = *sys;
    sys->sim().at(spec.submit_time, [&s, &it, &handles, i, job_cfg] {
      const unsigned id = it.jobs[i].job_id;
      archive::JobSpec js =
          archive::JobSpec::pfcp("/scratch/job" + std::to_string(id),
                                 "/proj/job" + std::to_string(id))
              .with_config(job_cfg);
      handles[i] = s.submit(std::move(js));
      handles[i].on_done([&it, i](const pftool::JobReport& r) {
        it.jobs[i].rate_bps = r.rate_bps();
        it.jobs[i].elapsed_s = r.elapsed_seconds();
        it.jobs[i].files_copied = r.files_copied;
        it.jobs[i].files_failed = r.files_failed;
      });
    });
  }
  const Clock::time_point t_run = Clock::now();
  it.setup_s = seconds_between(t_setup, t_run);
  {
    const auto run = ledger.span("simcore.run");
    sys->sim().run();
  }
  it.host_s = seconds_between(t_run, Clock::now());
  for (std::size_t i = 0; i < handles.size(); ++i) {
    it.jobs[i].succeeded = handles[i].state() == archive::JobState::Succeeded;
  }
  sys->reap_finished();

  sys->snapshot_net_metrics();
  obs::MetricsRegistry& m = sys->observer().metrics();
  if (const sim::Samples* s = m.find_series("pftool.job_rate_bps")) {
    it.series_bps = s->values();
  }
  it.migrate_attempted = m.counter_value("hsm.migrated_files") +
                         m.counter_value("hsm.migrate_failed_files");
  it.migrate_failed = m.counter_value("hsm.migrate_failed_files");
  for (const JobOutcome& j : it.jobs) {
    appendf(it.digest_text, "job %u rate_bps %a elapsed_s %a copied %llu failed %llu\n",
            j.job_id, j.rate_bps, j.elapsed_s,
            static_cast<unsigned long long>(j.files_copied),
            static_cast<unsigned long long>(j.files_failed));
  }
  it.digest_text += m.summary();
  if (traced) {
    it.traced = measure_traced(sys->observer(), scratch_trace);
  }
  return it;
}

}  // namespace

Result run_fig10_campaign(const Options& opts, Ledger& ledger) {
  std::vector<Iteration> untraced, traced;
  const std::string scratch_trace = opts.out_dir + "/fig10_campaign.trace.bin";
  repeat_for(opts.seconds, opts.trace, 1, [&](std::uint32_t i, bool t) {
    ledger.set_enabled(t);
    ledger.begin_run(i);
    Iteration it = run_once(opts.seed, t, ledger, scratch_trace);
    if (t) {
      it.traced.run = i;
      it.traced.host_s = it.host_s;
    }
    (t ? traced : untraced).push_back(std::move(it));
  });

  const double rss_mb = peak_rss_mb();  // before the reference run below
  Result r;
  const Iteration& first = untraced.front();
  std::vector<JobOutcome> jobs = first.jobs;
  const std::vector<double>& series = first.series_bps;
  if (opts.doctor == "perturb_job_rate" && !jobs.empty()) {
    jobs[0].rate_bps *= 1.0 + 1e-9;
  }

  // --- checks -------------------------------------------------------------
  bool all_done = jobs.size() == 62;
  bool counts_ok = true;
  std::uint64_t attempted = first.migrate_attempted;
  std::uint64_t failed = first.migrate_failed;
  for (const JobOutcome& j : jobs) {
    all_done = all_done && j.succeeded;
    counts_ok = counts_ok && j.files_copied == j.materialized;
    attempted += j.materialized;
    failed += j.files_failed + (j.materialized - std::min(j.materialized, j.files_copied + j.files_failed));
  }
  r.check("fig10.jobs_finished", all_done,
          strf("%zu jobs finished", jobs.size()));
  r.check("fig10.files_copied_equal_materialized", counts_ok);
  std::vector<double> report_rates;
  for (const JobOutcome& j : jobs) report_rates.push_back(j.rate_bps);
  std::vector<double> sorted_series = series;
  std::sort(report_rates.begin(), report_rates.end());
  std::sort(sorted_series.begin(), sorted_series.end());
  r.check("fig10.rate_series_equals_reports", report_rates == sorted_series,
          strf("%zu series samples vs %zu reports", sorted_series.size(),
               report_rates.size()));

  sim::Samples mbs;
  for (const JobOutcome& j : jobs) mbs.add(j.rate_bps / static_cast<double>(kMB));
  if (opts.seed == kCampaignSeed) {
    // At the campaign's own seed the run is exactly the Figure 10 bench's
    // default run: compare job by job against its campaign runner, and
    // against the figures it prints.
    const bench::CampaignResult ref =
        bench::run_campaign(kFileCountScale, kCampaignSeed);
    bool ref_ok = ref.jobs.size() == jobs.size();
    for (std::size_t i = 0; ref_ok && i < jobs.size(); ++i) {
      ref_ok = ref.jobs[i].spec.job_id == jobs[i].job_id &&
               ref.jobs[i].measured_rate_bps == jobs[i].rate_bps &&
               ref.jobs[i].elapsed_seconds == jobs[i].elapsed_s &&
               ref.jobs[i].files_copied == jobs[i].files_copied;
    }
    r.check("fig10.matches_bench_fig10_datarate_per_job", ref_ok);
    const auto tenth = [](double v) { return std::round(v * 10.0) / 10.0; };
    const bool pinned = tenth(mbs.mean()) == 751.7 &&
                        tenth(mbs.min()) == 120.4 && tenth(mbs.max()) == 1802.3;
    r.check("fig10.seed2009_mean_min_max", pinned,
            strf("mean %.1f min %.1f max %.1f MB/s", mbs.mean(), mbs.min(),
                 mbs.max()));
  }

  bool deterministic = true;
  for (const Iteration& it : untraced) {
    deterministic = deterministic && it.digest_text == first.digest_text;
  }
  r.check("fig10.repeat_iterations_identical", deterministic,
          strf("%zu untraced iterations", untraced.size()));
  if (!traced.empty()) {
    bool same = true;
    bool conserved = true;
    for (const Iteration& it : traced) {
      same = same && it.digest_text == first.digest_text;
      conserved = conserved && it.traced.conserved;
    }
    r.check("fig10.tracing_leaves_virtual_results_unchanged", same);
    r.check("fig10.profiler_conservation", conserved,
            strf("%zu profiled jobs", traced.back().traced.profiled_jobs));
  }

  // --- metrics ------------------------------------------------------------
  r.attempted = attempted;
  r.failed = failed;
  r.virtual_digest_text = first.digest_text;
  std::vector<double> setup, hosts;
  std::string per_iter;
  for (const Iteration& it : untraced) {
    setup.push_back(it.setup_s);
    hosts.push_back(it.host_s);
    appendf(per_iter, " %.3f", it.host_s);
  }
  const double host = median(hosts);
  r.metric("setup_s", median(setup), "s", MetricClock::Host);
  r.metric("host_s", host, "s", MetricClock::Host);
  r.metric("peak_rss_mb", rss_mb, "MB", MetricClock::Host);
  r.metric("failed_ops", attempted ? static_cast<double>(failed) / static_cast<double>(attempted) : 0.0,
           "ratio", MetricClock::Count);
  r.metric("job_rate_mbs_p50", mbs.percentile(50.0), "MB/s", MetricClock::Virtual);
  r.metric("job_rate_mbs_p20", mbs.percentile(20.0), "MB/s", MetricClock::Virtual);
  r.note(strf("job rates: n=%zu jobs, p20 has %zu samples below it; mean %.1f "
              "min %.1f max %.1f MB/s (virtual)",
              mbs.count(), static_cast<std::size_t>(std::floor(0.2 * static_cast<double>(mbs.count()))),
              mbs.mean(), mbs.min(), mbs.max()));
  r.note(strf("iterations: %zu untraced, %zu traced; host_s per iteration:%s",
              untraced.size(), traced.size(), per_iter.c_str()));

  if (!traced.empty()) {
    std::vector<TracedRun> runs;
    for (const Iteration& t : traced) runs.push_back(t.traced);
    add_layer_metrics(r, ledger, runs, host,
                      {"pfs.policy_scan", "workload.build_tree"});
  }
  return r;
}

}  // namespace perfbench
