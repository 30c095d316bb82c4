#include "sim_common.hpp"

#include <sys/stat.h>

#include <cstdio>

namespace perfbench {
namespace {

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

std::vector<Metric> layer_counts(const cpa::obs::MetricsRegistry& m) {
  std::vector<Metric> out;
  const auto counter = [&m](const char* name) {
    return static_cast<double>(m.counter_value(name));
  };
  const auto count = [&](const char* metric, const char* registry_name) {
    out.push_back({metric, counter(registry_name), "count", MetricClock::Count});
  };
  count("simcore.events_fired", "sim.events_fired");
  count("simcore.events_cancelled", "sim.events.cancelled");
  count("simcore.flow.flows_started", "net.flows_started");
  count("simcore.flow.recompute_calls", "sim.flow.recompute_calls");
  out.push_back({"simcore.flow.resolves_per_flow",
                 ratio(counter("sim.flow.recompute_flows_touched"),
                       counter("net.flows_started")),
                 "ratio", MetricClock::Count});
  count("pfs.policy_scans", "pfs.policy_scans");
  count("pfs.policy_scanned_inodes", "pfs.policy_scanned_inodes");
  count("wal.records", "wal.records");
  count("wal.flushes", "wal.flushes");
  const cpa::sim::OnlineStats* batch = m.find_stats("wal.flush_batch_size");
  out.push_back({"wal.flush_batch_size", batch != nullptr ? batch->mean() : 0.0,
                 "ratio", MetricClock::Count});
  count("hsm.md_batches", "hsm.md_batches");
  count("hsm.md_txn_saved", "hsm.md_txn_saved");
  count("tape.mounts", "tape.mounts");
  count("tape.seeks", "tape.seeks");
  count("tape.read_txns", "tape.read_txns");
  count("tape.handoffs", "tape.handoffs");
  out.push_back({"tape.reads_per_mount",
                 ratio(counter("tape.read_txns"), counter("tape.mounts")),
                 "ratio", MetricClock::Count});
  count("tape.write_txns", "tape.write_txns");
  count("hsm.migrated_files", "hsm.migrated_files");
  count("fusefs.chunk_writes", "fuse.chunk_writes");
  count("wal.replay_records", "wal.replay_records");
  const cpa::obs::Gauge* rec = m.find_gauge("recovery.duration");
  out.push_back({"recovery.duration", rec != nullptr ? rec->value() : 0.0, "s",
                 MetricClock::Virtual});
  return out;
}

double count_of(const std::vector<Metric>& counts, const std::string& name) {
  for (const Metric& m : counts) {
    if (m.name == name) return m.value;
  }
  return 0.0;
}

}  // namespace

TracedRun measure_traced(cpa::obs::Observer& ob, const std::string& scratch_path) {
  TracedRun t;
  t.counts = layer_counts(ob.metrics());
  t.trace_events = static_cast<double>(ob.trace().event_count());
  Clock::time_point t0 = Clock::now();
  if (ob.trace().save(scratch_path)) {
    t.save_s = seconds_between(t0, Clock::now());
    struct stat st{};
    if (stat(scratch_path.c_str(), &st) == 0) {
      t.trace_mb = static_cast<double>(st.st_size) / 1e6;
    }
  }
  std::remove(scratch_path.c_str());
  t0 = Clock::now();
  const cpa::obs::Profiler prof(ob.trace());
  t.profile_s = seconds_between(t0, Clock::now());
  t.conserved = prof.conservation_ok();
  t.profiled_jobs = prof.jobs().size();
  for (const cpa::obs::JobProfile& jp : prof.jobs()) {
    for (unsigned b = 0; b < cpa::obs::kBucketCount; ++b) {
      t.bucket_s[b] += cpa::sim::to_seconds(jp.buckets[b]);
    }
  }
  return t;
}

void add_layer_metrics(Result& r, const Ledger& ledger,
                       const std::vector<TracedRun>& traced,
                       double untraced_host_s,
                       std::initializer_list<const char*> spans) {
  const auto median_of = [&traced](auto&& value) {
    std::vector<double> v;
    for (const TracedRun& t : traced) v.push_back(value(t));
    return median(v);
  };
  const TracedRun& last = traced.back();
  r.metrics.insert(r.metrics.end(), last.counts.begin(), last.counts.end());

  const double run_s = median_of(
      [&ledger](const TracedRun& t) { return ledger.self_s("simcore.run", t.run); });
  r.metric("simcore.run_s", run_s, "s", MetricClock::Host);
  r.metric("simcore.ns_per_event",
           ratio(run_s * 1e9, count_of(last.counts, "simcore.events_fired")), "ns",
           MetricClock::Host);
  for (const char* span : spans) {
    r.metric(std::string(span) + "_s", median_of([&ledger, span](const TracedRun& t) {
               return ledger.total_s(span, t.run);
             }),
             "s", MetricClock::Host);
  }
  const double scan_s = median_of(
      [&ledger](const TracedRun& t) { return ledger.total_s("pfs.policy_scan", t.run); });
  r.metric("pfs.scan_ns_per_inode",
           ratio(scan_s * 1e9, count_of(last.counts, "pfs.policy_scanned_inodes")),
           "ns", MetricClock::Host);

  r.metric("obs.trace_events", last.trace_events, "count", MetricClock::Count);
  r.metric("obs.trace_mb", last.trace_mb, "MB", MetricClock::Count);
  r.metric("obs.trace_save_s", median_of([](const TracedRun& t) { return t.save_s; }),
           "s", MetricClock::Host);
  r.metric("obs.profile_s", median_of([](const TracedRun& t) { return t.profile_s; }),
           "s", MetricClock::Host);
  r.metric("obs.tracing_overhead",
           ratio(median_of([](const TracedRun& t) { return t.host_s; }),
                 untraced_host_s),
           "ratio", MetricClock::Host);
  for (unsigned b = 0; b < cpa::obs::kBucketCount; ++b) {
    std::string name = cpa::obs::to_string(static_cast<cpa::obs::Bucket>(b));
    for (char& ch : name) {
      if (ch == ' ') ch = '_';
    }
    r.metric("prof." + name + "_s", last.bucket_s[b], "s", MetricClock::Virtual);
  }
}

}  // namespace perfbench
