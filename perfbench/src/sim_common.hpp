// Pieces both simulated workloads share: per-layer work counts read from
// the program's metrics registry, per-layer host times read from the
// ledger, and what the program's own tracing costs.
#pragma once

#include <array>
#include <initializer_list>
#include <string>
#include <vector>

#include "ledger.hpp"
#include "obs/observer.hpp"
#include "obs/profile.hpp"

namespace perfbench {

/// What one traced iteration of a simulated workload leaves behind.
struct TracedRun {
  std::uint32_t run = 0;  // the ledger's iteration index
  double host_s = 0.0;
  /// Per-layer work counts (simcore, flow, pfs scans, wal, hsm metadata
  /// batching, tape, fusefs, recovery) from the metrics registry.
  std::vector<Metric> counts;
  double trace_events = 0;
  double trace_mb = 0;   // binary TraceRecorder::save() size
  double save_s = 0;     // host time of that save
  double profile_s = 0;  // host time of the critical-path profiler
  std::array<double, cpa::obs::kBucketCount> bucket_s{};  // summed over jobs
  std::size_t profiled_jobs = 0;
  bool conserved = true;
};

/// Reads the counts of a finished traced iteration from `ob`, saves its
/// trace to `scratch_path` (then deletes it) and runs the profiler over
/// it, timing both.
[[nodiscard]] TracedRun measure_traced(cpa::obs::Observer& ob,
                                       const std::string& scratch_path);

/// Adds every per-layer metric of the traced iterations to `r`: the last
/// one's counts and profiler buckets; medians of the host time in each of
/// `spans` (as "<span>_s"), in sim().run() minus the timed callbacks, and
/// in trace save and profiling; per-event and per-inode costs; and the
/// tracing overhead against `untraced_host_s`.
void add_layer_metrics(Result& r, const Ledger& ledger,
                       const std::vector<TracedRun>& traced,
                       double untraced_host_s,
                       std::initializer_list<const char*> spans);

}  // namespace perfbench
