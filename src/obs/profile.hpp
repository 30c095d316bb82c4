// Causal critical-path profiler over a recorded trace.
//
// The paper's central question — why does the COTS archive deliver less
// than raw hardware bandwidth (Sec 5) — is an *attribution* question:
// which part of each job's wall-clock went to PFS transfer, tape mount
// wait, tape positioning, drive queueing, metadata, retry backoff?  The
// profiler answers it from the span DAG the subsystems record via
// TraceRecorder::link():
//
//   job (pftool) -> chunk -> flow            (pfs transfer path)
//   job -> recall -> drive_wait / mount_wait (queueing on the plant)
//                 -> read -> position / flow (tape mechanics + transfer)
//                 -> md_batch                (HSM metadata round-trips)
//   job -> retry_backoff                     (fault handling)
//
// For each job root the profiler walks the DAG *backwards*: at every
// instant of [start, finish] the critical path holds the latest-ending
// causal descendant active at that instant.  The walk partitions the job
// window exactly — every tick lands in exactly one PathSegment — so the
// bucket decomposition obeys `sum(buckets) == wall-clock` by construction,
// and the invariant doubles as a self-check that the instrumentation
// didn't drop or double-count a handoff.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "obs/trace.hpp"
#include "simcore/time.hpp"

namespace cpa::obs {

/// Exclusive attribution buckets: each tick of a job's wall-clock lands in
/// exactly one.
enum class Bucket : std::uint8_t {
  PfsTransfer,     // network flows outside the tape path (PanFS/NFS/SAN)
  TapeMountWait,   // robot + mount/unmount/handoff + volume conflicts
  TapePosition,    // seek, locate, backhitch repositioning
  TapeTransfer,    // streaming to/from the drive head
  DriveQueueWait,  // waiting for a free drive (library FIFO + op queue)
  Metadata,        // readdir/stat, HSM db transactions, chunk bookkeeping
  RetryBackoff,    // fault-retry delay windows
  SchedulerIdle,   // job-root self time: queueing/dispatch gaps
  AdmissionWait,   // queued behind the fair-share admission scheduler
  WalCommit,       // group-commit fsync barriers and checkpoint installs
};
inline constexpr unsigned kBucketCount = 10;

[[nodiscard]] const char* to_string(Bucket b);

/// One stretch of a job's critical path: span `span` (event index) was the
/// deepest active cause during [begin, end).
struct PathSegment {
  std::uint32_t span = 0;
  sim::Tick begin = 0;
  sim::Tick end = 0;
  Bucket bucket = Bucket::Metadata;
};

/// The longest causal chain through one job, as an exact partition of the
/// job's [started, finished] window (ascending, gap-free).
struct CriticalPath {
  std::vector<PathSegment> segments;
  [[nodiscard]] sim::Tick total() const;
};

struct JobProfile {
  std::uint32_t root = 0;  // event index of the job's root span
  std::string job_class;   // root span name: "pfcp", "pfls", ...
  sim::Tick started = 0;
  sim::Tick finished = 0;
  std::array<sim::Tick, kBucketCount> buckets{};
  CriticalPath path;

  [[nodiscard]] sim::Tick wall() const { return finished - started; }
  [[nodiscard]] sim::Tick bucket_sum() const;
  /// The tentpole invariant: the bucket decomposition loses nothing.
  [[nodiscard]] bool conserved() const { return bucket_sum() == wall(); }
};

/// Extracts per-job critical paths and bucket attribution from a trace.
/// Job roots are the pftool job-lane spans ("job#<n>" tracks).
class Profiler {
 public:
  explicit Profiler(const TraceRecorder& trace);

  [[nodiscard]] const std::vector<JobProfile>& jobs() const { return jobs_; }
  [[nodiscard]] bool conservation_ok() const;
  [[nodiscard]] std::size_t violations() const;

  /// Human-readable report: per-class attribution table, exact latency
  /// percentiles (p50/p95/p99/max over retained per-job samples), and the
  /// top-k critical-path spans by exclusive time.
  [[nodiscard]] std::string report(std::size_t top_k = 10) const;

 private:
  void walk(JobProfile& jp, std::uint32_t s, sim::Tick lo, sim::Tick hi,
            bool in_tape, int depth);
  [[nodiscard]] Bucket classify_self(const TraceRecorder::SpanView& v,
                                     bool is_root, bool in_tape) const;

  const TraceRecorder& trace_;
  std::vector<std::vector<std::uint32_t>> children_;  // per event, by end desc
  std::vector<JobProfile> jobs_;
};

}  // namespace cpa::obs
