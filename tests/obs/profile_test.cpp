// Unit tests for the causal critical-path profiler on hand-built DAGs
// with known answers.  The load-bearing invariant everywhere: the walk
// partitions each job's [started, finished] window exactly, so
// sum(buckets) == wall-clock no matter how children overlap.
#include "obs/profile.hpp"

#include <gtest/gtest.h>

#include "obs/trace.hpp"
#include "simcore/time.hpp"

namespace cpa::obs {
namespace {

sim::Tick bucket_of(const JobProfile& jp, Bucket b) {
  return jp.buckets[static_cast<std::size_t>(b)];
}

TEST(Bucket, ToStringCoversEveryEnumerator) {
  static const char* const kNames[] = {
      "pfs transfer",  "tape mount wait", "tape position", "tape transfer",
      "drive queue wait", "metadata",     "retry backoff", "scheduler idle",
      "admission wait", "wal commit"};
  static_assert(std::size(kNames) == kBucketCount);
  for (unsigned i = 0; i < kBucketCount; ++i) {
    EXPECT_STREQ(to_string(static_cast<Bucket>(i)), kNames[i]);
  }
}

TEST(Profiler, JobWithNoChildrenIsAllSchedulerIdle) {
  TraceRecorder tr;
  tr.set_enabled(true);
  const SpanId job = tr.begin_lane(Component::Pftool, "job", "pfcp", 0);
  tr.end(job, sim::secs(10));

  const Profiler prof(tr);
  ASSERT_EQ(prof.jobs().size(), 1u);
  const JobProfile& jp = prof.jobs()[0];
  EXPECT_EQ(jp.job_class, "pfcp");
  EXPECT_EQ(jp.wall(), sim::secs(10));
  EXPECT_EQ(bucket_of(jp, Bucket::SchedulerIdle), sim::secs(10));
  EXPECT_TRUE(jp.conserved());
  EXPECT_TRUE(prof.conservation_ok());
  ASSERT_EQ(jp.path.segments.size(), 1u);
  EXPECT_EQ(jp.path.total(), jp.wall());
}

// The canonical tape-bound recall: every bucket exercised, exact values.
//
//   job [0,100]
//   └─ chunk [10,90]
//      └─ recall [15,80]
//         ├─ drive_wait [15,30]   ├─ mount_wait [30,40]
//         ├─ read [40,75]  (tape) │  ├─ position [40,45]
//         │                      │  └─ flow "transfer" [45,75]
//         └─ md_batch [75,80]
TEST(Profiler, TapeBoundRecallDecomposesExactly) {
  TraceRecorder tr;
  tr.set_enabled(true);
  const SpanId job = tr.begin_lane(Component::Pftool, "job", "pfcp", 0);
  const SpanId chunk = tr.complete(Component::Pftool, "chunk", "chunk",
                                   sim::secs(10), sim::secs(90));
  tr.link(job, chunk);
  const SpanId recall = tr.complete(Component::Hsm, "recall", "recall",
                                    sim::secs(15), sim::secs(80));
  tr.link(chunk, recall);
  tr.link(recall, tr.complete(Component::Tape, "drive_wait", "drive_wait",
                              sim::secs(15), sim::secs(30)));
  tr.link(recall, tr.complete(Component::Tape, "mount_wait", "mount_wait",
                              sim::secs(30), sim::secs(40)));
  const SpanId read = tr.complete(Component::Tape, "d0", "read", sim::secs(40),
                                  sim::secs(75));
  tr.link(recall, read);
  tr.link(read, tr.complete(Component::Tape, "d0", "position", sim::secs(40),
                            sim::secs(45)));
  tr.link(read, tr.complete(Component::Net, "flow#0", "transfer",
                            sim::secs(45), sim::secs(75)));
  tr.link(recall, tr.complete(Component::Hsm, "md_batch", "md_batch",
                              sim::secs(75), sim::secs(80)));
  tr.end(job, sim::secs(100));

  const Profiler prof(tr);
  ASSERT_EQ(prof.jobs().size(), 1u);
  const JobProfile& jp = prof.jobs()[0];
  EXPECT_TRUE(jp.conserved());
  EXPECT_EQ(bucket_of(jp, Bucket::DriveQueueWait), sim::secs(15));
  EXPECT_EQ(bucket_of(jp, Bucket::TapeMountWait), sim::secs(10));
  EXPECT_EQ(bucket_of(jp, Bucket::TapePosition), sim::secs(5));
  // The flow under the tape read is drive streaming, not PFS transfer.
  EXPECT_EQ(bucket_of(jp, Bucket::TapeTransfer), sim::secs(30));
  EXPECT_EQ(bucket_of(jp, Bucket::PfsTransfer), sim::secs(0));
  // chunk self [10,15]+[80,90] plus md_batch [75,80].
  EXPECT_EQ(bucket_of(jp, Bucket::Metadata), sim::secs(20));
  // job self [0,10]+[90,100].
  EXPECT_EQ(bucket_of(jp, Bucket::SchedulerIdle), sim::secs(20));
  EXPECT_EQ(jp.bucket_sum(), sim::secs(100));

  // The critical path names the tape mechanics spans.
  bool saw_mount = false;
  bool saw_position = false;
  bool saw_transfer = false;
  for (const PathSegment& seg : jp.path.segments) {
    const TraceRecorder::SpanView v = tr.view(seg.span);
    if (*v.name == "mount_wait") saw_mount = true;
    if (*v.name == "position") saw_position = true;
    if (seg.bucket == Bucket::TapeTransfer) saw_transfer = true;
  }
  EXPECT_TRUE(saw_mount);
  EXPECT_TRUE(saw_position);
  EXPECT_TRUE(saw_transfer);
}

TEST(Profiler, FlowOutsideTapePathIsPfsTransfer) {
  TraceRecorder tr;
  tr.set_enabled(true);
  const SpanId job = tr.begin_lane(Component::Pftool, "job", "pfcp", 0);
  const SpanId chunk = tr.complete(Component::Pftool, "chunk", "chunk",
                                   sim::secs(1), sim::secs(9));
  tr.link(job, chunk);
  tr.link(chunk, tr.complete(Component::Net, "flow#0", "transfer",
                             sim::secs(2), sim::secs(8)));
  tr.end(job, sim::secs(10));

  const Profiler prof(tr);
  ASSERT_EQ(prof.jobs().size(), 1u);
  const JobProfile& jp = prof.jobs()[0];
  EXPECT_TRUE(jp.conserved());
  EXPECT_EQ(bucket_of(jp, Bucket::PfsTransfer), sim::secs(6));
  EXPECT_EQ(bucket_of(jp, Bucket::TapeTransfer), sim::secs(0));
  EXPECT_EQ(bucket_of(jp, Bucket::Metadata), sim::secs(2));
  EXPECT_EQ(bucket_of(jp, Bucket::SchedulerIdle), sim::secs(2));
}

TEST(Profiler, RetryBackoffSpansAttributeToTheirBucket) {
  TraceRecorder tr;
  tr.set_enabled(true);
  const SpanId job = tr.begin_lane(Component::Pftool, "job", "pfcp", 0);
  tr.link(job, tr.complete(Component::Pftool, "retry", "retry_backoff",
                           sim::secs(2), sim::secs(5)));
  tr.end(job, sim::secs(10));

  const Profiler prof(tr);
  ASSERT_EQ(prof.jobs().size(), 1u);
  const JobProfile& jp = prof.jobs()[0];
  EXPECT_TRUE(jp.conserved());
  EXPECT_EQ(bucket_of(jp, Bucket::RetryBackoff), sim::secs(3));
  EXPECT_EQ(bucket_of(jp, Bucket::SchedulerIdle), sim::secs(7));
}

// Two children whose windows overlap: the latest-ending child owns the
// overlap (it is the binding constraint at those instants) and the
// partition stays exact.
TEST(Profiler, OverlappingChildrenStillPartitionExactly) {
  TraceRecorder tr;
  tr.set_enabled(true);
  const SpanId job = tr.begin_lane(Component::Pftool, "job", "pfcp", 0);
  const SpanId a = tr.complete(Component::Net, "flow#0", "transfer",
                               sim::secs(10), sim::secs(60));
  tr.link(job, a);
  const SpanId b = tr.complete(Component::Net, "flow#1", "transfer",
                               sim::secs(40), sim::secs(90));
  tr.link(job, b);
  tr.end(job, sim::secs(100));

  const Profiler prof(tr);
  ASSERT_EQ(prof.jobs().size(), 1u);
  const JobProfile& jp = prof.jobs()[0];
  EXPECT_TRUE(jp.conserved());
  // b owns [40,90], a is clipped to [10,40], job self [0,10]+[90,100].
  EXPECT_EQ(bucket_of(jp, Bucket::PfsTransfer), sim::secs(80));
  EXPECT_EQ(bucket_of(jp, Bucket::SchedulerIdle), sim::secs(20));
  // Segments are an ascending gap-free cover of [0, 100].
  sim::Tick cursor = 0;
  for (const PathSegment& seg : jp.path.segments) {
    EXPECT_EQ(seg.begin, cursor);
    EXPECT_LT(seg.begin, seg.end);
    cursor = seg.end;
  }
  EXPECT_EQ(cursor, sim::secs(100));
}

TEST(Profiler, ChildrenOutsideTheParentWindowAreClipped) {
  TraceRecorder tr;
  tr.set_enabled(true);
  const SpanId job = tr.begin_lane(Component::Pftool, "job", "pfcp",
                                   sim::secs(10));
  // A recall armed before the job started and finishing after the window
  // we attribute to this job ends: only the in-window part counts.
  const SpanId r = tr.complete(Component::Hsm, "recall", "recall",
                               sim::secs(0), sim::secs(50));
  tr.link(job, r);
  tr.end(job, sim::secs(30));

  const Profiler prof(tr);
  ASSERT_EQ(prof.jobs().size(), 1u);
  const JobProfile& jp = prof.jobs()[0];
  EXPECT_EQ(jp.wall(), sim::secs(20));
  EXPECT_TRUE(jp.conserved());
  EXPECT_EQ(bucket_of(jp, Bucket::Metadata), sim::secs(20));  // recall self
}

TEST(Profiler, UnfinishedOrEmptyJobsAreSkipped) {
  TraceRecorder tr;
  tr.set_enabled(true);
  tr.begin_lane(Component::Pftool, "job", "pfcp", sim::secs(5));  // never ends
  const Profiler prof(tr);
  // The open span resolves to end == max_tick == begin: zero wall-clock,
  // nothing to attribute, no division by zero.
  EXPECT_TRUE(prof.conservation_ok());
  EXPECT_EQ(prof.violations(), 0u);
}

TEST(Profiler, ReportListsClassesPercentilesAndTopSpans) {
  TraceRecorder tr;
  tr.set_enabled(true);
  for (int i = 0; i < 3; ++i) {
    const SpanId job =
        tr.begin_lane(Component::Pftool, "job", "pfcp", sim::secs(100 * i));
    const SpanId flow =
        tr.complete(Component::Net, "flow#0", "transfer",
                    sim::secs(100 * i + 1), sim::secs(100 * i + 9));
    tr.link(job, flow);
    tr.end(job, sim::secs(100 * i + 10));
  }
  const Profiler prof(tr);
  ASSERT_EQ(prof.jobs().size(), 3u);
  const std::string rep = prof.report(2);
  EXPECT_NE(rep.find("class pfcp"), std::string::npos);
  EXPECT_NE(rep.find("(n=3)"), std::string::npos);
  EXPECT_NE(rep.find("p50="), std::string::npos);
  EXPECT_NE(rep.find("p95="), std::string::npos);
  EXPECT_NE(rep.find("p99="), std::string::npos);
  EXPECT_NE(rep.find("pfs transfer"), std::string::npos);
  EXPECT_NE(rep.find("net/transfer"), std::string::npos);
  EXPECT_NE(rep.find("conservation: OK"), std::string::npos);
}

TEST(Profiler, DeepLinkChainsTerminate) {
  TraceRecorder tr;
  tr.set_enabled(true);
  const SpanId job = tr.begin_lane(Component::Pftool, "job", "pfcp", 0);
  SpanId prev = job;
  // 200 nested spans: deeper than kMaxDepth, must not blow the stack and
  // must still conserve (the clipped tail attributes to shallower spans).
  for (int i = 1; i <= 200; ++i) {
    const SpanId s = tr.complete(Component::Hsm, "nest", "md_batch",
                                 sim::secs(i), sim::secs(400 - i));
    tr.link(prev, s);
    prev = s;
  }
  tr.end(job, sim::secs(400));
  const Profiler prof(tr);
  ASSERT_EQ(prof.jobs().size(), 1u);
  EXPECT_TRUE(prof.jobs()[0].conserved());
}

}  // namespace
}  // namespace cpa::obs
