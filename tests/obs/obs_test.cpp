#include "obs/trace.hpp"

#include <gtest/gtest.h>

#include "obs/metrics.hpp"
#include "obs/observer.hpp"
#include "simcore/time.hpp"

namespace cpa::obs {
namespace {

/// Checks one recorded span: its resolved interval, row and name.
void expect_span(const TraceRecorder::SpanView& v, sim::Tick begin,
                 sim::Tick end, Component comp, const std::string& track,
                 const std::string& name) {
  EXPECT_EQ(v.begin, begin);
  EXPECT_EQ(v.end, end);
  EXPECT_EQ(v.comp, comp);
  EXPECT_EQ(v.phase, 'X');
  EXPECT_EQ(*v.track, track);
  EXPECT_EQ(*v.name, name);
}

TEST(TraceRecorder, DisabledRecordsNothing) {
  TraceRecorder tr;
  const SpanId id = tr.begin(Component::Tape, "drive0", "mount", sim::secs(1));
  EXPECT_FALSE(id.valid());
  tr.arg(id, "k", "v");   // must be a safe no-op on an invalid handle
  tr.end(id, sim::secs(2));
  tr.instant(Component::Sim, "t", "i", sim::secs(1));
  tr.complete(Component::Hsm, "t", "c", sim::secs(1), sim::secs(2));
  EXPECT_EQ(tr.event_count(), 0u);
  EXPECT_EQ(tr.track_count(), 0u);
}

TEST(TraceRecorder, SpansNestAndOrderOnVirtualTime) {
  TraceRecorder tr;
  tr.set_enabled(true);
  // Properly nested spans on one fixed track, out-of-order ends.
  const SpanId outer = tr.begin(Component::Hsm, "migrate", "batch", sim::secs(1));
  const SpanId inner = tr.begin(Component::Hsm, "migrate", "unit", sim::secs(2));
  tr.end(inner, sim::secs(3));
  tr.end(outer, sim::secs(5));
  EXPECT_EQ(tr.event_count(), 2u);
  EXPECT_EQ(tr.track_count(), 1u);
  EXPECT_EQ(tr.events_for(Component::Hsm), 2u);
  // Views preserve recording order and closed-span durations.
  expect_span(tr.view(0), sim::secs(1), sim::secs(5), Component::Hsm,
              "migrate", "batch");
  expect_span(tr.view(1), sim::secs(2), sim::secs(3), Component::Hsm,
              "migrate", "unit");
}

TEST(TraceRecorder, EndClampsToBeginAndIgnoresDoubleClose) {
  TraceRecorder tr;
  tr.set_enabled(true);
  const SpanId id = tr.begin(Component::Net, "flow#0", "xfer", sim::secs(4));
  tr.end(id, sim::secs(2));  // virtual clocks never run backwards; clamp
  tr.end(id, sim::secs(9));  // double close is a no-op
  expect_span(tr.view(0), sim::secs(4), sim::secs(4), Component::Net, "flow#0",
              "xfer");
}

TEST(TraceRecorder, LanesAllocateLowestFreeAndRecycle) {
  TraceRecorder tr;
  tr.set_enabled(true);
  const SpanId a = tr.begin_lane(Component::Net, "flow", "a", sim::secs(0));
  const SpanId b = tr.begin_lane(Component::Net, "flow", "b", sim::secs(0));
  EXPECT_EQ(tr.track_count(), 2u);  // flow#0 and flow#1
  tr.end(a, sim::secs(1));
  // Lane 0 is free again: the next span must reuse it, not open flow#2.
  const SpanId c = tr.begin_lane(Component::Net, "flow", "c", sim::secs(2));
  EXPECT_TRUE(c.valid());
  tr.end(b, sim::secs(3));
  tr.end(c, sim::secs(3));
  EXPECT_EQ(tr.track_count(), 2u);
  expect_span(tr.view(2), sim::secs(2), sim::secs(3), Component::Net, "flow#0",
              "c");
}

TEST(TraceRecorder, UnfinishedSpansCloseAtMaxTickOnExport) {
  TraceRecorder tr;
  tr.set_enabled(true);
  tr.begin(Component::Pftool, "job#0", "pfcp", sim::secs(1));
  tr.instant(Component::Pftool, "watchdog", "tick", sim::secs(7));
  expect_span(tr.view(0), sim::secs(1), sim::secs(7), Component::Pftool,
              "job#0", "pfcp");
}

// Byte-exact golden output: the exporter's framing, separators, virtual-us
// timestamps, metadata records, and arg encoding are all load-bearing for
// chrome://tracing / Perfetto compatibility.
TEST(TraceRecorder, ChromeJsonGolden) {
  TraceRecorder tr;
  tr.set_enabled(true);
  const SpanId a = tr.begin(Component::Tape, "drive0", "mount", sim::usecs(1));
  tr.arg_num(a, "bytes", std::uint64_t{42});
  tr.end(a, sim::usecs(3));
  tr.instant(Component::Pftool, "watchdog", "tick", sim::usecs(2));
  const std::string expected =
      "{\"traceEvents\":["
      "{\"ph\":\"M\",\"pid\":1,\"tid\":1,\"name\":\"thread_name\","
      "\"args\":{\"name\":\"tape/drive0\"}},\n"
      "{\"ph\":\"M\",\"pid\":1,\"tid\":2,\"name\":\"thread_name\","
      "\"args\":{\"name\":\"pftool/watchdog\"}},\n"
      "{\"ph\":\"X\",\"pid\":1,\"tid\":1,\"cat\":\"tape\",\"name\":\"mount\","
      "\"ts\":1.000,\"dur\":2.000,\"args\":{\"bytes\":42}},\n"
      "{\"ph\":\"i\",\"pid\":1,\"tid\":2,\"cat\":\"pftool\",\"name\":\"tick\","
      "\"ts\":2.000,\"s\":\"t\"}"
      "]}\n";
  EXPECT_EQ(tr.chrome_json(), expected);
}

TEST(TraceRecorder, JsonEscapesControlAndQuoteCharacters) {
  TraceRecorder tr;
  tr.set_enabled(true);
  const SpanId a =
      tr.begin(Component::Pfs, "scan", "name\"with\\quote", sim::usecs(0));
  tr.arg(a, "path", "/a\nb\tc");
  tr.end(a, sim::usecs(1));
  const std::string json = tr.chrome_json();
  EXPECT_NE(json.find("name\\\"with\\\\quote"), std::string::npos);
  EXPECT_NE(json.find("/a\\nb\\tc"), std::string::npos);
}

TEST(Component, ToStringCoversEveryEnumerator) {
  // One name per enumerator, in declaration order; a new component must
  // extend both the enum and this table (and kComponentCount).
  static const char* const kNames[] = {"sim",  "net",    "pfs",
                                       "hsm",  "tape",   "pftool",
                                       "fuse", "fault",  "integrity",
                                       "sched", "wal"};
  static_assert(std::size(kNames) == kComponentCount);
  for (unsigned i = 0; i < kComponentCount; ++i) {
    EXPECT_STREQ(to_string(static_cast<Component>(i)), kNames[i]);
  }
  EXPECT_STREQ(to_string(Component::Integrity), "integrity");
}

TEST(TraceRecorder, ClearResetsLaneAllocatorsAndTracks) {
  TraceRecorder tr;
  tr.set_enabled(true);
  const SpanId a = tr.begin_lane(Component::Net, "flow", "a", sim::secs(0));
  tr.begin_lane(Component::Net, "flow", "b", sim::secs(0));
  ASSERT_EQ(tr.track_count(), 2u);
  ASSERT_EQ(tr.lane_group_count(), 1u);
  const std::uint32_t epoch0 = tr.epoch();

  tr.clear();
  EXPECT_EQ(tr.event_count(), 0u);
  EXPECT_EQ(tr.track_count(), 0u);
  EXPECT_EQ(tr.lane_group_count(), 0u);
  EXPECT_GT(tr.epoch(), epoch0);
  tr.end(a, sim::secs(9));  // stale handle from before clear(): inert
  EXPECT_EQ(tr.event_count(), 0u);

  // A fresh lane span must start over at lane 0, not resume old state.
  const SpanId c = tr.begin_lane(Component::Net, "flow", "c", sim::secs(1));
  tr.end(c, sim::secs(2));
  EXPECT_EQ(tr.track_count(), 1u);
  EXPECT_EQ(*tr.view(0).track, "flow#0");
}

TEST(TraceRecorder, DoubleEndDoesNotFreeAnotherSpansLane) {
  TraceRecorder tr;
  tr.set_enabled(true);
  const SpanId a = tr.begin_lane(Component::Net, "flow", "a", sim::secs(0));
  tr.end(a, sim::secs(1));
  // b takes the freed lane 0.  If the second end(a) freed the lane again,
  // c would alias b's lane and the two open spans would overlap on one
  // exported thread.
  const SpanId b = tr.begin_lane(Component::Net, "flow", "b", sim::secs(2));
  tr.end(a, sim::secs(3));
  const SpanId c = tr.begin_lane(Component::Net, "flow", "c", sim::secs(3));
  tr.end(b, sim::secs(4));
  tr.end(c, sim::secs(4));
  EXPECT_EQ(tr.track_count(), 2u);  // flow#0 (a, b) and flow#1 (c)
  EXPECT_EQ(*tr.view(2).track, "flow#1");
  EXPECT_EQ(*tr.view(2).name, "c");
}

TEST(TraceRecorder, LinkRecordsOnlyForwardCurrentEpochEdges) {
  TraceRecorder tr;
  tr.set_enabled(true);
  const SpanId a = tr.begin(Component::Pftool, "job#0", "pfcp", sim::secs(0));
  const SpanId b = tr.begin(Component::Hsm, "recall", "recall", sim::secs(1));
  tr.link(b, a);         // backwards: rejected (graph must stay acyclic)
  tr.link(a, SpanId{});  // invalid child: no-op
  tr.link(SpanId{}, b);  // invalid parent: no-op
  EXPECT_EQ(tr.edge_count(), 0u);
  tr.link(a, b);
  ASSERT_EQ(tr.edge_count(), 1u);
  EXPECT_EQ(tr.edges()[0], (std::pair<std::uint32_t, std::uint32_t>{0, 1}));

  tr.clear();
  tr.link(a, b);  // both handles are stale now
  EXPECT_EQ(tr.edge_count(), 0u);
}

TEST(TraceRecorder, ParentContextAutoLinksNewSpans) {
  TraceRecorder tr;
  tr.set_enabled(true);
  const SpanId job = tr.begin(Component::Pftool, "job#0", "pfcp", sim::secs(0));
  tr.push_parent(job);
  const SpanId flow =
      tr.begin_lane(Component::Net, "flow", "transfer", sim::secs(1));
  tr.pop_parent();
  const SpanId after =
      tr.begin_lane(Component::Net, "flow", "other", sim::secs(1));
  tr.end(flow, sim::secs(2));
  tr.end(after, sim::secs(2));
  tr.end(job, sim::secs(3));
  ASSERT_EQ(tr.edge_count(), 1u);  // only the span inside the window linked
  EXPECT_EQ(tr.edges()[0].first, 0u);
  EXPECT_EQ(tr.edges()[0].second, 1u);
}

TEST(TraceRecorder, ChromeJsonRendersEdgesAsFlowArrows) {
  TraceRecorder tr;
  tr.set_enabled(true);
  const SpanId a = tr.begin(Component::Pftool, "job#0", "pfcp", sim::usecs(1));
  const SpanId b = tr.complete(Component::Tape, "d0", "read", sim::usecs(2),
                               sim::usecs(5));
  tr.link(a, b);
  tr.end(a, sim::usecs(6));
  const std::string json = tr.chrome_json();
  EXPECT_NE(json.find("\"ph\":\"s\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"f\""), std::string::npos);
  EXPECT_NE(json.find("\"bp\":\"e\""), std::string::npos);
  EXPECT_NE(json.find("\"cat\":\"causal\""), std::string::npos);
}

TEST(TraceRecorder, SaveLoadRoundTripsEventsArgsAndEdges) {
  TraceRecorder tr;
  tr.set_enabled(true);
  const SpanId a = tr.begin(Component::Pftool, "job#0", "pfcp", sim::secs(0));
  tr.arg(a, "src", "/scratch a\nweird");
  tr.arg_num(a, "files", std::uint64_t{7});
  const SpanId b =
      tr.begin_lane(Component::Tape, "drive", "read", sim::secs(1));
  tr.link(a, b);
  tr.instant(Component::Sim, "clock", "tick", sim::secs(2));
  tr.end(b, sim::secs(3));
  tr.end(a, sim::secs(4));

  TraceRecorder back;
  ASSERT_TRUE(back.deserialize(tr.serialize()));
  EXPECT_EQ(back.event_count(), tr.event_count());
  EXPECT_EQ(back.track_count(), tr.track_count());
  EXPECT_EQ(back.edge_count(), tr.edge_count());
  EXPECT_EQ(back.edges(), tr.edges());
  for (std::size_t i = 0; i < tr.event_count(); ++i) {
    const TraceRecorder::SpanView want = tr.view(i);
    const TraceRecorder::SpanView got = back.view(i);
    EXPECT_EQ(got.begin, want.begin);
    EXPECT_EQ(got.end, want.end);
    EXPECT_EQ(got.comp, want.comp);
    EXPECT_EQ(got.phase, want.phase);
    EXPECT_EQ(*got.track, *want.track);
    EXPECT_EQ(*got.name, *want.name);
  }
  EXPECT_EQ(back.chrome_json(), tr.chrome_json());

  TraceRecorder bad;
  EXPECT_FALSE(bad.deserialize("not a trace"));
  EXPECT_EQ(bad.event_count(), 0u);
}

TEST(MetricsRegistry, RegistrationIsIdempotent) {
  MetricsRegistry m;
  Counter& c1 = m.counter("tape.mounts");
  Counter& c2 = m.counter("tape.mounts");
  EXPECT_EQ(&c1, &c2);  // the shared-total contract: same instrument back
  c1.inc();
  c2.add(2);
  EXPECT_EQ(m.counter_value("tape.mounts"), 3u);

  sim::Log10Histogram& h1 = m.histogram("pfs.file_bytes", 1.0);
  // `base` applies only on first registration; a different base must not
  // silently fork a second histogram.
  sim::Log10Histogram& h2 = m.histogram("pfs.file_bytes", 1000.0);
  EXPECT_EQ(&h1, &h2);

  EXPECT_EQ(&m.gauge("g"), &m.gauge("g"));
  EXPECT_EQ(&m.stats("s"), &m.stats("s"));
  EXPECT_EQ(&m.series("x"), &m.series("x"));
}

TEST(MetricsRegistry, FindReturnsNullWhenAbsent) {
  MetricsRegistry m;
  EXPECT_EQ(m.find_counter("nope"), nullptr);
  EXPECT_EQ(m.find_gauge("nope"), nullptr);
  EXPECT_EQ(m.find_stats("nope"), nullptr);
  EXPECT_EQ(m.find_series("nope"), nullptr);
  EXPECT_EQ(m.counter_value("nope"), 0u);
}

TEST(MetricsRegistry, SummaryIsSortedAndComplete) {
  MetricsRegistry m;
  m.counter("b.count").add(7);
  m.counter("a.count").inc();
  m.gauge("c.level").set(2.5);
  const std::string s = m.summary();
  // Names are padded to a fixed column; values follow on the same line.
  const std::size_t a = s.find("a.count");
  const std::size_t b = s.find("b.count");
  ASSERT_NE(a, std::string::npos);
  ASSERT_NE(b, std::string::npos);
  EXPECT_LT(a, b);  // std::map storage: dump sorted by name
  EXPECT_EQ(s.substr(a, s.find('\n', a) - a).back(), '1');
  EXPECT_EQ(s.substr(b, s.find('\n', b) - b).back(), '7');
  EXPECT_NE(s.find("2.500"), std::string::npos);
}

TEST(MetricsRegistry, StatsAgreeWithRetainedSamples) {
  // The online mean/min/max/count must match the exact retained-sample
  // path for the same stream — pfprof's percentile tables and the metrics
  // summary must never tell different stories about the same series.
  MetricsRegistry m;
  sim::Samples exact;
  sim::OnlineStats& online = m.stats("job.seconds");
  sim::Samples& retained = m.series("job.seconds");
  for (const double x : {4.0, 1.0, 9.0, 9.0, 2.5, 7.75}) {
    online.add(x);
    retained.add(x);
    exact.add(x);
  }
  EXPECT_EQ(online.count(), exact.count());
  EXPECT_DOUBLE_EQ(online.mean(), exact.mean());
  EXPECT_DOUBLE_EQ(online.min(), exact.min());
  EXPECT_DOUBLE_EQ(online.max(), exact.max());
  EXPECT_DOUBLE_EQ(retained.percentile(100), online.max());
  EXPECT_DOUBLE_EQ(retained.percentile(0), online.min());
}

TEST(Observer, NilSinkAbsorbsEverything) {
  Observer& nil = Observer::nil();
  EXPECT_FALSE(nil.tracing());
  const SpanId id =
      nil.trace().begin(Component::Sim, "t", "noop", sim::secs(1));
  EXPECT_FALSE(id.valid());
  EXPECT_EQ(nil.trace().event_count(), 0u);
}

TEST(Observer, FlowProbeTracksSpansPerFlow) {
  ObsConfig cfg;
  cfg.tracing = true;
  Observer ob(cfg);
  sim::FlowProbe& probe = ob;
  probe.on_flow_started(1, 1e6, sim::secs(0));
  probe.on_flow_started(2, 2e6, sim::secs(0));
  EXPECT_EQ(ob.trace().events_for(Component::Net), 2u);
  EXPECT_EQ(ob.metrics().counter_value("net.flows_started"), 2u);
}

}  // namespace
}  // namespace cpa::obs
