// Structured tracing on the virtual timeline.
//
// Every subsystem records *spans* (an operation with a begin and an end
// tick) and *instant* events, tagged with a Component and a track.  The
// recorder maps each (component, track) pair to a "thread" of one virtual
// process, so an exported trace opens directly in chrome://tracing or
// Perfetto with one row per drive, per concurrent flow lane, per PFTool
// job, and so on.
//
// Recording is designed to disappear when disabled: `begin()` and friends
// test one flag and return immediately, so instrumented hot paths cost a
// single predictable branch per call-site (the tier-1 benches must not
// regress when tracing is off).
//
// Concurrency within one component (many flows, many migrate batches,
// many jobs) is handled by *lanes*: `begin_lane()` places the span on the
// lowest-numbered free lane of a named group, and `end()` frees the lane.
// Lanes keep the exported thread count bounded by peak concurrency rather
// than total event count, and spans on one lane never overlap — which is
// what the Chrome trace format requires of events sharing a tid.
//
// Causality: `link(parent, child)` records a directed edge between two
// spans at every handoff (job -> chunk -> flow, recall -> mount -> read,
// ...).  Edges only ever point from an older span to a newer one, so the
// per-job event graph is a DAG by construction.  The Chrome export renders
// each edge as a flow arrow; `Profiler` (obs/profile.hpp) walks the edges
// to extract critical paths and attribute wall-clock to buckets.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "simcore/time.hpp"

namespace cpa::obs {

/// The subsystem a trace event or metric belongs to.  Exported as the
/// event category and as the thread-name prefix.
enum class Component : std::uint8_t {
  Sim, Net, Pfs, Hsm, Tape, Pftool, Fuse, Fault, Integrity, Sched, Wal
};
inline constexpr unsigned kComponentCount = 11;

[[nodiscard]] const char* to_string(Component c);

/// Handle to an open span.  Invalid handles (default-constructed, or
/// returned while tracing is disabled) make `end()`/`arg()` no-ops, so
/// call-sites never need to re-test the enabled flag.  The epoch stamp
/// makes handles that survived a `clear()` harmlessly stale instead of
/// aliasing an unrelated new event (which used to corrupt lane state).
struct SpanId {
  std::uint32_t idx = 0;    // 1-based index into the event log; 0 = invalid
  std::uint32_t epoch = 0;  // recorder epoch the handle was issued in
  [[nodiscard]] bool valid() const { return idx != 0; }
};

class TraceRecorder {
 public:
  struct Arg {
    std::string key;
    std::string value;
    bool quoted = true;  // false: emit as a bare JSON number
  };

  /// Read-only view of one recorded event; `end` is resolved to the
  /// latest recorded tick for spans still open.
  struct SpanView {
    sim::Tick begin = 0;
    sim::Tick end = 0;
    Component comp = Component::Sim;
    char phase = 'X';
    const std::string* name = nullptr;
    const std::string* track = nullptr;
  };

  void set_enabled(bool on) { enabled_ = on; }
  [[nodiscard]] bool enabled() const { return enabled_; }

  // --- recording ---------------------------------------------------------
  /// Opens a span on the fixed track `track` (e.g. a drive name).
  SpanId begin(Component c, const std::string& track, std::string name,
               sim::Tick now);
  /// Opens a span on the lowest free lane of `group`; the exported track
  /// is "<group>#<lane>".
  SpanId begin_lane(Component c, const std::string& group, std::string name,
                    sim::Tick now);
  /// Closes a span (no-op on an invalid id, a stale id, or double close).
  void end(SpanId id, sim::Tick now);
  /// Attaches a key/value argument to an open or closed span.
  void arg(SpanId id, std::string key, std::string value);
  void arg_num(SpanId id, std::string key, double value);
  void arg_num(SpanId id, std::string key, std::uint64_t value);
  /// Records a zero-duration instant event.
  void instant(Component c, const std::string& track, std::string name,
               sim::Tick now);
  /// Records an already-finished span (begin and end both known).
  SpanId complete(Component c, const std::string& track, std::string name,
                  sim::Tick begin, sim::Tick end);

  // --- causality ---------------------------------------------------------
  /// Records a causal edge parent -> child.  No-op unless both handles are
  /// valid, current-epoch, and parent was recorded before child (edges
  /// always point forward in the log, keeping the graph acyclic).
  void link(SpanId parent, SpanId child);
  /// Parent-context stack: while a span is pushed, every span opened via
  /// begin()/begin_lane()/complete() is auto-linked under it.  Used at
  /// handoffs that cross module boundaries (e.g. starting a network flow
  /// whose span is recorded by the flow probe, not the caller).
  void push_parent(SpanId id);
  void pop_parent();

  // --- inspection (profiler / tests / acceptance checks) ------------------
  [[nodiscard]] std::size_t event_count() const { return events_.size(); }
  [[nodiscard]] std::size_t events_for(Component c) const;
  /// Number of distinct (component, track) rows recorded so far.
  [[nodiscard]] std::size_t track_count() const { return tracks_.size(); }
  [[nodiscard]] std::size_t lane_group_count() const {
    return lane_groups_.size();
  }
  [[nodiscard]] std::size_t edge_count() const { return edges_.size(); }
  /// Causal edges as 0-based (parent, child) event-index pairs.
  [[nodiscard]] const std::vector<std::pair<std::uint32_t, std::uint32_t>>&
  edges() const {
    return edges_;
  }
  /// View of event `i` (0-based; must be < event_count()).
  [[nodiscard]] SpanView view(std::size_t i) const;
  [[nodiscard]] std::uint32_t epoch() const { return epoch_; }
  void clear();

  // --- export ------------------------------------------------------------
  /// Chrome trace-event JSON (object form, "traceEvents" array).  Loadable
  /// in chrome://tracing and Perfetto.  Timestamps are virtual microseconds;
  /// causal edges appear as flow arrows ("s"/"f" event pairs).
  [[nodiscard]] std::string chrome_json() const;
  bool write_chrome_json(const std::string& path) const;
  /// Lossless self-describing dump (events, args, tracks, edges) that
  /// `load()` reads back, so pfprof can analyse a recorded trace offline.
  [[nodiscard]] std::string serialize() const;
  bool save(const std::string& path) const;
  /// Replaces the recorder's contents with a previously `save()`d trace.
  /// Returns false (leaving the recorder cleared) on malformed input.
  bool load(const std::string& path);
  bool deserialize(const std::string& text);

 private:
  struct Event {
    sim::Tick begin = 0;
    sim::Tick end = 0;
    Component comp = Component::Sim;
    char phase = 'X';  // 'X' complete span, 'i' instant
    bool open = false;
    std::uint32_t track = 0;  // index into tracks_
    std::int32_t lane = -1;   // >= 0: lane spans free their lane on end()
    std::string name;
    std::vector<Arg> args;
  };
  struct Track {
    Component comp = Component::Sim;
    std::string name;
  };
  struct LaneGroup {
    std::string group;
    std::vector<bool> in_use;
    std::vector<std::uint32_t> track_idx;  // per lane
  };

  std::uint32_t intern_track(Component c, const std::string& name);
  SpanId push_open(Component c, std::uint32_t track, std::string name,
                   sim::Tick now, std::int32_t lane);
  /// The event a handle points at, or nullptr for invalid/stale handles.
  Event* resolve(SpanId id);

  bool enabled_ = false;
  std::uint32_t epoch_ = 1;  // bumped by clear(); stale SpanIds are ignored
  sim::Tick max_tick_ = 0;   // unfinished spans close here on export
  std::vector<Event> events_;
  std::vector<Track> tracks_;
  std::vector<LaneGroup> lane_groups_;
  std::vector<std::pair<std::uint32_t, std::uint32_t>> edges_;
  std::vector<SpanId> parent_stack_;
};

}  // namespace cpa::obs
