#include "obs/trace.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>

namespace cpa::obs {
namespace {

void json_escape(const std::string& s, std::string& out) {
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
}

/// Virtual microseconds with sub-microsecond (nanosecond) precision —
/// Chrome's ts/dur unit.  Fixed three decimals keeps the output
/// byte-deterministic across platforms.
void append_us(sim::Tick t, std::string& out) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%llu.%03llu",
                static_cast<unsigned long long>(t / sim::kTicksPerUsec),
                static_cast<unsigned long long>(t % sim::kTicksPerUsec));
  out += buf;
}

// Percent-escaping for the save()/load() text format: keeps every field a
// single whitespace-free token so the loader can split on spaces.
void field_escape(const std::string& s, std::string& out) {
  for (const char c : s) {
    if (c == '%' || c == ' ' || c == '\n' || c == '\r' || c == '\t') {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "%%%02X",
                    static_cast<unsigned char>(c));
      out += buf;
    } else {
      out += c;
    }
  }
}

std::string field_unescape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (std::size_t i = 0; i < s.size(); ++i) {
    if (s[i] == '%' && i + 2 < s.size()) {
      const auto hex = [](char c) -> int {
        if (c >= '0' && c <= '9') return c - '0';
        if (c >= 'A' && c <= 'F') return c - 'A' + 10;
        if (c >= 'a' && c <= 'f') return c - 'a' + 10;
        return -1;
      };
      const int hi = hex(s[i + 1]);
      const int lo = hex(s[i + 2]);
      if (hi >= 0 && lo >= 0) {
        out += static_cast<char>(hi * 16 + lo);
        i += 2;
        continue;
      }
    }
    out += s[i];
  }
  return out;
}

}  // namespace

const char* to_string(Component c) {
  switch (c) {
    case Component::Sim: return "sim";
    case Component::Net: return "net";
    case Component::Pfs: return "pfs";
    case Component::Hsm: return "hsm";
    case Component::Tape: return "tape";
    case Component::Pftool: return "pftool";
    case Component::Fuse: return "fuse";
    case Component::Fault: return "fault";
    case Component::Integrity: return "integrity";
    case Component::Sched: return "sched";
    case Component::Wal: return "wal";
  }
  return "?";
}

std::uint32_t TraceRecorder::intern_track(Component c, const std::string& name) {
  for (std::uint32_t i = 0; i < tracks_.size(); ++i) {
    if (tracks_[i].comp == c && tracks_[i].name == name) return i;
  }
  tracks_.push_back(Track{c, name});
  return static_cast<std::uint32_t>(tracks_.size() - 1);
}

TraceRecorder::Event* TraceRecorder::resolve(SpanId id) {
  if (!id.valid() || id.epoch != epoch_ || id.idx > events_.size()) {
    return nullptr;
  }
  return &events_[id.idx - 1];
}

SpanId TraceRecorder::push_open(Component c, std::uint32_t track,
                                std::string name, sim::Tick now,
                                std::int32_t lane) {
  Event ev;
  ev.begin = now;
  ev.end = now;
  ev.comp = c;
  ev.phase = 'X';
  ev.open = true;
  ev.track = track;
  ev.lane = lane;
  ev.name = std::move(name);
  events_.push_back(std::move(ev));
  if (now > max_tick_) max_tick_ = now;
  const SpanId id{static_cast<std::uint32_t>(events_.size()), epoch_};
  if (!parent_stack_.empty()) link(parent_stack_.back(), id);
  return id;
}

SpanId TraceRecorder::begin(Component c, const std::string& track,
                            std::string name, sim::Tick now) {
  if (!enabled_) return {};
  return push_open(c, intern_track(c, track), std::move(name), now, -1);
}

SpanId TraceRecorder::begin_lane(Component c, const std::string& group,
                                 std::string name, sim::Tick now) {
  if (!enabled_) return {};
  LaneGroup* lg = nullptr;
  std::size_t lg_idx = 0;
  for (; lg_idx < lane_groups_.size(); ++lg_idx) {
    if (lane_groups_[lg_idx].group == group) {
      lg = &lane_groups_[lg_idx];
      break;
    }
  }
  if (lg == nullptr) {
    lane_groups_.push_back(LaneGroup{group, {}, {}});
    lg = &lane_groups_.back();
  }
  std::size_t lane = 0;
  for (; lane < lg->in_use.size(); ++lane) {
    if (!lg->in_use[lane]) break;
  }
  if (lane == lg->in_use.size()) {
    lg->in_use.push_back(false);
    lg->track_idx.push_back(
        intern_track(c, group + "#" + std::to_string(lane)));
    lg = &lane_groups_[lg_idx];  // intern_track may not move lane_groups_,
                                 // but re-read for clarity after push_back
  }
  lg->in_use[lane] = true;
  // Encode the lane as (group index << 16 | lane) so end() can free it.
  const auto lane_code =
      static_cast<std::int32_t>((lg_idx << 16) | (lane & 0xFFFF));
  return push_open(c, lg->track_idx[lane], std::move(name), now, lane_code);
}

void TraceRecorder::end(SpanId id, sim::Tick now) {
  Event* ev = resolve(id);
  if (ev == nullptr || !ev->open) return;
  ev->open = false;
  ev->end = now < ev->begin ? ev->begin : now;
  if (ev->end > max_tick_) max_tick_ = ev->end;
  if (ev->lane >= 0) {
    const std::size_t lg_idx = static_cast<std::uint32_t>(ev->lane) >> 16;
    const std::size_t lane = static_cast<std::uint32_t>(ev->lane) & 0xFFFF;
    if (lg_idx < lane_groups_.size() &&
        lane < lane_groups_[lg_idx].in_use.size()) {
      lane_groups_[lg_idx].in_use[lane] = false;
    }
    ev->lane = -1;  // the lane is freed exactly once
  }
}

void TraceRecorder::arg(SpanId id, std::string key, std::string value) {
  Event* ev = resolve(id);
  if (ev == nullptr) return;
  ev->args.push_back(Arg{std::move(key), std::move(value), true});
}

void TraceRecorder::arg_num(SpanId id, std::string key, double value) {
  Event* ev = resolve(id);
  if (ev == nullptr) return;
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.6g", value);
  ev->args.push_back(Arg{std::move(key), buf, false});
}

void TraceRecorder::arg_num(SpanId id, std::string key, std::uint64_t value) {
  Event* ev = resolve(id);
  if (ev == nullptr) return;
  ev->args.push_back(Arg{std::move(key), std::to_string(value), false});
}

void TraceRecorder::instant(Component c, const std::string& track,
                            std::string name, sim::Tick now) {
  if (!enabled_) return;
  const std::uint32_t t = intern_track(c, track);
  Event ev;
  ev.begin = now;
  ev.end = now;
  ev.comp = c;
  ev.phase = 'i';
  ev.track = t;
  ev.name = std::move(name);
  events_.push_back(std::move(ev));
  if (now > max_tick_) max_tick_ = now;
}

SpanId TraceRecorder::complete(Component c, const std::string& track,
                               std::string name, sim::Tick begin,
                               sim::Tick end) {
  if (!enabled_) return {};
  const SpanId id = push_open(c, intern_track(c, track), std::move(name),
                              begin, -1);
  this->end(id, end);
  return id;
}

void TraceRecorder::link(SpanId parent, SpanId child) {
  if (!parent.valid() || !child.valid()) return;
  if (parent.epoch != epoch_ || child.epoch != epoch_) return;
  if (parent.idx >= child.idx || child.idx > events_.size()) return;
  edges_.emplace_back(parent.idx - 1, child.idx - 1);
}

void TraceRecorder::push_parent(SpanId id) {
  if (!enabled_) return;
  parent_stack_.push_back(id);
}

void TraceRecorder::pop_parent() {
  if (!enabled_ || parent_stack_.empty()) return;
  parent_stack_.pop_back();
}

std::size_t TraceRecorder::events_for(Component c) const {
  std::size_t n = 0;
  for (const Event& ev : events_) {
    if (ev.comp == c) ++n;
  }
  return n;
}

void TraceRecorder::clear() {
  events_.clear();
  tracks_.clear();
  lane_groups_.clear();
  edges_.clear();
  parent_stack_.clear();
  max_tick_ = 0;
  ++epoch_;  // SpanIds issued before the clear become inert
}

TraceRecorder::SpanView TraceRecorder::view(std::size_t i) const {
  const Event& ev = events_[i];
  SpanView v;
  v.begin = ev.begin;
  v.end = ev.open ? std::max(ev.begin, max_tick_) : ev.end;
  v.comp = ev.comp;
  v.phase = ev.phase;
  v.name = &ev.name;
  v.track = &tracks_[ev.track].name;
  return v;
}

std::string TraceRecorder::chrome_json() const {
  std::string out;
  out.reserve(events_.size() * 96 + edges_.size() * 128 +
              tracks_.size() * 64 + 64);
  out += "{\"traceEvents\":[";
  bool first = true;
  auto sep = [&] {
    if (!first) out += ",\n";
    first = false;
  };
  // Thread-name metadata: one virtual thread per track, tid = index + 1.
  for (std::size_t i = 0; i < tracks_.size(); ++i) {
    sep();
    out += "{\"ph\":\"M\",\"pid\":1,\"tid\":";
    out += std::to_string(i + 1);
    out += ",\"name\":\"thread_name\",\"args\":{\"name\":\"";
    json_escape(std::string(to_string(tracks_[i].comp)) + "/" +
                    tracks_[i].name,
                out);
    out += "\"}}";
  }
  for (const Event& ev : events_) {
    sep();
    out += "{\"ph\":\"";
    out += ev.phase;
    out += "\",\"pid\":1,\"tid\":";
    out += std::to_string(ev.track + 1);
    out += ",\"cat\":\"";
    out += to_string(ev.comp);
    out += "\",\"name\":\"";
    json_escape(ev.name, out);
    out += "\",\"ts\":";
    append_us(ev.begin, out);
    if (ev.phase == 'X') {
      const sim::Tick end = ev.open ? std::max(ev.begin, max_tick_) : ev.end;
      out += ",\"dur\":";
      append_us(end - ev.begin, out);
    } else {
      out += ",\"s\":\"t\"";  // instant scope: thread
    }
    if (!ev.args.empty()) {
      out += ",\"args\":{";
      for (std::size_t a = 0; a < ev.args.size(); ++a) {
        if (a > 0) out += ",";
        out += "\"";
        json_escape(ev.args[a].key, out);
        out += "\":";
        if (ev.args[a].quoted) {
          out += "\"";
          json_escape(ev.args[a].value, out);
          out += "\"";
        } else {
          out += ev.args[a].value;
        }
      }
      out += "}";
    }
    out += "}";
  }
  // Causal edges as flow-event pairs: an arrow from inside the parent span
  // to the child's begin.  Shared id + cat + name bind each pair.
  for (std::size_t k = 0; k < edges_.size(); ++k) {
    const Event& p = events_[edges_[k].first];
    const Event& c = events_[edges_[k].second];
    const sim::Tick p_end = p.open ? std::max(p.begin, max_tick_) : p.end;
    const sim::Tick ts_f = c.begin;
    const sim::Tick ts_s = std::min(std::max(p.begin, std::min(ts_f, p_end)),
                                    ts_f);
    sep();
    out += "{\"ph\":\"s\",\"pid\":1,\"tid\":";
    out += std::to_string(p.track + 1);
    out += ",\"cat\":\"causal\",\"name\":\"handoff\",\"id\":";
    out += std::to_string(k + 1);
    out += ",\"ts\":";
    append_us(ts_s, out);
    out += "},\n{\"ph\":\"f\",\"bp\":\"e\",\"pid\":1,\"tid\":";
    out += std::to_string(c.track + 1);
    out += ",\"cat\":\"causal\",\"name\":\"handoff\",\"id\":";
    out += std::to_string(k + 1);
    out += ",\"ts\":";
    append_us(ts_f, out);
    out += "}";
  }
  out += "]}\n";
  return out;
}

bool TraceRecorder::write_chrome_json(const std::string& path) const {
  std::ofstream f(path, std::ios::binary);
  if (!f) return false;
  f << chrome_json();
  return static_cast<bool>(f);
}

std::string TraceRecorder::serialize() const {
  std::string out = "CPATRACE 1\n";
  out += "m " + std::to_string(max_tick_) + "\n";
  for (const Track& t : tracks_) {
    out += "t " + std::to_string(static_cast<unsigned>(t.comp)) + " ";
    field_escape(t.name, out);
    out += "\n";
  }
  for (std::size_t i = 0; i < events_.size(); ++i) {
    const Event& ev = events_[i];
    out += "e ";
    out += ev.phase;
    out += " " + std::to_string(ev.begin) + " " + std::to_string(ev.end) +
           " " + std::to_string(static_cast<unsigned>(ev.comp)) + " " +
           std::to_string(ev.track) + " " + (ev.open ? "1" : "0") + " ";
    field_escape(ev.name, out);
    out += "\n";
    for (const Arg& a : ev.args) {
      out += "a " + std::to_string(i) + " ";
      out += a.quoted ? "1 " : "0 ";
      field_escape(a.key, out);
      out += " ";
      field_escape(a.value, out);
      out += "\n";
    }
  }
  for (const auto& [p, c] : edges_) {
    out += "l " + std::to_string(p) + " " + std::to_string(c) + "\n";
  }
  return out;
}

bool TraceRecorder::save(const std::string& path) const {
  std::ofstream f(path, std::ios::binary);
  if (!f) return false;
  f << serialize();
  return static_cast<bool>(f);
}

bool TraceRecorder::deserialize(const std::string& text) {
  clear();
  std::istringstream in(text);
  std::string line;
  if (!std::getline(in, line) || line != "CPATRACE 1") return false;
  auto bad = [this] {
    clear();
    return false;
  };
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    std::istringstream ls(line);
    std::string tag;
    ls >> tag;
    if (tag == "m") {
      unsigned long long m = 0;
      if (!(ls >> m)) return bad();
      max_tick_ = m;
    } else if (tag == "t") {
      unsigned comp = 0;
      std::string name;
      if (!(ls >> comp >> name) || comp >= kComponentCount) return bad();
      tracks_.push_back(Track{static_cast<Component>(comp),
                              field_unescape(name)});
    } else if (tag == "e") {
      char phase = 'X';
      unsigned long long b = 0, e = 0;
      unsigned comp = 0, track = 0, open = 0;
      std::string name;
      if (!(ls >> phase >> b >> e >> comp >> track >> open >> name) ||
          comp >= kComponentCount || track >= tracks_.size()) {
        return bad();
      }
      Event ev;
      ev.begin = b;
      ev.end = e;
      ev.comp = static_cast<Component>(comp);
      ev.phase = phase;
      ev.open = open != 0;
      ev.track = track;
      ev.name = field_unescape(name);
      events_.push_back(std::move(ev));
    } else if (tag == "a") {
      std::size_t idx = 0;
      unsigned quoted = 0;
      std::string key, value;
      if (!(ls >> idx >> quoted >> key >> value) || idx >= events_.size()) {
        return bad();
      }
      events_[idx].args.push_back(Arg{field_unescape(key),
                                      field_unescape(value), quoted != 0});
    } else if (tag == "l") {
      std::uint32_t p = 0, c = 0;
      if (!(ls >> p >> c) || p >= c || c >= events_.size()) return bad();
      edges_.emplace_back(p, c);
    } else {
      return bad();
    }
  }
  return true;
}

bool TraceRecorder::load(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  if (!f) return false;
  std::ostringstream ss;
  ss << f.rdbuf();
  return deserialize(ss.str());
}

}  // namespace cpa::obs
