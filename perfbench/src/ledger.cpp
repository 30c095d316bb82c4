#include "ledger.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cstdarg>
#include <cstdio>
#include <map>

namespace perfbench {
namespace {

void vappend(std::string& out, const char* fmt, va_list ap) {
  va_list again;
  va_copy(again, ap);
  const int n = std::vsnprintf(nullptr, 0, fmt, ap);
  if (n > 0) {
    const std::size_t at = out.size();
    out.resize(at + static_cast<std::size_t>(n) + 1);
    std::vsnprintf(out.data() + at, static_cast<std::size_t>(n) + 1, fmt, again);
    out.pop_back();  // the terminating NUL
  }
  va_end(again);
}

}  // namespace

Ledger::Span Ledger::span(const char* name) {
  if (!enabled_) return Span(nullptr, -1);
  SpanRec rec;
  rec.name = name;
  rec.parent = open_.empty() ? -1 : open_.back();
  rec.run = run_;
  rec.start = Clock::now();
  rec.end = rec.start;
  spans_.push_back(std::move(rec));
  const auto idx = static_cast<std::int64_t>(spans_.size() - 1);
  open_.push_back(idx);
  return Span(this, idx);
}

Ledger::Span::~Span() {
  if (ledger_ != nullptr) ledger_->close(idx_);
}

void Ledger::close(std::int64_t idx) {
  SpanRec& s = spans_[static_cast<std::size_t>(idx)];
  s.end = Clock::now();
  // Spans nest strictly (RAII on one thread), so `idx` is innermost.
  if (!open_.empty() && open_.back() == idx) open_.pop_back();
  if (s.parent >= 0) {
    spans_[static_cast<std::size_t>(s.parent)].child_s +=
        seconds_between(s.start, s.end);
  }
}

double Ledger::total_s(const std::string& name, std::uint32_t run) const {
  double t = 0.0;
  for (const SpanRec& s : spans_) {
    if (s.run == run && s.name == name) t += seconds_between(s.start, s.end);
  }
  return t;
}

double Ledger::self_s(const std::string& name, std::uint32_t run) const {
  double t = 0.0;
  for (const SpanRec& s : spans_) {
    if (s.run == run && s.name == name) {
      t += seconds_between(s.start, s.end) - s.child_s;
    }
  }
  return t;
}

bool Ledger::write(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const Clock::time_point t0 = spans_.empty() ? Clock::now() : spans_[0].start;
  struct Roll {
    std::uint64_t count = 0;
    double total = 0.0, self = 0.0;
  };
  std::map<std::string, Roll> roll;
  std::fprintf(f, "{\"run_id\": \"%s\", \"clock\": \"host\", \"spans\": [\n",
               run_id_.c_str());
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const SpanRec& s = spans_[i];
    const double dur = seconds_between(s.start, s.end);
    Roll& r = roll[s.name];
    ++r.count;
    r.total += dur;
    r.self += dur - s.child_s;
    std::fprintf(f,
                 "  {\"id\": %zu, \"name\": \"%s\", \"parent\": %lld, "
                 "\"run\": %u, \"start_s\": %.9f, \"end_s\": %.9f, "
                 "\"self_s\": %.9f}%s\n",
                 i, s.name.c_str(), static_cast<long long>(s.parent), s.run,
                 seconds_between(t0, s.start), seconds_between(t0, s.end),
                 dur - s.child_s, i + 1 < spans_.size() ? "," : "");
  }
  std::fprintf(f, "], \"by_name\": {\n");
  std::size_t n = 0;
  for (const auto& [name, r] : roll) {
    std::fprintf(f,
                 "  \"%s\": {\"count\": %llu, \"total_s\": %.9f, "
                 "\"self_s\": %.9f}%s\n",
                 name.c_str(), static_cast<unsigned long long>(r.count),
                 r.total, r.self, ++n < roll.size() ? "," : "");
  }
  std::fprintf(f, "}}\n");
  return std::fclose(f) == 0;
}

void repeat_for(double seconds, bool trace, unsigned min_iters,
                const std::function<void(std::uint32_t, bool)>& once) {
  const Clock::time_point t0 = Clock::now();
  // A traced run needs at least one untraced and one traced iteration.
  const unsigned floor_iters = std::max(min_iters, trace ? 2U : 1U);
  for (std::uint32_t i = 0;; ++i) {
    once(i, trace && (i % 2 == 1));
    if (i + 1 >= floor_iters && seconds_between(t0, Clock::now()) >= seconds) {
      // Finish on a traced iteration so both kinds are balanced.
      if (!trace || i % 2 == 1) break;
    }
  }
}

double median(std::vector<double> xs) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const std::size_t n = xs.size();
  return n % 2 == 1 ? xs[n / 2] : 0.5 * (xs[n / 2 - 1] + xs[n / 2]);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux: KiB
}

std::string digest_hex(const std::string& text) {
  std::uint64_t h = 14695981039346656037ULL;
  for (const unsigned char c : text) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  return strf("%016llx", static_cast<unsigned long long>(h));
}

void appendf(std::string& out, const char* fmt, ...) {
  va_list ap;
  va_start(ap, fmt);
  vappend(out, fmt, ap);
  va_end(ap);
}

std::string strf(const char* fmt, ...) {
  std::string out;
  va_list ap;
  va_start(ap, fmt);
  vappend(out, fmt, ap);
  va_end(ap);
  return out;
}

}  // namespace perfbench
