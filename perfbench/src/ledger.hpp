// The benchmark's own bookkeeping: host-clock spans around calls into each
// layer, the metric/check records a workload returns, and the shared
// repeat-for-N-seconds loop.
//
// Spans are recorded only in the traced run.  They live in memory and are
// written out once, at exit, with each span's self time (its duration minus
// the part its direct children cover), so the cost of tracing is a
// steady_clock read and a vector push per span.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_between(Clock::time_point a,
                                            Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

class Ledger {
 public:
  struct SpanRec {
    std::string name;
    std::int64_t parent = -1;  // index into spans(), -1 for a root
    std::uint32_t run = 0;     // iteration the span belongs to
    Clock::time_point start;
    Clock::time_point end;
    double child_s = 0.0;  // time covered by direct children
  };

  /// Closes its span on destruction.  Inert when the ledger is off.
  class Span {
   public:
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;
    ~Span();

   private:
    friend class Ledger;
    Span(Ledger* ledger, std::int64_t idx) : ledger_(ledger), idx_(idx) {}
    Ledger* ledger_;
    std::int64_t idx_;
  };

  explicit Ledger(std::string run_id) : run_id_(std::move(run_id)) {}

  /// Turns span recording on or off for the spans opened from now on.
  void set_enabled(bool on) { enabled_ = on; }
  /// Starts a new iteration: later spans carry this run index.
  void begin_run(std::uint32_t run) { run_ = run; }

  /// Opens a span named `name`, a child of the innermost open span.
  [[nodiscard]] Span span(const char* name);

  /// Sum of durations of every span named `name` in iteration `run`.
  [[nodiscard]] double total_s(const std::string& name, std::uint32_t run) const;
  /// Sum of self times of every span named `name` in iteration `run`.
  [[nodiscard]] double self_s(const std::string& name, std::uint32_t run) const;

  [[nodiscard]] const std::vector<SpanRec>& spans() const { return spans_; }
  /// Writes every span (with self time) and a per-name rollup as JSON.
  bool write(const std::string& path) const;

 private:
  void close(std::int64_t idx);

  std::string run_id_;
  bool enabled_ = false;
  std::uint32_t run_ = 0;
  std::vector<SpanRec> spans_;
  std::vector<std::int64_t> open_;
};

/// What a metric is measured against: the simulator's or rt engine's own
/// running time, the modelled archive's virtual time, or neither.
enum class MetricClock { Host, Virtual, Count };

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  MetricClock clock = MetricClock::Count;
};

struct Check {
  std::string name;
  bool ok = false;
  std::string detail;
};

struct Options {
  std::uint64_t seed = 2009;
  double seconds = 10.0;
  bool trace = false;
  /// Deliberately corrupts one output before the checks run, so a test can
  /// prove the matching check trips ("" = none).
  std::string doctor;
  std::string out_dir = ".bench_out";
};

struct Result {
  std::vector<Metric> metrics;
  std::vector<Check> checks;
  /// File operations attempted and failed (migrate, restore, delete, copy,
  /// compare, plus unrepairable or mismatched files).
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// Every simulated statistic of one iteration, rendered exactly; equal
  /// text on two builds proves the virtual-time results are identical.
  std::string virtual_digest_text;
  /// Free-form report lines printed before the result.
  std::vector<std::string> notes;

  void metric(std::string name, double value, std::string unit,
              MetricClock clock) {
    metrics.push_back({std::move(name), value, std::move(unit), clock});
  }
  void check(std::string name, bool ok, std::string detail = {}) {
    checks.push_back({std::move(name), ok, std::move(detail)});
  }
  void note(std::string line) { notes.push_back(std::move(line)); }
};

/// Runs `once(iteration, traced)` at least `min_iters` times and until
/// `seconds` of host time have passed.  In a traced run iterations
/// alternate untraced/traced (starting untraced), so both kinds exist and
/// their host times can be compared.
void repeat_for(double seconds, bool trace, unsigned min_iters,
                const std::function<void(std::uint32_t, bool)>& once);

[[nodiscard]] double median(std::vector<double> xs);
/// Peak resident set size of this process so far, in MB.
[[nodiscard]] double peak_rss_mb();
/// FNV-1a 64 of `text`, as 16 hex digits.
[[nodiscard]] std::string digest_hex(const std::string& text);
/// Appends `fmt`-formatted text to `out` (printf-style).
void appendf(std::string& out, const char* fmt, ...)
    __attribute__((format(printf, 2, 3)));
[[nodiscard]] std::string strf(const char* fmt, ...)
    __attribute__((format(printf, 1, 2)));

}  // namespace perfbench
