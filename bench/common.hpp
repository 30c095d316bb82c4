// Shared output helpers for the paper-reproduction benchmarks.
//
// Every bench binary prints (a) the series/rows the corresponding paper
// figure or table reports, and (b) a paper-vs-measured summary block that
// EXPERIMENTS.md records.  Absolute equality with the paper's testbed is
// not expected; the *shape* (who wins, by what factor, where crossovers
// fall) is the reproduction target.
#pragma once

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <initializer_list>
#include <optional>
#include <string>
#include <utility>
#include <vector>

namespace cpa::bench {

inline void header(const std::string& id, const std::string& title) {
  std::printf("==============================================================\n");
  std::printf("%s — %s\n", id.c_str(), title.c_str());
  std::printf("==============================================================\n");
}

inline void section(const std::string& name) {
  std::printf("\n-- %s --\n", name.c_str());
}

/// One paper-vs-measured comparison row.
inline void compare(const std::string& metric, const std::string& paper,
                    const std::string& measured) {
  std::printf("  %-38s paper: %-18s measured: %s\n", metric.c_str(),
              paper.c_str(), measured.c_str());
}

inline std::string fmt(const char* format, double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), format, value);
  return buf;
}

/// The clock a BENCH_*.json column is measured on.  `Virtual`: a result of
/// the deterministic simulation (virtual seconds, counts, their ratios),
/// the same in every build and on every machine; bench_regress gates it
/// exactly.  `Host`: depends on the machine that ran the bench;
/// bench_regress fails it only on a collapse.
enum class Clock { Virtual, Host };

struct Column {
  const char* name;
  Clock clock;
  const char* format;  ///< printf format of the value ("%.0f" for counts)
};

/// A bench's BENCH_<name>.json, declared once: the key column and each
/// column's name, clock and format.  The file is a JSON array whose first
/// record declares the table, `{"key": KEY, NAME: "virtual"|"host", ...}`,
/// followed by one record per row; bench_regress reads the key and every
/// column's clock from that record.  A row holds any subset of the
/// columns, written in declaration order.
class JsonTable {
 public:
  JsonTable(std::string bench, std::string key, std::vector<Column> columns)
      : bench_(std::move(bench)), key_(std::move(key)),
        columns_(std::move(columns)) {}

  /// One value of a row, named by its declared column.
  struct Cell {
    template <typename T>
    Cell(const char* column, T v) : name(column), value(static_cast<double>(v)) {}
    const char* name;
    double value;
  };

  /// Adds a row.  `key` is written as a JSON number when it reads as one,
  /// else as a string.
  void row(const std::string& key, std::initializer_list<Cell> values) {
    std::vector<std::optional<double>> cells(columns_.size());
    for (const auto& [name, value] : values) {
      std::size_t c = 0;
      while (c < columns_.size() && std::string(columns_[c].name) != name) ++c;
      if (c == columns_.size()) {
        std::fprintf(stderr, "%s: column %s is not declared\n",
                     bench_.c_str(), name);
        std::abort();
      }
      cells[c] = value;
    }
    const bool numeric = !key.empty() && key.find_first_not_of(
                                             "0123456789") == std::string::npos;
    std::string rec = "{\"" + key_ + "\": " +
                      (numeric ? key : "\"" + key + "\"");
    for (std::size_t c = 0; c < columns_.size(); ++c) {
      if (cells[c]) {
        rec += std::string(", \"") + columns_[c].name +
               "\": " + fmt(columns_[c].format, *cells[c]);
      }
    }
    rows_.push_back(rec + "}");
  }

  /// Writes the table to `--json=PATH` (default BENCH_<bench>.json).
  /// Returns false, with a message, when the file cannot be written.
  [[nodiscard]] bool write(int argc, char** argv) const {
    std::string path = "BENCH_" + bench_ + ".json";
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      if (arg.rfind("--json=", 0) == 0) path = arg.substr(7);
    }
    std::string json = "[\n  {\"key\": \"" + key_ + "\"";
    for (const Column& c : columns_) {
      json += std::string(", \"") + c.name + "\": " +
              (c.clock == Clock::Virtual ? "\"virtual\"" : "\"host\"");
    }
    json += "}";
    for (const std::string& r : rows_) json += ",\n  " + r;
    json += "\n]\n";
    std::FILE* f = std::fopen(path.c_str(), "w");
    const bool ok = f != nullptr && std::fputs(json.c_str(), f) >= 0;
    if (f == nullptr || std::fclose(f) != 0 || !ok) {
      std::fprintf(stderr, "bench_%s: cannot write %s\n", bench_.c_str(),
                   path.c_str());
      return false;
    }
    std::printf("\n  wrote %s\n", path.c_str());
    return true;
  }

 private:
  std::string bench_;
  std::string key_;
  std::vector<Column> columns_;
  std::vector<std::string> rows_;
};

/// Observability flags shared by the bench mains.  `--trace=out.json`
/// turns span recording on and writes Chrome trace JSON (open it in
/// chrome://tracing or https://ui.perfetto.dev); `--metrics=out.txt`
/// writes the full metrics-registry summary.  Both default off, so plain
/// runs pay only the disabled-recorder branch.
struct ObsCli {
  std::string trace_path;
  std::string metrics_path;
  /// `--profile=out.txt`: run the causal critical-path profiler after the
  /// bench and write the attribution report ("-" = stdout).  Implies
  /// tracing for the run.
  std::string profile_path;
  /// Fault-spec string (fault/plan.hpp grammar, or a bench-defined alias
  /// like "auto") from `--fault=...`.  Empty means fault-free.
  std::string fault_spec;
  /// Simulation seed from `--seed=N`; benches that take it pass it to
  /// their workload generator so runs are reproducible bit-for-bit.
  std::uint64_t seed = 0;
  bool seed_set = false;
  [[nodiscard]] bool tracing() const {
    return !trace_path.empty() || !profile_path.empty();
  }
};

inline ObsCli parse_obs_cli(int argc, char** argv) {
  ObsCli cli;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--trace=", 0) == 0) {
      cli.trace_path = arg.substr(8);
    } else if (arg.rfind("--metrics=", 0) == 0) {
      cli.metrics_path = arg.substr(10);
    } else if (arg.rfind("--profile=", 0) == 0) {
      cli.profile_path = arg.substr(10);
    } else if (arg.rfind("--fault=", 0) == 0) {
      cli.fault_spec = arg.substr(8);
    } else if (arg.rfind("--seed=", 0) == 0) {
      cli.seed = std::strtoull(arg.c_str() + 7, nullptr, 10);
      cli.seed_set = true;
    }
  }
  return cli;
}

}  // namespace cpa::bench
