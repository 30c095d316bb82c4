// perfbench: runs one benchmark workload and prints its report.
//
//   perfbench --workload fig10_campaign|tape_lifecycle|rt_copy
//                    [--seed N] [--seconds S] [--trace 0|1]
//                    [--doctor NAME] [--out-dir DIR]
//
// The last line of standard output is one JSON object holding every
// metric measured (name, value, unit, clock), every check, the failure
// counts and the virtual-time digest.  The exit code is 0 only when every
// check passed.  run.py builds this binary and turns that line into the
// benchmark's result.
#include <sys/stat.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "workloads.hpp"

namespace {

using perfbench::MetricClock;

const char* clock_name(MetricClock c) {
  switch (c) {
    case MetricClock::Host: return "host";
    case MetricClock::Virtual: return "virtual";
    case MetricClock::Count: return "count";
  }
  return "?";
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "fig10_campaign|tape_lifecycle|rt_copy [--seed N] "
               "[--seconds S] [--trace 0|1] [--doctor NAME] [--out-dir DIR]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options opts;
  std::string workload;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + arg).c_str());
    const char* val = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      workload = val;
    } else if (arg == "--seed") {
      opts.seed = std::strtoull(val, &end, 10);
      if (*val == '\0' || *end != '\0') return usage("bad --seed");
    } else if (arg == "--seconds") {
      opts.seconds = std::strtod(val, &end);
      if (*val == '\0' || *end != '\0' || !(opts.seconds >= 0.0)) {
        return usage("bad --seconds");
      }
    } else if (arg == "--trace") {
      if (std::strcmp(val, "0") != 0 && std::strcmp(val, "1") != 0) {
        return usage("--trace takes 0 or 1");
      }
      opts.trace = val[0] == '1';
    } else if (arg == "--doctor") {
      opts.doctor = val;
    } else if (arg == "--out-dir") {
      opts.out_dir = val;
    } else {
      return usage(("unknown argument " + arg).c_str());
    }
  }
  mkdir(opts.out_dir.c_str(), 0755);  // may already exist

  const std::string tag = workload + "-seed" + std::to_string(opts.seed);
  perfbench::Ledger ledger(tag);
  perfbench::Result r;
  if (workload == "fig10_campaign") {
    r = perfbench::run_fig10_campaign(opts, ledger);
  } else if (workload == "tape_lifecycle") {
    r = perfbench::run_tape_lifecycle(opts, ledger);
  } else if (workload == "rt_copy") {
    r = perfbench::run_rt_copy(opts, ledger);
  } else {
    return usage(("unknown workload '" + workload + "'").c_str());
  }

  bool correct = true;
  for (const perfbench::Check& c : r.checks) correct = correct && c.ok;
  const std::string digest = perfbench::digest_hex(r.virtual_digest_text);
  const std::string digest_path =
      opts.out_dir + "/virtual-" + tag + ".txt";
  if (std::FILE* f = std::fopen(digest_path.c_str(), "w")) {
    std::fputs(r.virtual_digest_text.c_str(), f);
    std::fclose(f);
  }
  if (opts.trace) {
    const std::string spans_path = opts.out_dir + "/spans-" + tag + ".json";
    if (!ledger.write(spans_path)) {
      std::fprintf(stderr, "perfbench: cannot write %s\n",
                   spans_path.c_str());
      return 1;
    }
    std::printf("spans: %zu host-clock spans -> %s\n", ledger.spans().size(),
                spans_path.c_str());
  }

  std::printf("== %s  seed %llu  %s run\n", workload.c_str(),
              static_cast<unsigned long long>(opts.seed),
              opts.trace ? "traced" : "untraced");
  for (const std::string& line : r.notes) std::printf("  %s\n", line.c_str());
  std::printf("-- metrics\n");
  for (const perfbench::Metric& m : r.metrics) {
    std::printf("  %-34s %16.6f %-7s %s\n", m.name.c_str(), m.value,
                m.unit.c_str(), clock_name(m.clock));
  }
  std::printf("-- checks\n");
  for (const perfbench::Check& c : r.checks) {
    std::printf("  [%s] %s%s%s\n", c.ok ? " ok " : "FAIL", c.name.c_str(),
                c.detail.empty() ? "" : ": ", c.detail.c_str());
  }
  std::printf("failed_ops: %llu / %llu file operations\n",
              static_cast<unsigned long long>(r.failed),
              static_cast<unsigned long long>(r.attempted));
  std::printf("virtual digest: %s (-> %s)\n", digest.c_str(),
              digest_path.c_str());

  std::string line;
  perfbench::appendf(
      line,
      "{\"workload\": \"%s\", \"seed\": %llu, \"trace\": %d, \"correct\": %s, "
      "\"attempted\": %llu, \"failed\": %llu, \"virtual_digest\": \"%s\", "
      "\"metrics\": {",
      workload.c_str(), static_cast<unsigned long long>(opts.seed),
      opts.trace ? 1 : 0, correct ? "true" : "false",
      static_cast<unsigned long long>(r.attempted),
      static_cast<unsigned long long>(r.failed), digest.c_str());
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    const perfbench::Metric& m = r.metrics[i];
    const double v = std::isfinite(m.value) ? m.value : 0.0;
    perfbench::appendf(line,
                       "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\", "
                       "\"clock\": \"%s\"}",
                       i ? ", " : "", m.name.c_str(), v, m.unit.c_str(),
                       clock_name(m.clock));
  }
  line += "}, \"checks\": [";
  for (std::size_t i = 0; i < r.checks.size(); ++i) {
    const perfbench::Check& c = r.checks[i];
    perfbench::appendf(line, "%s{\"name\": \"%s\", \"ok\": %s, \"detail\": \"%s\"}",
                       i ? ", " : "", c.name.c_str(), c.ok ? "true" : "false",
                       json_escape(c.detail).c_str());
  }
  line += "]}";
  std::printf("%s\n", line.c_str());
  return correct ? 0 : 1;
}
