// bench_regress: the CI perf-regression gate.
//
// Diffs a freshly produced BENCH_*.json against a checked-in baseline.
// Both files are what bench::JsonTable (bench/common.hpp) writes: a JSON
// array whose first record declares the table,
//   {"key": "mode", "p50_s": "virtual", "speedup": "host", ...},
// and whose other records are rows of numbers or strings matched across
// the two files by the key column.  Every column is gated by its clock:
//   virtual  deterministic simulation result: must match exactly, so a
//            moved virtual result is re-pinned on purpose, never absorbed;
//   host     machine-dependent: fails only on a collapse, below 25% of
//            the baseline (for example an optimisation silently undone).
// A record or column present in one file and missing from the other is a
// regression too (a silently dropped or unpinned point).
//
// Usage:
//   bench_regress --baseline=FILE --fresh=FILE
//
// Exit codes: 0 ok; 1 regression; 2 usage or parse error, a row column
// with no declaration, or baseline and fresh declarations that differ.
#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

namespace {

// One bench record: field -> value.  Numbers keep a parsed double next to
// the raw text: the gates compare the doubles, the messages print the text.
struct Record {
  std::map<std::string, std::string> raw;
  std::map<std::string, double> num;
};

// Minimal parser for the benches' own output: `[ {"k": v, ...}, ... ]`
// where v is a JSON number or a quoted string (no nesting, no escapes
// beyond \" — bench::JsonTable never writes them).
bool parse_records(const std::string& text, std::vector<Record>* out,
                   std::string* err) {
  std::size_t i = 0;
  const auto skip_ws = [&] {
    while (i < text.size() &&
           std::isspace(static_cast<unsigned char>(text[i])) != 0) {
      ++i;
    }
  };
  const auto fail = [&](const std::string& what) {
    *err = what + " at offset " + std::to_string(i);
    return false;
  };
  skip_ws();
  if (i >= text.size() || text[i] != '[') return fail("expected '['");
  ++i;
  skip_ws();
  if (i < text.size() && text[i] == ']') return true;  // empty array
  while (true) {
    skip_ws();
    if (i >= text.size() || text[i] != '{') return fail("expected '{'");
    ++i;
    Record rec;
    while (true) {
      skip_ws();
      if (i >= text.size() || text[i] != '"') return fail("expected key");
      const std::size_t kend = text.find('"', i + 1);
      if (kend == std::string::npos) return fail("unterminated key");
      const std::string key = text.substr(i + 1, kend - i - 1);
      i = kend + 1;
      skip_ws();
      if (i >= text.size() || text[i] != ':') return fail("expected ':'");
      ++i;
      skip_ws();
      if (i < text.size() && text[i] == '"') {
        std::size_t vend = i + 1;
        while (vend < text.size() && text[vend] != '"') {
          if (text[vend] == '\\') ++vend;
          ++vend;
        }
        if (vend >= text.size()) return fail("unterminated string");
        rec.raw[key] = text.substr(i + 1, vend - i - 1);
        i = vend + 1;
      } else {
        const std::size_t start = i;
        while (i < text.size() && (std::isdigit(static_cast<unsigned char>(
                                       text[i])) != 0 ||
                                   text[i] == '-' || text[i] == '+' ||
                                   text[i] == '.' || text[i] == 'e' ||
                                   text[i] == 'E')) {
          ++i;
        }
        if (i == start) return fail("expected value");
        const std::string lit = text.substr(start, i - start);
        rec.raw[key] = lit;
        rec.num[key] = std::strtod(lit.c_str(), nullptr);
      }
      skip_ws();
      if (i < text.size() && text[i] == ',') {
        ++i;
        continue;
      }
      if (i < text.size() && text[i] == '}') {
        ++i;
        break;
      }
      return fail("expected ',' or '}'");
    }
    out->push_back(std::move(rec));
    skip_ws();
    if (i < text.size() && text[i] == ',') {
      ++i;
      continue;
    }
    if (i < text.size() && text[i] == ']') return true;
    return fail("expected ',' or ']'");
  }
}

bool load_records(const std::string& path, std::vector<Record>* out) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "bench_regress: cannot read %s\n", path.c_str());
    return false;
  }
  std::ostringstream ss;
  ss << in.rdbuf();
  std::string err;
  if (!parse_records(ss.str(), out, &err)) {
    std::fprintf(stderr, "bench_regress: %s: parse error: %s\n", path.c_str(),
                 err.c_str());
    return false;
  }
  return true;
}

// A host column fails when fresh drops below this share of the baseline.
constexpr double kHostFloor = 0.25;

// A loaded BENCH_*.json: its declaration (key column, column -> clock)
// and its rows.
struct Table {
  std::string key;
  std::map<std::string, std::string> clocks;
  std::vector<Record> rows;
};

bool load_table(const std::string& path, Table* out) {
  std::vector<Record> records;
  if (!load_records(path, &records)) return false;
  const auto fail = [&](const std::string& what) {
    std::fprintf(stderr, "bench_regress: %s: %s\n", path.c_str(),
                 what.c_str());
    return false;
  };
  if (records.empty() || records.front().raw.count("key") == 0) {
    return fail("first record is not a {\"key\": ...} declaration");
  }
  for (const auto& [column, clock] : records.front().raw) {
    if (column == "key") continue;
    if (clock != "virtual" && clock != "host") {
      return fail("column " + column + " has clock \"" + clock +
                  "\", not virtual or host");
    }
    out->clocks[column] = clock;
  }
  out->key = records.front().raw.at("key");
  out->rows.assign(records.begin() + 1, records.end());
  for (const Record& r : out->rows) {
    if (r.raw.count(out->key) == 0) {
      return fail("a record has no " + out->key + " key");
    }
    for (const auto& [column, value] : r.raw) {
      if (column != out->key && out->clocks.count(column) == 0) {
        return fail("column " + column + " has no declaration");
      }
    }
  }
  return true;
}

const Record* find_row(const Table& t, const std::string& key) {
  for (const Record& r : t.rows) {
    if (r.raw.at(t.key) == key) return &r;
  }
  return nullptr;
}

// Gates one column of one matched row by its clock.
bool column_ok(const std::string& clock, const Record& base,
               const Record& fresh, const std::string& column) {
  const auto bn = base.num.find(column);
  const auto fn = fresh.num.find(column);
  if (bn == base.num.end() || fn == fresh.num.end()) {
    return base.raw.at(column) == fresh.raw.at(column);
  }
  if (clock == "host") return fn->second >= bn->second * kHostFloor;
  return fn->second == bn->second;
}

}  // namespace

int main(int argc, char** argv) {
  std::string baseline_path;
  std::string fresh_path;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--baseline=", 0) == 0) baseline_path = arg.substr(11);
    if (arg.rfind("--fresh=", 0) == 0) fresh_path = arg.substr(8);
  }
  if (argc != 3 || baseline_path.empty() || fresh_path.empty()) {
    std::fprintf(stderr,
                 "usage: bench_regress --baseline=FILE --fresh=FILE\n");
    return 2;
  }

  Table baseline;
  Table fresh;
  if (!load_table(baseline_path, &baseline) ||
      !load_table(fresh_path, &fresh)) {
    return 2;
  }
  if (baseline.key != fresh.key || baseline.clocks != fresh.clocks) {
    std::fprintf(stderr,
                 "bench_regress: %s and %s declare different tables; "
                 "re-pin the baseline on purpose\n",
                 baseline_path.c_str(), fresh_path.c_str());
    return 2;
  }

  const std::string& key = baseline.key;
  int regressions = 0;
  int checked = 0;
  for (const Record& f : fresh.rows) {
    if (find_row(baseline, f.raw.at(key)) == nullptr) {
      std::fprintf(stderr, "REGRESS %s=%s: record not in the baseline\n",
                   key.c_str(), f.raw.at(key).c_str());
      ++regressions;
    }
  }
  for (const Record& base : baseline.rows) {
    const std::string& k = base.raw.at(key);
    const Record* match = find_row(fresh, k);
    if (match == nullptr) {
      std::fprintf(stderr, "REGRESS %s=%s: record missing from fresh run\n",
                   key.c_str(), k.c_str());
      ++regressions;
      continue;
    }
    for (const auto& [column, clock] : baseline.clocks) {
      const auto bv = base.raw.find(column);
      const auto fv = match->raw.find(column);
      if (bv == base.raw.end() && fv == match->raw.end()) continue;
      ++checked;
      if (bv == base.raw.end() || fv == match->raw.end()) {
        std::fprintf(stderr, "REGRESS %s=%s: %s only in the %s\n",
                     key.c_str(), k.c_str(), column.c_str(),
                     bv == base.raw.end() ? "fresh run" : "baseline");
        ++regressions;
      } else if (!column_ok(clock, base, *match, column)) {
        std::fprintf(stderr, "REGRESS %s=%s: %s baseline %s fresh %s (%s)\n",
                     key.c_str(), k.c_str(), column.c_str(),
                     bv->second.c_str(), fv->second.c_str(),
                     clock == "host" ? "host: below 25% of baseline"
                                     : "virtual: exact");
        ++regressions;
      } else {
        std::printf("ok      %s=%s: %s %s -> %s\n", key.c_str(), k.c_str(),
                    column.c_str(), bv->second.c_str(), fv->second.c_str());
      }
    }
  }
  if (regressions > 0) {
    std::fprintf(stderr, "bench_regress: %d regression(s) vs %s\n",
                 regressions, baseline_path.c_str());
    return 1;
  }
  std::printf("bench_regress: %d checks ok vs %s\n", checked,
              baseline_path.c_str());
  return 0;
}
