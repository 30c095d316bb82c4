// Self-tests of the bench regression gate: bench_regress run on the
// checked-in baselines, untouched and doctored, must exit 0 (ok), 1
// (regression) or 2 (malformed table) as each case demands.  A gate that
// cannot fail is not a gate.
#include <sys/wait.h>

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <regex>
#include <sstream>
#include <string>

namespace {

std::string baseline(const std::string& bench) {
  return std::string(CPA_SOURCE_DIR) + "/bench/baselines/BENCH_" + bench +
         ".json";
}

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

/// Writes `text` to a file named after the running test and `tag`.
std::string doctored(const std::string& tag, const std::string& text) {
  const std::string path =
      std::string(CPA_TEST_TMP) + "/" +
      ::testing::UnitTest::GetInstance()->current_test_info()->name() + "." +
      tag + ".json";
  std::ofstream(path) << text;
  return path;
}

int regress(const std::string& base, const std::string& fresh,
            const std::string& extra = "") {
  const std::string cmd = std::string(BENCH_REGRESS) + " --baseline=" + base +
                          " --fresh=" + fresh + extra + " >/dev/null 2>&1";
  const int status = std::system(cmd.c_str());
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

/// `text` with the first number in `column` replaced by printf(format,
/// f(number)).
template <typename F>
std::string rewrite_first(std::string text, const std::string& column,
                          const char* format, F f) {
  std::smatch m;
  const std::regex cell("\"" + column + "\": ([0-9.]+)");
  if (!std::regex_search(text, m, cell)) return text;
  char value[64];
  std::snprintf(value, sizeof(value), format, f(std::stod(m[1].str())));
  return text.replace(m.position(), m.length(),
                      "\"" + column + "\": " + value);
}

class BaselineGatesItself : public ::testing::TestWithParam<const char*> {};

TEST_P(BaselineGatesItself, ExitsZero) {
  EXPECT_EQ(regress(baseline(GetParam()), baseline(GetParam())), 0);
}

INSTANTIATE_TEST_SUITE_P(Bench, BaselineGatesItself,
                         ::testing::Values("flow_churn", "scrub", "fairshare",
                                           "recovery", "md_batch"));

TEST(BenchRegress, AnyOtherOptionIsAUsageError) {
  const std::string b = baseline("fairshare");
  EXPECT_EQ(regress(b, b, " --key=mode"), 2);
  EXPECT_EQ(regress(b, b, " --metric=p99_s"), 2);
}

TEST(BenchRegress, VirtualColumnMovedByATenthFails) {
  const std::string text =
      rewrite_first(slurp(baseline("fairshare")), "p99_s", "%.1f",
                    [](double v) { return v + 0.1; });
  ASSERT_NE(text, slurp(baseline("fairshare")));
  EXPECT_EQ(regress(doctored("base", text), baseline("fairshare")), 1);
}

TEST(BenchRegress, HostColumnCollapseFails) {
  const std::string text =
      rewrite_first(slurp(baseline("flow_churn")), "speedup", "%.1f",
                    [](double) { return 99999.0; });
  ASSERT_NE(text, slurp(baseline("flow_churn")));
  EXPECT_EQ(regress(doctored("base", text), baseline("flow_churn")), 1);
}

TEST(BenchRegress, HostColumnAboveCollapseFloorPasses) {
  // A host speedup at 30% of its baseline is machine noise, not a collapse.
  const std::string text =
      rewrite_first(slurp(baseline("flow_churn")), "speedup", "%.2f",
                    [](double v) { return v * 0.3; });
  ASSERT_NE(text, slurp(baseline("flow_churn")));
  EXPECT_EQ(regress(baseline("flow_churn"), doctored("fresh", text)), 0);
}

TEST(BenchRegress, UndeclaredColumnIsAnError) {
  const std::string text = std::regex_replace(
      slurp(baseline("fairshare")), std::regex(", \"p50_s\": \"virtual\""), "");
  ASSERT_NE(text, slurp(baseline("fairshare")));
  const std::string path = doctored("both", text);
  EXPECT_EQ(regress(path, path), 2);
}

TEST(BenchRegress, DifferingDeclarationsAreAnError) {
  const std::string text = std::regex_replace(
      slurp(baseline("fairshare")), std::regex("\"p99_s\": \"virtual\""),
      "\"p99_s\": \"host\"");
  EXPECT_EQ(regress(baseline("fairshare"), doctored("fresh", text)), 2);
}

TEST(BenchRegress, ExtraFreshRecordFails) {
  std::string text = slurp(baseline("recovery"));
  const std::size_t end = text.rfind("}\n]");
  ASSERT_NE(end, std::string::npos);
  text.insert(end + 1,
              ",\n  {\"scenario\": \"m9_extra\", \"mutations\": 9}");
  EXPECT_EQ(regress(baseline("recovery"), doctored("fresh", text)), 1);
}

TEST(BenchRegress, MissingFreshRecordFails) {
  std::string text = slurp(baseline("md_batch"));
  const std::size_t row = text.find("  {\"case\": \"s8\"");
  ASSERT_NE(row, std::string::npos);
  text.erase(row - 2, text.find('}', row) + 1 - (row - 2));  // ",\n" + row
  EXPECT_EQ(regress(baseline("md_batch"), doctored("fresh", text)), 1);
}

}  // namespace
