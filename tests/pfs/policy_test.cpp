#include "pfs/policy.hpp"

#include <gtest/gtest.h>

#include "simcore/units.hpp"

namespace cpa::pfs {
namespace {

FsConfig config() {
  FsConfig cfg;
  cfg.pools = {
      PoolConfig{"fast", 0, 4, false},
      PoolConfig{"slow", 0, 2, false},
      PoolConfig{"tape", 0, 1, true},
  };
  return cfg;
}

class PolicyTest : public ::testing::Test {
 protected:
  PolicyTest() : fs_(sim_, config()) {}

  void make_file(const std::string& path, std::uint64_t size,
                 const std::string& pool = "") {
    ASSERT_EQ(fs_.mkdirs(parent_path(path)), Errc::Ok);
    ASSERT_TRUE(fs_.create(path, pool).ok());
    ASSERT_EQ(fs_.write_all(path, size, 1), Errc::Ok);
  }

  sim::Simulation sim_;
  FileSystem fs_;
  PolicyEngine engine_;
};

TEST_F(PolicyTest, ConditionEvaluation) {
  make_file("/data/big.dat", 500 * kMB);
  const auto attrs = fs_.stat("/data/big.dat").value();
  const sim::Tick now = sim_.now();

  EXPECT_TRUE(Condition::size_ge(100 * kMB).eval("/data/big.dat", attrs, now));
  EXPECT_FALSE(Condition::size_ge(kGB).eval("/data/big.dat", attrs, now));
  EXPECT_TRUE(Condition::size_le(kGB).eval("/data/big.dat", attrs, now));
  EXPECT_TRUE(Condition::pool_is("fast").eval("/data/big.dat", attrs, now));
  EXPECT_FALSE(Condition::pool_is("slow").eval("/data/big.dat", attrs, now));
  EXPECT_TRUE(Condition::path_glob("/data/*.dat").eval("/data/big.dat", attrs, now));
  EXPECT_FALSE(Condition::path_glob("/other/*").eval("/data/big.dat", attrs, now));
  EXPECT_TRUE(Condition::dmapi_is(DmapiState::Resident).eval("/data/big.dat", attrs, now));
  EXPECT_TRUE(Condition::dmapi_not(DmapiState::Migrated).eval("/data/big.dat", attrs, now));
}

TEST_F(PolicyTest, AgeCondition) {
  make_file("/old", kMB);
  sim_.run_until(sim::hours(2));
  make_file("/new", kMB);
  const sim::Tick now = sim_.now();
  const auto old_attrs = fs_.stat("/old").value();
  const auto new_attrs = fs_.stat("/new").value();
  const auto one_hour = Condition::age_ge(3600);
  EXPECT_TRUE(one_hour.eval("/old", old_attrs, now));
  EXPECT_FALSE(one_hour.eval("/new", new_attrs, now));
}

TEST_F(PolicyTest, PlacementPoolFirstMatchWins) {
  Rule small_to_slow;
  small_to_slow.name = "small-files";
  small_to_slow.action = Rule::Action::Place;
  small_to_slow.target = "slow";
  small_to_slow.where = {Condition::path_glob("/archive/smallfiles/*")};
  engine_.add_rule(small_to_slow);

  Rule everything_fast;
  everything_fast.name = "default";
  everything_fast.action = Rule::Action::Place;
  everything_fast.target = "fast";
  engine_.add_rule(everything_fast);

  EXPECT_EQ(engine_.placement_pool("/archive/smallfiles/x", sim_.now()), "slow");
  EXPECT_EQ(engine_.placement_pool("/archive/bigfiles/x", sim_.now()), "fast");
}

TEST_F(PolicyTest, PlacementReturnsEmptyWithoutRules) {
  EXPECT_EQ(engine_.placement_pool("/x", sim_.now()), "");
}

TEST_F(PolicyTest, ListRuleCollectsCandidates) {
  make_file("/a/keep", 10 * kMB);
  make_file("/a/mig1", 200 * kMB);
  make_file("/a/mig2", 300 * kMB);

  Rule list;
  list.name = "premigrate-candidates";
  list.action = Rule::Action::List;
  list.target = "candidates";
  list.where = {Condition::size_ge(100 * kMB),
                Condition::dmapi_is(DmapiState::Resident)};
  engine_.add_rule(list);

  const ScanReport report = engine_.run_scan(fs_);
  const auto& matches = report.matches.at("premigrate-candidates");
  ASSERT_EQ(matches.size(), 2u);
  EXPECT_EQ(matches[0].path, "/a/mig1");
  EXPECT_EQ(matches[1].path, "/a/mig2");
  // Directories are not candidates but are scanned.
  EXPECT_EQ(report.inodes_scanned, fs_.total_inodes());
}

TEST_F(PolicyTest, MigrateRulesUseFirstMatchSemantics) {
  make_file("/f", 200 * kMB);

  Rule first;
  first.name = "to-slow";
  first.action = Rule::Action::MigrateToPool;
  first.target = "slow";
  first.where = {Condition::size_ge(100 * kMB)};
  Rule second;
  second.name = "to-tape";
  second.action = Rule::Action::MigrateExternal;
  second.target = "tape";
  second.where = {Condition::size_ge(50 * kMB)};
  engine_.add_rule(first);
  engine_.add_rule(second);

  const ScanReport report = engine_.run_scan(fs_);
  EXPECT_EQ(report.matches.at("to-slow").size(), 1u);
  EXPECT_TRUE(report.matches.at("to-tape").empty());  // claimed by first
}

TEST_F(PolicyTest, ListRulesDoNotClaimFiles) {
  make_file("/f", 200 * kMB);
  Rule list;
  list.name = "watch";
  list.action = Rule::Action::List;
  list.where = {};
  Rule mig;
  mig.name = "mig";
  mig.action = Rule::Action::MigrateExternal;
  mig.target = "tape";
  engine_.add_rule(list);
  engine_.add_rule(mig);
  const ScanReport report = engine_.run_scan(fs_);
  EXPECT_EQ(report.matches.at("watch").size(), 1u);
  EXPECT_EQ(report.matches.at("mig").size(), 1u);
}

// run_scan tests a rule's non-path conditions before its glob.  With the
// glob written first and a later dmapi/age condition failing for some
// files, the matches (and their order) must equal evaluating every
// condition in its written order.
TEST_F(PolicyTest, GlobFirstRuleMatchesWrittenOrderEvaluation) {
  make_file("/proj/a/old_resident", 10 * kMB);
  make_file("/proj/a/old_migrated", 10 * kMB);
  make_file("/other/old_resident", 10 * kMB);
  sim_.run_until(sim::secs(3600));
  make_file("/proj/b/young_resident", 10 * kMB);
  make_file("/proj/a/young_premigrated", 10 * kMB);
  ASSERT_EQ(fs_.premigrate("/proj/a/old_migrated"), Errc::Ok);
  ASSERT_EQ(fs_.punch("/proj/a/old_migrated"), Errc::Ok);
  ASSERT_EQ(fs_.premigrate("/proj/a/young_premigrated"), Errc::Ok);
  sim_.run_until(sim::secs(3600 + 900));

  Rule rule;
  rule.name = "ilm";
  rule.action = Rule::Action::List;
  rule.where = {Condition::path_glob("/proj/*"),
                Condition::dmapi_is(DmapiState::Resident),
                Condition::age_ge(1800)};
  engine_.add_rule(rule);
  const ScanReport report = engine_.run_scan(fs_);

  std::vector<std::string> written_order;
  const sim::Tick now = sim_.now();
  fs_.for_each_inode([&](const FileSystem::InodeView& v) {
    if (v.attrs().kind != FileKind::Regular) return;
    bool all = true;
    for (const Condition& c : rule.where) {
      if (!c.eval(v.path(), v.attrs(), now)) {
        all = false;
        break;
      }
    }
    if (all) written_order.push_back(v.path());
  });
  std::vector<std::string> scanned;
  for (const PolicyMatch& m : report.matches.at("ilm")) scanned.push_back(m.path);
  EXPECT_EQ(scanned, written_order);
  EXPECT_EQ(scanned, (std::vector<std::string>{"/proj/a/old_resident"}));
  // The per-inode overload agrees with the path-string one.
  fs_.for_each_inode([&](const FileSystem::InodeView& v) {
    EXPECT_EQ(rule.matches(v, now), rule.matches(v.path(), v.attrs(), now));
  });
}

TEST_F(PolicyTest, ScanDurationScalesWithStreams) {
  for (int i = 0; i < 50; ++i) {
    make_file("/bulk" + std::to_string(i), kMB);
  }
  const ScanReport one = engine_.run_scan(fs_, 1);
  const ScanReport ten = engine_.run_scan(fs_, 10);
  EXPECT_EQ(one.inodes_scanned, ten.inodes_scanned);
  EXPECT_GT(one.scan_duration, ten.scan_duration);
}

TEST_F(PolicyTest, RuleToStringIsReadable) {
  Rule r;
  r.name = "mig-old-big";
  r.action = Rule::Action::MigrateExternal;
  r.target = "tape";
  r.where = {Condition::size_ge(100), Condition::age_ge(60)};
  const std::string s = r.to_string();
  EXPECT_NE(s.find("mig-old-big"), std::string::npos);
  EXPECT_NE(s.find("MIGRATE EXTERNAL"), std::string::npos);
  EXPECT_NE(s.find("size >= 100"), std::string::npos);
  EXPECT_NE(s.find("age >= 60s"), std::string::npos);
}

}  // namespace
}  // namespace cpa::pfs
