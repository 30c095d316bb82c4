#include "metadb/table.hpp"

#include <gtest/gtest.h>

#include "simcore/rng.hpp"

namespace cpa::metadb {
namespace {

struct Item {
  std::uint64_t id;
  std::uint64_t group;
  std::string name;
  int payload;
};

class TableTest : public ::testing::Test {
 protected:
  TableTest() : t_([](const Item& i) { return i.id; }) {
    by_group_ = t_.add_index_u64([](const Item& i) { return i.group; });
    by_name_ = t_.add_index_str([](const Item& i) { return i.name; });
  }
  Table<Item> t_;
  Table<Item>::IndexId by_group_{};
  Table<Item>::IndexId by_name_{};
};

TEST_F(TableTest, InsertFindErase) {
  EXPECT_TRUE(t_.insert({1, 10, "a", 100}));
  EXPECT_TRUE(t_.insert({2, 10, "b", 200}));
  EXPECT_FALSE(t_.insert({1, 99, "dup", 0}));
  EXPECT_EQ(t_.size(), 2u);

  const Item* it = t_.find(1);
  ASSERT_NE(it, nullptr);
  EXPECT_EQ(it->payload, 100);
  EXPECT_EQ(t_.find(3), nullptr);

  EXPECT_TRUE(t_.erase(1));
  EXPECT_FALSE(t_.erase(1));
  EXPECT_EQ(t_.find(1), nullptr);
  EXPECT_EQ(t_.size(), 1u);
}

TEST_F(TableTest, SecondaryU64IndexFindsAllMatches) {
  t_.insert({1, 10, "a", 0});
  t_.insert({2, 10, "b", 0});
  t_.insert({3, 20, "c", 0});
  auto rows = t_.lookup_u64(by_group_, 10);
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0]->id, 1u);
  EXPECT_EQ(rows[1]->id, 2u);
  EXPECT_TRUE(t_.lookup_u64(by_group_, 999).empty());
}

TEST_F(TableTest, SecondaryStrIndex) {
  t_.insert({1, 1, "alpha", 0});
  t_.insert({2, 2, "beta", 0});
  t_.insert({3, 3, "alpha", 0});
  auto rows = t_.lookup_str(by_name_, "alpha");
  EXPECT_EQ(rows.size(), 2u);
}

TEST_F(TableTest, RangeQueryAscending) {
  for (std::uint64_t i = 0; i < 10; ++i) t_.insert({i + 1, i * 10, "x", 0});
  auto rows = t_.range_u64(by_group_, 25, 65);
  ASSERT_EQ(rows.size(), 4u);  // groups 30, 40, 50, 60
  EXPECT_EQ(rows.front()->group, 30u);
  EXPECT_EQ(rows.back()->group, 60u);
}

TEST_F(TableTest, EraseRemovesIndexEntries) {
  t_.insert({1, 10, "a", 0});
  t_.insert({2, 10, "a", 0});
  t_.erase(1);
  EXPECT_EQ(t_.lookup_u64(by_group_, 10).size(), 1u);
  EXPECT_EQ(t_.lookup_str(by_name_, "a").size(), 1u);
}

TEST_F(TableTest, UpsertReindexes) {
  t_.insert({1, 10, "old", 7});
  t_.upsert({1, 20, "new", 8});
  EXPECT_TRUE(t_.lookup_u64(by_group_, 10).empty());
  ASSERT_EQ(t_.lookup_u64(by_group_, 20).size(), 1u);
  EXPECT_TRUE(t_.lookup_str(by_name_, "old").empty());
  EXPECT_EQ(t_.find(1)->payload, 8);
  EXPECT_EQ(t_.size(), 1u);
}

TEST_F(TableTest, UpsertInsertsWhenAbsent) {
  t_.upsert({5, 1, "n", 3});
  EXPECT_EQ(t_.size(), 1u);
  EXPECT_EQ(t_.find(5)->payload, 3);
}

TEST_F(TableTest, ScanCountsRowsTouched) {
  for (std::uint64_t i = 1; i <= 100; ++i) t_.insert({i, i % 3, "x", 0});
  auto rows = t_.scan([](const Item& i) { return i.group == 1; });
  EXPECT_EQ(rows.size(), 34u);  // i % 3 == 1 for i in 1..100
  EXPECT_EQ(t_.stats().full_scans, 1u);
  EXPECT_EQ(t_.stats().rows_scanned, 100u);
  EXPECT_EQ(t_.stats().index_lookups, 0u);
}

TEST_F(TableTest, StatsTrackOperations) {
  t_.insert({1, 1, "a", 0});
  t_.find(1);
  t_.lookup_u64(by_group_, 1);
  t_.range_u64(by_group_, 0, 5);
  t_.erase(1);
  const auto& s = t_.stats();
  EXPECT_EQ(s.inserts, 1u);
  EXPECT_EQ(s.point_lookups, 1u);
  EXPECT_EQ(s.index_lookups, 1u);
  EXPECT_EQ(s.range_lookups, 1u);
  EXPECT_EQ(s.erases, 1u);
}

TEST_F(TableTest, AddIndexAfterInsertThrows) {
  t_.insert({1, 1, "a", 0});
  EXPECT_THROW(t_.add_index_u64([](const Item& i) { return i.id; }),
               std::logic_error);
  EXPECT_THROW(t_.add_index_str([](const Item& i) { return i.name; }),
               std::logic_error);
}

TEST_F(TableTest, ForEachVisitsAllRows) {
  for (std::uint64_t i = 1; i <= 5; ++i) t_.insert({i, 0, "x", 0});
  int n = 0;
  t_.for_each([&](const Item&) { ++n; });
  EXPECT_EQ(n, 5);
}

TEST_F(TableTest, VisitorsMatchLookupWithoutMaterializing) {
  t_.insert({1, 10, "a", 100});
  t_.insert({2, 10, "b", 200});
  t_.insert({3, 20, "alpha", 300});
  t_.insert({4, 10, "alpha", 400});

  std::vector<std::uint64_t> ids;
  t_.for_each_u64(by_group_, 10, [&](const Item& i) { ids.push_back(i.id); });
  EXPECT_EQ(ids, (std::vector<std::uint64_t>{1, 2, 4}));  // pk order

  ids.clear();
  t_.for_each_str(by_name_, "alpha",
                  [&](const Item& i) { ids.push_back(i.id); });
  EXPECT_EQ(ids, (std::vector<std::uint64_t>{3, 4}));

  int n = 0;
  t_.for_each_u64(by_group_, 999, [&](const Item&) { ++n; });
  EXPECT_EQ(n, 0);
  // Visitors count as index lookups, same as the vector forms.
  EXPECT_EQ(t_.stats().index_lookups, 3u);
}

TEST_F(TableTest, FirstMatchReturnsLowestPrimaryKey) {
  t_.insert({5, 10, "dup", 0});
  t_.insert({2, 10, "dup", 0});
  t_.insert({9, 20, "other", 0});
  const Item* u = t_.first_u64(by_group_, 10);
  ASSERT_NE(u, nullptr);
  EXPECT_EQ(u->id, 2u);
  EXPECT_EQ(t_.first_u64(by_group_, 30), nullptr);
  const Item* s = t_.first_str(by_name_, "dup");
  ASSERT_NE(s, nullptr);
  EXPECT_EQ(s->id, 2u);
  EXPECT_EQ(t_.first_str(by_name_, "nope"), nullptr);
}

TEST_F(TableTest, BulkOpsApplyPerRowAndCountBatches) {
  const std::vector<Item> rows = {
      {1, 10, "a", 0}, {2, 10, "b", 0}, {3, 20, "c", 0}};
  std::size_t next = 0;
  t_.assign_sorted([&](Item& row) {
    if (next == rows.size()) return false;
    row = rows[next++];
    return true;
  });
  EXPECT_EQ(t_.size(), 3u);
  // Indexes are built for bulk-loaded rows.
  EXPECT_EQ(t_.lookup_u64(by_group_, 10).size(), 2u);
  EXPECT_EQ(t_.erase_bulk({1, 3, 77}), 2u);  // missing key skipped
  EXPECT_EQ(t_.size(), 1u);
  EXPECT_EQ(t_.lookup_u64(by_group_, 20).size(), 0u);  // deindexed
  const auto& s = t_.stats();
  EXPECT_EQ(s.bulk_batches, 2u);
  EXPECT_EQ(s.bulk_rows, 3u + 3u);
  EXPECT_EQ(s.inserts, 3u);
  EXPECT_EQ(s.erases, 2u);
}

// Property sweep: random insert/erase/upsert keeps indexes consistent with
// a brute-force scan.
class TableProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(TableProperty, IndexMatchesScanUnderRandomOps) {
  cpa::sim::Rng rng(GetParam());
  Table<Item> t([](const Item& i) { return i.id; });
  const auto by_group = t.add_index_u64([](const Item& i) { return i.group; });

  for (int op = 0; op < 500; ++op) {
    const auto id = rng.uniform_u64(1, 40);
    const auto group = rng.uniform_u64(0, 5);
    switch (rng.uniform_u64(0, 2)) {
      case 0:
        t.insert({id, group, "n", 0});
        break;
      case 1:
        t.upsert({id, group, "n", 0});
        break;
      case 2:
        t.erase(id);
        break;
    }
  }
  for (std::uint64_t g = 0; g <= 5; ++g) {
    auto via_index = t.lookup_u64(by_group, g);
    auto via_scan = t.scan([&](const Item& i) { return i.group == g; });
    ASSERT_EQ(via_index.size(), via_scan.size()) << "group " << g;
    for (std::size_t i = 0; i < via_index.size(); ++i) {
      EXPECT_EQ(via_index[i]->id, via_scan[i]->id);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(RandomOps, TableProperty,
                         ::testing::Range<std::uint64_t>(1, 17));

}  // namespace
}  // namespace cpa::metadb
