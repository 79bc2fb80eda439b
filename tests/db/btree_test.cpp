#include "fluxtrace/db/btree.hpp"

#include <gtest/gtest.h>

#include <map>

namespace fluxtrace::db {
namespace {

TEST(BTree, EmptyTree) {
  BTree t;
  EXPECT_EQ(t.size(), 0u);
  EXPECT_EQ(t.height(), 1u);
  EXPECT_FALSE(t.find(42).value.has_value());
  EXPECT_TRUE(t.scan(0, 10).rows.empty());
  EXPECT_TRUE(t.check_invariants());
}

TEST(BTree, InsertAndFind) {
  BTree t(4);
  EXPECT_TRUE(t.insert(10, 100).inserted);
  EXPECT_TRUE(t.insert(5, 50).inserted);
  EXPECT_TRUE(t.insert(20, 200).inserted);
  EXPECT_EQ(t.size(), 3u);
  EXPECT_EQ(t.find(5).value, 50u);
  EXPECT_EQ(t.find(10).value, 100u);
  EXPECT_EQ(t.find(20).value, 200u);
  EXPECT_FALSE(t.find(7).value.has_value());
}

TEST(BTree, DuplicateInsertRejected) {
  BTree t(4);
  EXPECT_TRUE(t.insert(1, 10).inserted);
  const auto r = t.insert(1, 99);
  EXPECT_FALSE(r.inserted);
  EXPECT_EQ(t.size(), 1u);
  EXPECT_EQ(t.find(1).value, 10u); // original value kept
}

TEST(BTree, SplitsGrowHeightAndStayValid) {
  BTree t(4); // small order → frequent splits
  for (std::uint64_t k = 0; k < 100; ++k) {
    const auto r = t.insert(k, k * 10);
    EXPECT_TRUE(r.inserted);
    ASSERT_TRUE(t.check_invariants()) << "after key " << k;
  }
  EXPECT_EQ(t.size(), 100u);
  EXPECT_GT(t.height(), 2u);
  EXPECT_GT(t.total_splits(), 10u);
  for (std::uint64_t k = 0; k < 100; ++k) {
    EXPECT_EQ(t.find(k).value, k * 10) << k;
  }
}

TEST(BTree, InsertReportsSplitWork) {
  BTree t(4);
  std::uint32_t with_split = 0;
  for (std::uint64_t k = 0; k < 50; ++k) {
    if (t.insert(k, k).splits > 0) ++with_split;
  }
  // Some inserts split, most do not — the fluctuation the DB case study
  // charges per query.
  EXPECT_GT(with_split, 0u);
  EXPECT_LT(with_split, 50u);
}

TEST(BTree, NodesVisitedMatchesHeightForFind) {
  BTree t(8);
  for (std::uint64_t k = 0; k < 1000; ++k) t.insert(k, k);
  const auto r = t.find(500);
  EXPECT_EQ(r.nodes_visited, t.height());
}

TEST(BTree, ScanReturnsOrderedRange) {
  BTree t(4);
  for (std::uint64_t k = 0; k < 100; k += 2) t.insert(k, k + 1); // evens
  const auto r = t.scan(31, 5);
  ASSERT_EQ(r.rows.size(), 5u);
  EXPECT_EQ(r.rows[0].first, 32u);
  EXPECT_EQ(r.rows[4].first, 40u);
  for (std::size_t i = 1; i < r.rows.size(); ++i) {
    EXPECT_GT(r.rows[i].first, r.rows[i - 1].first);
  }
}

TEST(BTree, ScanAcrossLeafBoundaries) {
  BTree t(4); // tiny leaves → the scan must hop the chain
  for (std::uint64_t k = 0; k < 64; ++k) t.insert(k, k);
  const auto r = t.scan(0, 64);
  ASSERT_EQ(r.rows.size(), 64u);
  EXPECT_GT(r.nodes_visited, 10u); // many leaf hops
}

TEST(BTree, ScanPastEndTruncates) {
  BTree t(4);
  for (std::uint64_t k = 0; k < 10; ++k) t.insert(k, k);
  EXPECT_EQ(t.scan(7, 100).rows.size(), 3u);
  EXPECT_TRUE(t.scan(100, 5).rows.empty());
}

// Property test: random operations against a std::map oracle.
// gtest prints a param's raw bytes into the ctest case name, so the struct
// must have no padding: `pad` keeps the tail bytes zero instead of garbage.
struct OracleParam {
  std::uint64_t seed;
  std::uint32_t order;
  std::uint32_t pad = 0;
};
static_assert(sizeof(OracleParam) == 16);

class BTreeOracleTest : public ::testing::TestWithParam<OracleParam> {};

TEST_P(BTreeOracleTest, MatchesMapOracle) {
  const std::uint32_t order = GetParam().order;
  std::uint64_t state = GetParam().seed;
  auto rnd = [&state]() {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    return state >> 17;
  };

  BTree tree(order);
  std::map<std::uint64_t, std::uint64_t> oracle;
  for (int i = 0; i < 3000; ++i) {
    const std::uint64_t key = rnd() % 1500; // collisions guaranteed
    const std::uint64_t val = rnd();
    const bool fresh = oracle.emplace(key, val).second;
    EXPECT_EQ(tree.insert(key, val).inserted, fresh);
  }
  ASSERT_TRUE(tree.check_invariants());
  EXPECT_EQ(tree.size(), oracle.size());

  // Point queries.
  for (std::uint64_t key = 0; key < 1500; ++key) {
    const auto got = tree.find(key).value;
    const auto it = oracle.find(key);
    if (it == oracle.end()) {
      EXPECT_FALSE(got.has_value()) << key;
    } else {
      ASSERT_TRUE(got.has_value()) << key;
      EXPECT_EQ(*got, it->second) << key;
    }
  }

  // Range scans.
  for (int i = 0; i < 50; ++i) {
    const std::uint64_t from = rnd() % 1600;
    const std::size_t limit = rnd() % 40;
    const auto got = tree.scan(from, limit).rows;
    std::vector<std::pair<std::uint64_t, std::uint64_t>> want;
    for (auto it = oracle.lower_bound(from);
         it != oracle.end() && want.size() < limit; ++it) {
      want.emplace_back(it->first, it->second);
    }
    EXPECT_EQ(got, want) << "from=" << from << " limit=" << limit;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Cases, BTreeOracleTest,
    ::testing::Values(OracleParam{1, 3}, OracleParam{2, 4},
                      OracleParam{3, 8}, OracleParam{4, 64},
                      OracleParam{5, 5}, OracleParam{42, 16}));

} // namespace
} // namespace fluxtrace::db
