// Tests for the flat tuple tables (src/engine/tuple_set.h): membership
// against a reference set through inserts and swap-removing erases, row
// numbers across rehashes, the arity-0 relation, set equality, copies and
// moves, and counts that follow their rows.
#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <set>
#include <utility>
#include <vector>

#include "src/engine/tuple_set.h"

namespace seqdl {
namespace {

std::set<Tuple> Contents(const TupleSet& set) {
  std::set<Tuple> out;
  for (TupleRef t : set) out.emplace(t.begin(), t.end());
  return out;
}

// Random inserts, erases and lookups over a small id range, so probe runs
// collide, wrap around the slot table and are cut by erases. After every
// operation the table holds exactly the reference set, and row numbers
// stay dense.
TEST(TupleSetTest, InsertContainsEraseAgreeWithAReferenceSet) {
  for (uint32_t seed = 1; seed <= 20; ++seed) {
    std::mt19937 rng(seed);
    const uint32_t arity = 1 + seed % 3;
    TupleSet set;
    std::set<Tuple> want;
    for (int op = 0; op < 2000; ++op) {
      Tuple t;
      for (uint32_t i = 0; i < arity; ++i) t.push_back(rng() % 6);
      switch (rng() % 3) {
        case 0: {
          const size_t before = set.size();
          auto [row, is_new] = set.Insert(t);
          EXPECT_EQ(is_new, want.insert(t).second);
          EXPECT_EQ(row, is_new ? before : set.Find(t));
          EXPECT_TRUE(std::ranges::equal(set.Row(row), t));
          break;
        }
        case 1: {
          // Erase swap-removes: the last row takes the freed number.
          Tuple last;
          if (!set.empty()) {
            TupleRef r = set.Row(static_cast<uint32_t>(set.size() - 1));
            last.assign(r.begin(), r.end());
          }
          const uint32_t row = set.Erase(t);
          EXPECT_EQ(row != TupleSet::kNoRow, want.erase(t) == 1);
          if (row != TupleSet::kNoRow && row < set.size()) {
            EXPECT_TRUE(std::ranges::equal(set.Row(row), last));
          }
          break;
        }
        default:
          EXPECT_EQ(set.Contains(t), want.count(t) == 1);
      }
      ASSERT_EQ(set.size(), want.size()) << "seed " << seed << " op " << op;
    }
    EXPECT_EQ(Contents(set), want) << "seed " << seed;
    for (uint32_t row = 0; row < set.size(); ++row) {
      EXPECT_EQ(set.Find(set.Row(row)), row);
    }
  }
}

// Growth rehashes the slot table many times over; rows keep the numbers
// they were given, and no absent tuple is found.
TEST(TupleSetTest, RowsKeepTheirNumbersAcrossRehashes) {
  TupleSet set;
  constexpr uint32_t kRows = 20000;
  size_t bytes = set.Bytes();
  for (uint32_t i = 0; i < kRows; ++i) {
    auto [row, is_new] = set.Insert(Tuple{i % 100, i / 100});
    ASSERT_TRUE(is_new);
    ASSERT_EQ(row, i);
  }
  EXPECT_GT(set.Bytes(), bytes);
  for (uint32_t i = 0; i < kRows; ++i) {
    EXPECT_EQ(set.Find(Tuple{i % 100, i / 100}), i);
    EXPECT_FALSE(set.Contains(Tuple{i % 100, kRows + i}));
  }
  // A reserved table takes as many rows without rehashing.
  TupleSet reserved;
  reserved.Insert(Tuple{0, 0});
  reserved.Reserve(kRows);
  bytes = reserved.Bytes();
  for (uint32_t i = 1; i < kRows; ++i) {
    reserved.Insert(Tuple{i % 100, i / 100});
  }
  EXPECT_EQ(reserved.Bytes(), bytes);
  EXPECT_EQ(reserved, set);
}

// An arity-0 relation holds at most the empty tuple.
TEST(TupleSetTest, ArityZeroHoldsTheEmptyTuple) {
  TupleSet set;
  EXPECT_FALSE(set.Contains(TupleRef()));
  EXPECT_EQ(set.Insert(TupleRef()), std::make_pair(0u, true));
  EXPECT_EQ(set.Insert(TupleRef()), std::make_pair(0u, false));
  EXPECT_EQ(set.size(), 1u);
  EXPECT_EQ(set.arity(), 0u);
  EXPECT_TRUE(set.Contains(TupleRef()));
  size_t rows = 0;
  for (TupleRef t : set) {
    EXPECT_TRUE(t.empty());
    ++rows;
  }
  EXPECT_EQ(rows, 1u);
  EXPECT_EQ(set.Erase(TupleRef()), 0u);
  EXPECT_TRUE(set.empty());
  EXPECT_EQ(set.Erase(TupleRef()), TupleSet::kNoRow);
}

// Equality is set equality: row order and history do not count.
TEST(TupleSetTest, TablesFilledInDifferentOrdersAreEqual) {
  std::vector<Tuple> tuples;
  for (uint32_t i = 0; i < 300; ++i) tuples.push_back({i % 17, i / 17, i % 5});
  TupleSet forward, backward;
  for (const Tuple& t : tuples) forward.Insert(t);
  for (auto it = tuples.rbegin(); it != tuples.rend(); ++it) {
    backward.Insert(*it);
  }
  EXPECT_EQ(forward, backward);
  // Equal again after one side gains and loses an extra tuple.
  backward.Insert(Tuple{99, 99, 99});
  EXPECT_NE(forward, backward);
  backward.Erase(Tuple{99, 99, 99});
  EXPECT_EQ(forward, backward);
  // The same size with one tuple different is not equal.
  backward.Erase(tuples.front());
  backward.Insert(Tuple{98, 98, 98});
  EXPECT_NE(forward, backward);
  // Empty tables are equal whatever arity they last held.
  TupleSet empty, emptied;
  emptied.Insert(Tuple{1});
  emptied.Erase(Tuple{1});
  EXPECT_EQ(empty, emptied);
}

// A copy owns its rows; a moved-from table is empty and usable.
TEST(TupleSetTest, CopiesAreIndependentAndMovesLeaveEmptyTables) {
  TupleSet set;
  for (uint32_t i = 0; i < 100; ++i) set.Insert(Tuple{i, i + 1});
  TupleSet copy = set;
  EXPECT_EQ(copy, set);
  copy.Erase(Tuple{0, 1});
  copy.Insert(Tuple{500, 501});
  EXPECT_TRUE(set.Contains(Tuple{0, 1}));
  EXPECT_FALSE(set.Contains(Tuple{500, 501}));
  EXPECT_EQ(set.size(), 100u);

  TupleSet moved = std::move(copy);
  EXPECT_EQ(moved.size(), 100u);
  EXPECT_TRUE(copy.empty());
  EXPECT_FALSE(copy.Contains(Tuple{500, 501}));
  EXPECT_TRUE(copy.Insert(Tuple{7}).second);
  EXPECT_EQ(copy.size(), 1u);
  copy = std::move(moved);
  EXPECT_EQ(copy.size(), 100u);
  EXPECT_TRUE(moved.empty());
}

// Each count stays with its tuple when removals move rows.
TEST(TupleSetTest, CountsFollowTheirRowsThroughRemovals) {
  TupleCounts counts;
  for (uint32_t i = 0; i < 50; ++i) counts[Tuple{i}] = i * 10;
  ++counts[Tuple{3}];
  EXPECT_EQ(counts.Get(Tuple{3}), 31u);
  EXPECT_EQ(counts.Get(Tuple{77}), 0u);
  EXPECT_EQ(counts.Find(Tuple{77}), nullptr);
  counts.EraseUnless([](TupleRef t) { return t[0] % 3 == 0; });
  EXPECT_EQ(counts.size(), 17u);
  for (const auto& [t, n] : counts) {
    EXPECT_EQ(t[0] % 3, 0u);
    EXPECT_EQ(n, t[0] * 10 + (t[0] == 3 ? 1 : 0));
  }
  // The same counts inserted in the opposite order.
  TupleCounts other;
  for (uint32_t k = 0; k < 50; ++k) {
    const uint32_t i = 49 - k;
    if (i % 3 == 0) other[Tuple{i}] = i * 10 + (i == 3 ? 1 : 0);
  }
  EXPECT_EQ(counts, other);
  ++other[Tuple{0}];
  EXPECT_NE(counts, other);
}

}  // namespace
}  // namespace seqdl
