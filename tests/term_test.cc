#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "src/term/universe.h"
#include "src/term/value.h"
#include "tests/test_support.h"

namespace seqdl {
namespace {

TEST(ValueTest, AtomRoundTrip) {
  Value v = Value::Atom(17);
  EXPECT_TRUE(v.is_atom());
  EXPECT_FALSE(v.is_packed());
  EXPECT_EQ(v.atom(), 17u);
}

TEST(ValueTest, PackedRoundTrip) {
  Value v = Value::Packed(23);
  EXPECT_TRUE(v.is_packed());
  EXPECT_FALSE(v.is_atom());
  EXPECT_EQ(v.packed_path(), 23u);
}

TEST(ValueTest, AtomAndPackedWithSamePayloadDiffer) {
  EXPECT_NE(Value::Atom(5), Value::Packed(5));
}

TEST(UniverseTest, AtomInterningIsIdempotent) {
  Universe u;
  AtomId a1 = u.InternAtom("hello");
  AtomId a2 = u.InternAtom("hello");
  AtomId b = u.InternAtom("world");
  EXPECT_EQ(a1, a2);
  EXPECT_NE(a1, b);
  EXPECT_EQ(u.AtomName(a1), "hello");
}

TEST(UniverseTest, EmptyPathIsIdZero) {
  Universe u;
  EXPECT_EQ(u.InternPath({}), kEmptyPath);
  EXPECT_EQ(u.PathLength(kEmptyPath), 0u);
}

TEST(UniverseTest, PathInterningGivesStructuralEquality) {
  Universe u;
  PathId p1 = u.PathOfChars("abc");
  PathId p2 = u.PathOfChars("abc");
  PathId p3 = u.PathOfChars("abd");
  EXPECT_EQ(p1, p2);
  EXPECT_NE(p1, p3);
}

TEST(UniverseTest, ConcatIsAssociative) {
  Universe u;
  PathId a = u.PathOfChars("ab");
  PathId b = u.PathOfChars("cd");
  PathId c = u.PathOfChars("ef");
  EXPECT_EQ(u.Concat(u.Concat(a, b), c), u.Concat(a, u.Concat(b, c)));
  EXPECT_EQ(u.Concat(a, kEmptyPath), a);
  EXPECT_EQ(u.Concat(kEmptyPath, a), a);
}

TEST(UniverseTest, SubPath) {
  Universe u;
  PathId p = u.PathOfChars("abcde");
  EXPECT_EQ(u.SubPath(p, 1, 3), u.PathOfChars("bcd"));
  EXPECT_EQ(u.SubPath(p, 0, 0), kEmptyPath);
  EXPECT_EQ(u.SubPath(p, 0, 5), p);
}

TEST(UniverseTest, PackedValuesNestAndCompare) {
  Universe u;
  PathId inner = u.PathOfChars("aba");
  Value packed = Value::Packed(inner);
  PathId outer1 = u.Append(u.PathOfChars("c"), packed);
  PathId outer2 = u.Append(u.PathOfChars("c"), Value::Packed(inner));
  EXPECT_EQ(outer1, outer2);  // hash-consing: O(1) deep equality
  EXPECT_EQ(u.FormatPath(outer1), "c·<a·b·a>");
}

TEST(UniverseTest, IsFlatPath) {
  Universe u;
  EXPECT_TRUE(u.IsFlatPath(u.PathOfChars("abc")));
  EXPECT_TRUE(u.IsFlatPath(kEmptyPath));
  PathId packed = u.Append(kEmptyPath, Value::Packed(u.PathOfChars("a")));
  EXPECT_FALSE(u.IsFlatPath(packed));
}

TEST(UniverseTest, AllSubPathsOfAbc) {
  Universe u;
  std::vector<PathId> subs = u.AllSubPaths(u.PathOfChars("abc"));
  // eps, a, b, c, ab, bc, abc = 7 distinct subpaths.
  EXPECT_EQ(subs.size(), 7u);
}

TEST(UniverseTest, AllSubPathsDeduplicates) {
  Universe u;
  std::vector<PathId> subs = u.AllSubPaths(u.PathOfChars("aaa"));
  // eps, a, aa, aaa.
  EXPECT_EQ(subs.size(), 4u);
}

TEST(UniverseTest, FormatPathEmpty) {
  Universe u;
  EXPECT_EQ(u.FormatPath(kEmptyPath), "()");
}

TEST(UniverseTest, VariablesAreKeyedByKindAndName) {
  Universe u;
  VarId pv = u.InternVar(VarKind::kPath, "x");
  VarId av = u.InternVar(VarKind::kAtomic, "x");
  EXPECT_NE(pv, av);
  EXPECT_EQ(u.InternVar(VarKind::kPath, "x"), pv);
  EXPECT_EQ(u.VarKindOf(pv), VarKind::kPath);
  EXPECT_EQ(u.VarKindOf(av), VarKind::kAtomic);
}

TEST(UniverseTest, FreshVarsAvoidCollisions) {
  Universe u;
  u.InternVar(VarKind::kPath, "x_0");
  VarId fresh = u.FreshVar(VarKind::kPath, "x");
  EXPECT_NE(u.VarName(fresh), "x_0");
}

TEST(UniverseTest, RelArityConflictIsError) {
  Universe u;
  ASSERT_TRUE(u.InternRel("R", 1).ok());
  Result<RelId> again = u.InternRel("R", 1);
  ASSERT_TRUE(again.ok());
  Result<RelId> conflict = u.InternRel("R", 2);
  EXPECT_FALSE(conflict.ok());
  EXPECT_EQ(conflict.status().code(), StatusCode::kInvalidArgument);
}

TEST(UniverseTest, FindRel) {
  Universe u;
  ASSERT_TRUE(u.InternRel("S", 0).ok());
  EXPECT_TRUE(u.FindRel("S").ok());
  EXPECT_EQ(u.FindRel("Nope").status().code(), StatusCode::kNotFound);
}

TEST(UniverseTest, FreshRelAvoidsNames) {
  Universe u;
  ASSERT_TRUE(u.InternRel("T_0", 2).ok());
  RelId fresh = u.FreshRel("T", 1);
  EXPECT_NE(u.RelName(fresh), "T_0");
  EXPECT_EQ(u.RelArity(fresh), 1u);
}

TEST(UniverseTest, PathOfWords) {
  Universe u;
  PathId p = u.PathOfWords("open  pay close");
  EXPECT_EQ(u.PathLength(p), 3u);
  EXPECT_EQ(u.FormatPath(p), "open·pay·close");
}

// The values of path i in the tests below: 1 + i % 7 base-3 digits of i,
// then an atom naming i, so no two paths share their contents.
std::vector<Value> NumberedPath(Universe& u, size_t i) {
  std::vector<Value> values;
  for (size_t k = 0, n = i; k <= i % 7; ++k, n /= 3) {
    values.push_back(Value::Atom(u.InternAtom(Numbered("d", n % 3))));
  }
  values.push_back(Value::Atom(u.InternAtom(Numbered("n", i))));
  return values;
}

// Far longer than one arena chunk (4096 values): such a path gets storage
// of its own, and the short paths around it stay intact.
TEST(UniverseTest, PathLongerThanAChunk) {
  Universe u;
  PathId before = u.PathOfChars("ab");
  std::vector<Value> values;
  for (size_t i = 0; i < 10000; ++i) {
    values.push_back(Value::Atom(u.InternAtom(Numbered("v", i % 97))));
  }
  PathId p = u.InternPath(values);
  PathId after = u.PathOfChars("cd");
  std::span<const Value> got = u.GetPath(p);
  ASSERT_EQ(got.size(), values.size());
  EXPECT_TRUE(std::equal(got.begin(), got.end(), values.begin()));
  EXPECT_EQ(u.InternPath(values), p);
  // The values repeat with period 97, so both subpaths have one id.
  EXPECT_EQ(u.SubPath(p, 97, values.size() - 97),
            u.SubPath(p, 0, values.size() - 97));
  EXPECT_EQ(u.FormatPath(before), "a·b");
  EXPECT_EQ(u.FormatPath(after), "c·d");
}

// Thousands of paths grow every shard's id table many times over; each id
// keeps resolving to its contents, and interning the contents again finds
// it.
TEST(UniverseTest, IdsSurviveTableGrowth) {
  Universe u;
  constexpr size_t kPaths = 20000;
  std::vector<PathId> ids;
  for (size_t i = 0; i < kPaths; ++i) {
    ids.push_back(u.InternPath(NumberedPath(u, i)));
  }
  EXPECT_EQ(u.num_paths(), kPaths + 1);  // + the empty path
  for (size_t i = 0; i < kPaths; ++i) {
    std::vector<Value> values = NumberedPath(u, i);
    std::span<const Value> got = u.GetPath(ids[i]);
    ASSERT_TRUE(std::equal(got.begin(), got.end(), values.begin(),
                           values.end()))
        << i;
    ASSERT_EQ(u.InternPath(values), ids[i]) << i;
  }
  EXPECT_EQ(u.num_paths(), kPaths + 1);
}

// PathIds depend only on the contents hash (its low bits pick the shard)
// and on the order of interning within a shard, so a sequence of
// interning calls yields the same ids in every build. The expected sum
// pins the ids of this sequence.
TEST(UniverseTest, PathIdsFollowHashAndInterningOrder) {
  Universe u;
  uint64_t sum = 0;
  for (size_t i = 0; i < 1000; ++i) {
    sum = sum * 31 + u.InternPath(NumberedPath(u, i));
  }
  EXPECT_EQ(sum, 10516395972199924809ull);
}

}  // namespace
}  // namespace seqdl
