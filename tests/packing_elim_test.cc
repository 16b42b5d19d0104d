#include <gtest/gtest.h>

#include "src/analysis/features.h"
#include "src/engine/engine.h"
#include "src/engine/instance.h"
#include "src/syntax/parser.h"
#include "src/syntax/printer.h"
#include "src/term/universe.h"
#include "src/transform/packing_elim.h"
#include "src/workload/generators.h"
#include "tests/test_support.h"

namespace seqdl {
namespace {

// Keeps only the flat facts of an instance. The paper's query semantics is
// over flat outputs; a packing-free program can by definition only produce
// the flat subset of a packing-producing program's output relation.
Instance FlatFacts(Universe& u, const Instance& i) {
  Instance out;
  for (RelId rel : i.Relations()) {
    for (TupleRef t : i.Tuples(rel)) {
      bool flat = true;
      for (PathId p : t) flat &= u.IsFlatPath(p);
      if (flat) out.Add(rel, t);
    }
  }
  return out;
}

void ExpectSameOutput(Universe& u, const Program& p1, const Program& p2,
                      const std::string& rel, const Instance& input) {
  RelId out_rel = *u.FindRel(rel);
  Result<PreparedProgram> prog1 = Engine::Compile(u, p1);
  Result<PreparedProgram> prog2 = Engine::Compile(u, p2);
  ASSERT_TRUE(prog1.ok()) << prog1.status().ToString();
  ASSERT_TRUE(prog2.ok()) << prog2.status().ToString();
  Result<Instance> o1 = prog1->Run(input);
  Result<Instance> o2 = prog2->Run(input);
  ASSERT_TRUE(o1.ok()) << o1.status().ToString();
  ASSERT_TRUE(o2.ok()) << o2.status().ToString();
  Instance f1 = FlatFacts(u, o1->Project({out_rel}));
  Instance f2 = FlatFacts(u, o2->Project({out_rel}));
  EXPECT_EQ(f1, f2) << "original (flat):\n"
                    << f1.ToString(u) << "transformed (flat):\n"
                    << f2.ToString(u);
}

void ExpectPackingFreeAndEquivalent(const std::string& program_text,
                                    const std::string& output_rel,
                                    const std::vector<std::string>& instances) {
  Universe u;
  Program p = MustParse(u, program_text);
  Result<Program> q = EliminatePackingNonrecursive(u, p);
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  EXPECT_FALSE(DetectFeatures(*q).Contains(Feature::kPacking))
      << FormatProgram(u, *q);
  for (const std::string& text : instances) {
    Instance in = MustInstance(u, text);
    ASSERT_TRUE(in.IsFlat(u)) << "test instances must be flat";
    ExpectSameOutput(u, p, *q, output_rel, in);
  }
}

// --- Simple shapes -------------------------------------------------------------

TEST(PackingElimTest, PackInHeadOnly) {
  // The head packs; the packed variant is materialized under a fresh name,
  // and the flat output relation S sees exactly the all-star facts.
  ExpectPackingFreeAndEquivalent(
      "T(<$x>) <- R($x).\n"
      "S($x) <- T(<$x>).\n",
      "S", {"R(a ++ b). R(eps).", "R(a)."});
}

TEST(PackingElimTest, PackAroundConstant) {
  ExpectPackingFreeAndEquivalent(
      "T($x ++ <a>) <- R($x).\n"
      "S($x) <- T($x ++ <a>).\n",
      "S", {"R(a ++ b). R(eps)."});
}

TEST(PackingElimTest, MixedStructuresOfOneRelation) {
  // T holds facts of two different packing structures.
  ExpectPackingFreeAndEquivalent(
      "T(<$x> ++ $y) <- R($x ++ $y).\n"
      "T($x) <- R($x).\n"
      "S($y) <- T(<a> ++ $y).\n"
      "S($y) <- T($y).\n",
      "S", {"R(a ++ b ++ c). R(a). R(eps).", "R(b ++ a)."});
}

TEST(PackingElimTest, NestedPacks) {
  ExpectPackingFreeAndEquivalent(
      "T(<<$x> ++ $y>) <- R($x ++ $y).\n"
      "S($x ++ $y) <- T(<<$x> ++ $y>).\n",
      "S", {"R(a ++ b). R(eps). R(c)."});
}

TEST(PackingElimTest, PositiveEdbWithPackingIsDropped) {
  // R is flat, so R(<$x>) can never hold; S must be empty, and the
  // rewritten program must agree.
  ExpectPackingFreeAndEquivalent("S($x) <- R(<$x>).\n", "S",
                                 {"R(a ++ b).", "R(a)."});
}

TEST(PackingElimTest, NegatedEdbWithPackingIsTrue) {
  ExpectPackingFreeAndEquivalent(
      "S($x) <- R($x), !R(<$x> ++ a).\n", "S",
      {"R(a ++ b). R(eps)."});
}

TEST(PackingElimTest, EqualStructureEquationSplits) {
  // <$x>·$y = <$u>·$v is satisfiable; different structures are not.
  ExpectPackingFreeAndEquivalent(
      "T(<$x> ++ $y) <- R($x ++ $y).\n"
      "S($x) <- T($z), $z = <$x> ++ $y.\n",
      "S", {"R(a ++ b ++ c). R(eps). R(a)."});
}

TEST(PackingElimTest, MismatchedStructureEquationKillsRule) {
  ExpectPackingFreeAndEquivalent(
      "S($x) <- R($x), <$x> = $x ++ a.\n", "S",
      {"R(a ++ b). R(a)."});
}

TEST(PackingElimTest, NegatedEquationWithPackingSplitsRule) {
  ExpectPackingFreeAndEquivalent(
      "T(<$x> ++ <$y>) <- R($x ++ $y).\n"
      "S($x ++ $y) <- T($z), $z = <$x> ++ <$y>, $z != <$y> ++ <$x>.\n",
      "S", {"R(a ++ b). R(a ++ a). R(eps)."});
}

TEST(PackingElimTest, NegatedEquationDifferentStructuresIsTrue) {
  ExpectPackingFreeAndEquivalent(
      "S($x) <- R($x), $x != <$x> ++ a.\n", "S", {"R(a ++ b). R(eps)."});
}

// --- The paper's Example 2.2 / 4.14 ---------------------------------------------

constexpr const char* kExample22 =
    "T($u ++ <$s> ++ $v) <- R($u ++ $s ++ $v), S($s).\n"
    "A <- T($x), T($y), T($z), $x != $y, $x != $z, $y != $z.\n";

TEST(PackingElimTest, Example22Equivalent) {
  ExpectPackingFreeAndEquivalent(
      kExample22, "A",
      {
          "R(a ++ b ++ a ++ b). S(a ++ b). S(b ++ a).",  // true
          "R(a ++ b ++ a ++ b). S(a ++ b).",             // false
          "R(a ++ a ++ a). S(a).",                       // true
          "R(a). S(b).",                                 // false
          "R(a ++ a). S(a). S(a ++ a).",                 // true (3 marked)
      });
}

TEST(PackingElimTest, Example414RuleCountIs28) {
  Universe u;
  Program p = MustParse(u, kExample22);
  Result<Program> q = EliminatePackingNonrecursive(u, p);
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  // The paper: "Rewriting the program from Example 2.2 without packing
  // yields a program with 28 rules": 1 rule for T_ps plus 27 rules for A
  // (three negated equations, each splitting into 3 component
  // nonequalities).
  EXPECT_EQ(q->NumRules(), 28u) << FormatProgram(u, *q);
}

// --- Purity-driven elimination (Lemma 4.10) --------------------------------------

TEST(PackingElimTest, HalfPureEquationSolved) {
  // $z is impure; the equation <$y> = $z is half-pure and must be solved
  // by unification.
  ExpectPackingFreeAndEquivalent(
      "T(<$y> ++ $y) <- R($y).\n"
      "S($y) <- T($z ++ $y), $z = <$y>.\n",
      "S", {"R(a ++ b). R(eps). R(a)."});
}

TEST(PackingElimTest, ChainedImpureVariables) {
  ExpectPackingFreeAndEquivalent(
      "T(<$x> ++ <$x ++ $x>) <- R($x).\n"
      "S($x) <- T($z), $z = <$x> ++ $w, $w = <$x ++ $x>.\n",
      "S", {"R(a ++ b). R(a). R(eps)."});
}

TEST(PackingElimTest, RecursiveProgramRejected) {
  Universe u;
  Program p = MustParse(u, "S($x) <- R($x). S(<$x>) <- S($x).");
  Result<Program> q = EliminatePackingNonrecursive(u, p);
  ASSERT_FALSE(q.ok());
  EXPECT_EQ(q.status().code(), StatusCode::kFailedPrecondition);
}

TEST(PackingElimTest, ThreeStrataPipeline) {
  ExpectPackingFreeAndEquivalent(
      "T1(<$x>) <- R($x).\n"
      "T2(<$y> ++ <$y>) <- T1(<$y>).\n"
      "S($y) <- T2(<$y> ++ <$y>).\n",
      "S", {"R(a ++ b). R(eps). R(c)."});
}

TEST(PackingElimTest, NegationOverPackedIntermediate) {
  ExpectPackingFreeAndEquivalent(
      "T(<$x>) <- R($x).\n"
      "---\n"
      "S($x) <- R($x), !T(<$x ++ a>).\n",
      "S", {"R(b). R(b ++ a). R(a). R(eps)."});
}

TEST(PackingElimTest, FlatProgramIsUntouchedSemantically) {
  ExpectPackingFreeAndEquivalent(
      "T($x ++ $y) <- R($x), R($y).\n"
      "S($x) <- T($x ++ $x).\n",
      "S", {"R(a). R(b). R(a ++ b)."});
}

TEST(PackingElimTest, PackedConstantsInEquations) {
  ExpectPackingFreeAndEquivalent(
      "T(<a ++ b>) <- R($x).\n"
      "S(c) <- T($z), $z = <a ++ b>.\n",
      "S", {"R(a).", "R(b ++ c)."});
}

TEST(PackingElimTest, EmptyPackComponent) {
  ExpectPackingFreeAndEquivalent(
      "T(<eps> ++ $x) <- R($x).\n"
      "S($x) <- T(<eps> ++ $x).\n",
      "S", {"R(a ++ b). R(eps)."});
}

TEST(PackingElimTest, ArityTwoHeadsSupported) {
  ExpectPackingFreeAndEquivalent(
      "T(<$x>, $y) <- R($x ++ $y).\n"
      "S($y) <- T(<a>, $y).\n",
      "S", {"R(a ++ b ++ c). R(a). R(b ++ c)."});
}

// Differential testing on random flat instances.
TEST(PackingElimTest, RandomizedDifferential) {
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    Universe u;
    Program p = MustParse(u, kExample22);
    Result<Program> q = EliminatePackingNonrecursive(u, p);
    ASSERT_TRUE(q.ok());
    StringWorkload rw;
    rw.count = 4;
    rw.max_len = 5;
    rw.seed = seed;
    rw.rel = "R";
    StringWorkload sw;
    sw.count = 2;
    sw.min_len = 1;
    sw.max_len = 2;
    sw.seed = seed + 50;
    sw.rel = "S";
    Result<Instance> in = RandomStrings(u, rw);
    ASSERT_TRUE(in.ok());
    Result<Instance> needles = RandomStrings(u, sw);
    ASSERT_TRUE(needles.ok());
    in->UnionWith(*needles);
    ExpectSameOutput(u, p, *q, "A", *in);
  }
}

}  // namespace
}  // namespace seqdl
