#include <gtest/gtest.h>

#include "src/algebra/algebra.h"
#include "src/algebra/from_datalog.h"
#include "src/algebra/to_datalog.h"
#include "src/engine/engine.h"
#include "src/engine/instance.h"
#include "src/syntax/parser.h"
#include "src/term/universe.h"
#include "tests/test_support.h"

namespace seqdl {
namespace {

// --- Operator semantics --------------------------------------------------------

TEST(AlgebraOpsTest, RelAndArity) {
  Universe u;
  Instance in = MustInstance(u, "R(a ++ b). R(c).");
  AlgebraPtr e = AlgRel(*u.FindRel("R"));
  Result<EvaluatedRel> out = EvalAlgebra(u, *e, in);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->arity, 1u);
  EXPECT_EQ(out->tuples.size(), 2u);
}

TEST(AlgebraOpsTest, SelectWithPathExpressions) {
  Universe u;
  Instance in = MustInstance(u, "P(a ++ b, b). P(a ++ b, a ++ b). P(c, c).");
  // σ_{$1 = $2}: tuples whose components are equal.
  AlgebraPtr eq = AlgSelect(AlgRel(*u.FindRel("P")), ColExpr(u, 1),
                            ColExpr(u, 2));
  Result<EvaluatedRel> out = EvalAlgebra(u, *eq, in);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->tuples.size(), 2u);

  // σ_{$1 = a·$2}: first = a concatenated with second.
  AlgebraPtr shifted =
      AlgSelect(AlgRel(*u.FindRel("P")), ColExpr(u, 1),
                ConcatExpr(ConstExpr(Value::Atom(u.InternAtom("a"))),
                           ColExpr(u, 2)));
  Result<EvaluatedRel> out2 = EvalAlgebra(u, *shifted, in);
  ASSERT_TRUE(out2.ok());
  EXPECT_EQ(out2->tuples.size(), 1u);  // (a·b, b)
}

TEST(AlgebraOpsTest, ProjectBuildsExpressions) {
  Universe u;
  Instance in = MustInstance(u, "R(a, b).");
  // π_{$2·$1, <$1>}.
  AlgebraPtr e = AlgProject(
      AlgRel(*u.FindRel("R")),
      {ConcatExpr(ColExpr(u, 2), ColExpr(u, 1)), PackExpr(ColExpr(u, 1))});
  Result<EvaluatedRel> out = EvalAlgebra(u, *e, in);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->arity, 2u);
  ASSERT_EQ(out->tuples.size(), 1u);
  TupleRef t = *out->tuples.begin();
  EXPECT_EQ(u.FormatPath(t[0]), "b·a");
  EXPECT_EQ(u.FormatPath(t[1]), "<a>");
}

TEST(AlgebraOpsTest, UnionDiffProduct) {
  Universe u;
  Instance in = MustInstance(u, "R(a). R(b). S(b). S(c).");
  AlgebraPtr r = AlgRel(*u.FindRel("R"));
  AlgebraPtr s = AlgRel(*u.FindRel("S"));
  Result<EvaluatedRel> uni = EvalAlgebra(u, *AlgUnion(r, s), in);
  Result<EvaluatedRel> diff = EvalAlgebra(u, *AlgDiff(r, s), in);
  Result<EvaluatedRel> prod = EvalAlgebra(u, *AlgProduct(r, s), in);
  ASSERT_TRUE(uni.ok());
  ASSERT_TRUE(diff.ok());
  ASSERT_TRUE(prod.ok());
  EXPECT_EQ(uni->tuples.size(), 3u);
  EXPECT_EQ(diff->tuples.size(), 1u);  // {a}
  EXPECT_EQ(prod->tuples.size(), 4u);
  EXPECT_EQ(prod->arity, 2u);
}

TEST(AlgebraOpsTest, ArityMismatchRejected) {
  Universe u;
  Instance in = MustInstance(u, "R(a). P(a, b).");
  AlgebraPtr bad = AlgUnion(AlgRel(*u.FindRel("R")), AlgRel(*u.FindRel("P")));
  EXPECT_FALSE(EvalAlgebra(u, *bad, in).ok());
}

TEST(AlgebraOpsTest, UnpackKeepsOnlyPackedSingletons) {
  Universe u;
  Instance in = MustInstance(u, "R(<a ++ b>). R(a ++ b). R(<a> ++ b). R(<>).");
  AlgebraPtr e = AlgUnpack(AlgRel(*u.FindRel("R")), 1);
  Result<EvaluatedRel> out = EvalAlgebra(u, *e, in);
  ASSERT_TRUE(out.ok());
  // <a·b> -> a·b and <> -> eps qualify; the others do not.
  EXPECT_EQ(out->tuples.size(), 2u);
  EXPECT_TRUE(out->tuples.Contains(Tuple{u.PathOfChars("ab")}));
  EXPECT_TRUE(out->tuples.Contains(Tuple{kEmptyPath}));
}

TEST(AlgebraOpsTest, SubAppendsAllSubstrings) {
  Universe u;
  Instance in = MustInstance(u, "R(a ++ b).");
  AlgebraPtr e = AlgSub(AlgRel(*u.FindRel("R")), 1);
  Result<EvaluatedRel> out = EvalAlgebra(u, *e, in);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->arity, 2u);
  // Substrings of a·b: eps, a, b, a·b.
  EXPECT_EQ(out->tuples.size(), 4u);
}

TEST(AlgebraOpsTest, ConstRelation) {
  Universe u;
  AlgebraPtr e = AlgConst(1, {{u.PathOfChars("xy")}});
  Result<EvaluatedRel> out = EvalAlgebra(u, *e, Instance{});
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->tuples.size(), 1u);
}

TEST(AlgebraOpsTest, FormatReadable) {
  Universe u;
  RelId r = *u.InternRel("R", 1);
  AlgebraPtr e =
      AlgProject(AlgSelect(AlgProduct(AlgRel(r), AlgRel(r)), ColExpr(u, 1),
                           ColExpr(u, 2)),
                 {ColExpr(u, 1)});
  EXPECT_EQ(FormatAlgebra(u, *e), "π_{$1}(σ_{$1=$2}((R × R)))");
}

// --- Theorem 7.1: Datalog -> algebra -------------------------------------------

// Checks that the algebra translation of (program, target) agrees with the
// engine on the given instances.
void ExpectAgree(const std::string& program_text, const std::string& target,
                 const std::vector<std::string>& instances) {
  Universe u;
  Program p = MustParse(u, program_text);
  RelId out_rel = *u.FindRel(target);
  Result<AlgebraPtr> alg = DatalogToAlgebra(u, p, out_rel);
  ASSERT_TRUE(alg.ok()) << alg.status().ToString();
  Result<PreparedProgram> prog = Engine::Compile(u, p);
  ASSERT_TRUE(prog.ok()) << prog.status().ToString();
  for (const std::string& text : instances) {
    Instance in = MustInstance(u, text);
    Result<Instance> engine = prog->Run(in);
    Result<EvaluatedRel> algebra = EvalAlgebra(u, **alg, in);
    ASSERT_TRUE(engine.ok()) << engine.status().ToString();
    ASSERT_TRUE(algebra.ok()) << algebra.status().ToString();
    EXPECT_EQ(engine->Tuples(out_rel), algebra->tuples) << text;
  }
}

TEST(FromDatalogTest, CopyRule) {
  ExpectAgree("S($x) <- R($x).", "S", {"R(a ++ b). R(eps).", "R(c)."});
}

TEST(FromDatalogTest, ExtractionWithConcatPattern) {
  ExpectAgree("S($x) <- R($x ++ a).", "S",
              {"R(b ++ a). R(a). R(a ++ b).", "R(eps)."});
}

TEST(FromDatalogTest, ExtractionWithSharedVariable) {
  ExpectAgree("S($x) <- R($x ++ $x).", "S",
              {"R(a ++ b ++ a ++ b). R(a ++ a). R(a ++ b). R(eps)."});
}

TEST(FromDatalogTest, ExtractionWithAtomVariable) {
  ExpectAgree("S(@x) <- R(@x ++ $y ++ @x).", "S",
              {"R(a ++ b ++ a). R(a ++ b ++ c). R(a ++ a).",
               "R(a). R(eps)."});
}

TEST(FromDatalogTest, ExtractionUnderPacking) {
  ExpectAgree("S($x) <- R($u ++ <$x> ++ $v).", "S",
              {"R(a ++ <b ++ c> ++ d). R(<a>). R(a ++ b).",
               "R(<a ++ <b>>)."});
}

TEST(FromDatalogTest, NestedPackingDepthTwo) {
  ExpectAgree("S($x) <- R(<<$x> ++ $y>).", "S",
              {"R(<<a ++ b> ++ c>). R(<a ++ b>). R(a)."});
}

TEST(FromDatalogTest, JoinAndProjection) {
  ExpectAgree("S($x) <- R($x ++ @y), Q(@y).", "S",
              {"R(a ++ b). R(c ++ d). Q(b).",
               "R(a ++ b). Q(b). Q(d)."});
}

TEST(FromDatalogTest, NegationAntijoin) {
  ExpectAgree("T($x) <- R($x ++ a).\n---\nS($x) <- R($x), !T($x).", "S",
              {"R(b ++ a). R(b). R(a).", "R(eps). R(a ++ a)."});
}

TEST(FromDatalogTest, EquationsEliminatedFirst) {
  ExpectAgree("S($x) <- R($x), a ++ $x = $x ++ a.", "S",
              {"R(a ++ a). R(a ++ b). R(eps). R(a)."});
}

TEST(FromDatalogTest, HeadBuildsExpressions) {
  ExpectAgree("S($x ++ $x ++ b) <- R($x).", "S", {"R(a). R(eps)."});
}

TEST(FromDatalogTest, HeadBuildsPacking) {
  ExpectAgree("S(<$x> ++ c) <- R($x).", "S", {"R(a ++ b). R(eps)."});
}

TEST(FromDatalogTest, MultipleRulesUnion) {
  ExpectAgree("S($x) <- R(a ++ $x).\nS($x) <- R(b ++ $x).", "S",
              {"R(a ++ c). R(b ++ d). R(c ++ e)."});
}

TEST(FromDatalogTest, FactsBecomeConstants) {
  ExpectAgree("S(a ++ b).\nS($x) <- R($x).", "S", {"R(c).", ""});
}

TEST(FromDatalogTest, BooleanQuery) {
  ExpectAgree("A <- R($x ++ a ++ $y).", "A",
              {"R(b ++ a ++ c).", "R(b ++ c)."});
}

TEST(FromDatalogTest, RecursionRejected) {
  Universe u;
  Program p = MustParse(u, "S($x) <- R($x). S(a ++ $x) <- S($x).");
  Result<AlgebraPtr> alg = DatalogToAlgebra(u, p, *u.FindRel("S"));
  ASSERT_FALSE(alg.ok());
  EXPECT_EQ(alg.status().code(), StatusCode::kFailedPrecondition);
}

// --- Converse: algebra -> Datalog ----------------------------------------------

void ExpectAlgebraToDatalogAgree(Universe& u, AlgebraPtr alg,
                                 const std::vector<std::string>& instances) {
  Result<AlgebraToDatalogResult> compiled = AlgebraToDatalog(u, *alg);
  ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
  Result<PreparedProgram> prog = Engine::Compile(u, compiled->program);
  ASSERT_TRUE(prog.ok()) << prog.status().ToString();
  for (const std::string& text : instances) {
    Instance in = MustInstance(u, text);
    Result<EvaluatedRel> direct = EvalAlgebra(u, *alg, in);
    Result<Instance> datalog = prog->Run(in);
    ASSERT_TRUE(direct.ok()) << direct.status().ToString();
    ASSERT_TRUE(datalog.ok()) << datalog.status().ToString();
    EXPECT_EQ(direct->tuples, datalog->Tuples(compiled->output)) << text;
  }
}

TEST(ToDatalogTest, SelectProject) {
  Universe u;
  RelId r = *u.InternRel("P", 2);
  (void)r;
  AlgebraPtr alg = AlgProject(
      AlgSelect(AlgRel(*u.FindRel("P")), ColExpr(u, 1),
                ConcatExpr(ColExpr(u, 2), ColExpr(u, 2))),
      {ColExpr(u, 2)});
  ExpectAlgebraToDatalogAgree(u, alg,
                              {"P(a ++ a, a). P(a ++ b, b). P(b ++ b, b)."});
}

TEST(ToDatalogTest, DiffNeedsStratification) {
  Universe u;
  ASSERT_TRUE(u.InternRel("R", 1).ok());
  ASSERT_TRUE(u.InternRel("S", 1).ok());
  AlgebraPtr alg = AlgDiff(AlgRel(*u.FindRel("R")), AlgRel(*u.FindRel("S")));
  ExpectAlgebraToDatalogAgree(u, alg, {"R(a). R(b). S(b)."});
}

TEST(ToDatalogTest, UnionProductChain) {
  Universe u;
  ASSERT_TRUE(u.InternRel("R", 1).ok());
  ASSERT_TRUE(u.InternRel("S", 1).ok());
  AlgebraPtr alg = AlgProduct(
      AlgUnion(AlgRel(*u.FindRel("R")), AlgRel(*u.FindRel("S"))),
      AlgRel(*u.FindRel("R")));
  ExpectAlgebraToDatalogAgree(u, alg, {"R(a). S(b).", "R(a). R(b). S(c)."});
}

TEST(ToDatalogTest, UnpackAndSub) {
  Universe u;
  ASSERT_TRUE(u.InternRel("R", 1).ok());
  AlgebraPtr alg = AlgSub(AlgUnpack(AlgRel(*u.FindRel("R")), 1), 1);
  ExpectAlgebraToDatalogAgree(
      u, alg, {"R(<a ++ b>). R(a).", "R(<>). R(<a ++ b ++ c>)."});
}

TEST(ToDatalogTest, ConstRelation) {
  Universe u;
  AlgebraPtr alg = AlgConst(1, {{u.PathOfChars("ab")}});
  ExpectAlgebraToDatalogAgree(u, alg, {""});
}

// --- Round trip: Datalog -> algebra -> Datalog ----------------------------------

TEST(RoundTripTest, DatalogAlgebraDatalog) {
  Universe u;
  Program p = MustParse(u, "S($x) <- R($x ++ a), Q($x).");
  RelId s = *u.FindRel("S");
  Result<AlgebraPtr> alg = DatalogToAlgebra(u, p, s);
  ASSERT_TRUE(alg.ok());
  Result<AlgebraToDatalogResult> back = AlgebraToDatalog(u, **alg);
  ASSERT_TRUE(back.ok());
  Result<PreparedProgram> prog1 = Engine::Compile(u, p);
  Result<PreparedProgram> prog2 = Engine::Compile(u, back->program);
  ASSERT_TRUE(prog1.ok()) << prog1.status().ToString();
  ASSERT_TRUE(prog2.ok()) << prog2.status().ToString();
  for (const char* text :
       {"R(b ++ a). Q(b).", "R(b ++ a). R(c ++ a). Q(c). Q(d)."}) {
    Instance in = MustInstance(u, text);
    Result<Instance> o1 = prog1->Run(in);
    Result<Instance> o2 = prog2->Run(in);
    ASSERT_TRUE(o1.ok());
    ASSERT_TRUE(o2.ok());
    EXPECT_EQ(o1->Tuples(s), o2->Tuples(back->output)) << text;
  }
}

}  // namespace
}  // namespace seqdl
