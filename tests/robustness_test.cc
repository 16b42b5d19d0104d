// Robustness sweeps: malformed inputs must produce clean Status errors
// (never crashes), transformation preconditions must be enforced, and the
// engine must behave sanely on degenerate instances.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/algebra/from_datalog.h"
#include "src/analysis/safety.h"
#include "src/analysis/stratify.h"
#include "src/engine/engine.h"
#include "src/engine/instance.h"
#include "src/syntax/parser.h"
#include "src/term/universe.h"
#include "src/transform/arity_elim.h"
#include "src/transform/equation_elim.h"
#include "src/transform/fold_intermediates.h"
#include "src/transform/normal_form.h"
#include "src/transform/packing_elim.h"
#include "src/unify/unify.h"

namespace seqdl {
namespace {

// --- Parser rejects malformed programs with InvalidArgument ------------------

class BadProgramTest : public ::testing::TestWithParam<const char*> {};

TEST_P(BadProgramTest, RejectedCleanly) {
  Universe u;
  Result<Program> p = ParseProgram(u, GetParam());
  ASSERT_FALSE(p.ok()) << GetParam();
  EXPECT_EQ(p.status().code(), StatusCode::kInvalidArgument) << GetParam();
}

INSTANTIATE_TEST_SUITE_P(
    Cases, BadProgramTest,
    ::testing::Values(
        "S($x",                        // unclosed predicate
        "S($x) <- R($x)",              // missing period
        "S($x) <- R($x),.",            // dangling comma
        "S($x) <- R($x), .",           // dangling comma with space
        "S($x) R($x).",                // missing arrow
        "S($x) <- R($x), $x.",         // bare expression literal
        "S($x) <- R($x), = $x.",       // equation without lhs
        "S($x) <- R($x), $x = .",      // equation without rhs
        "S(<$x) <- R($x).",            // unclosed pack
        "S($x>) <- R($x).",            // stray close angle
        "S($) <- R($x).",              // variable without name
        "S(@) <- R(@x).",              // atomic variable without name
        "S($x) <- R($x), !$x != a.",   // double-negated nonequality
        "S($x) :- R($x); T($x).",      // wrong separator
        "R(a). R(a, b).",              // arity conflict
        "S($x) <- R($x) R($x).",       // missing comma
        "\"unterminated",              // unterminated string
        "S($x) <- R($x), + $x = a.",   // lone plus
        "- S($x) <- R($x)."            // stray dash
        ));

// --- Pack nesting is capped ------------------------------------------------------

// `depth` packs around the atom a: <<...<a>...>>.
std::string NestedPacks(int depth) {
  return std::string(depth, '<') + "a" + std::string(depth, '>');
}

TEST(RobustnessTest, DeepPackNestingIsRejected) {
  // 100,000 nested packs used to overflow the stack of the recursive item
  // grammar; they are a parse error naming the limit now, as programs and
  // as facts.
  Universe u;
  const std::string deep = NestedPacks(100000);
  Result<Program> p = ParseProgram(u, "S(" + deep + ") <- R($x).");
  ASSERT_FALSE(p.ok());
  EXPECT_EQ(p.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(p.status().message(),
            "parse error at 1:1003: packs nested deeper than the limit of "
            "1000");
  Result<Instance> i = ParseInstance(u, "R(" + deep + ").");
  ASSERT_FALSE(i.ok());
  EXPECT_EQ(i.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(i.status().message(), p.status().message());
  EXPECT_FALSE(ParsePathExpr(u, deep).ok());

  // Exactly at the limit parses; one more does not.
  const std::string at = NestedPacks(kMaxPackNesting);
  EXPECT_TRUE(ParseProgram(u, "S(" + at + ") <- R($x).").ok());
  EXPECT_TRUE(ParsePathExpr(u, at).ok());
  Result<Instance> ok = ParseInstance(u, "R(" + at + ").");
  ASSERT_TRUE(ok.ok()) << ok.status().ToString();
  EXPECT_EQ(ok->NumFacts(), 1u);
  EXPECT_EQ(ok->ToString(u), "R(" + at + ").\n");
  EXPECT_FALSE(
      ParseInstance(u, "R(" + NestedPacks(kMaxPackNesting + 1) + ").").ok());
}

TEST(RobustnessTest, DeepPackValueRenders) {
  // The parser caps nesting, but a value built through the API or read
  // from a segment file never passes it. The renderer walks packs
  // without recursion, so 200,000 levels render (they used to overflow
  // the stack). Each level is <inner>·b around an empty innermost path,
  // so the walk also resumes in every enclosing path after a pack.
  constexpr size_t kDepth = 200000;
  Universe u;
  Value b = Value::Atom(u.InternAtom("b"));
  PathId p = kEmptyPath;
  for (size_t i = 0; i < kDepth; ++i) {
    p = u.InternPath(std::vector<Value>{Value::Packed(p), b});
  }
  std::string want(kDepth, '<');
  want += "()";
  for (size_t i = 0; i < kDepth; ++i) want += ">·b";
  EXPECT_EQ(u.FormatPath(p), want);
  Instance inst;
  RelId r = *u.InternRel("R", 1);
  inst.Add(r, {p});
  EXPECT_EQ(inst.ToString(u), "R(" + want + ").\n");
}

// --- Validation failures ------------------------------------------------------

class UnsafeRuleTest : public ::testing::TestWithParam<const char*> {};

TEST_P(UnsafeRuleTest, Rejected) {
  Universe u;
  Result<Program> p = ParseProgram(u, GetParam());
  ASSERT_TRUE(p.ok()) << GetParam();
  EXPECT_FALSE(ValidateProgram(u, *p).ok()) << GetParam();
}

INSTANTIATE_TEST_SUITE_P(
    Cases, UnsafeRuleTest,
    ::testing::Values(
        "S($y) <- R($x).",                    // head var unbound
        "S($x) <- !R($x).",                   // only negated binding
        "S($x) <- R($y), $x != $y.",          // nonequality doesn't bind
        "S($x) <- R($y), $x ++ a = a ++ $x.", // two-sided variable
        "S(@x) <- R($y), !T(@x ++ $y).",      // negated atom var unbound
        "A <- R($x), !T($z)."                 // negated-only variable
        ));

// --- Transformation preconditions ----------------------------------------------

TEST(PreconditionTest, AllTransformsRejectWhatTheyMust) {
  Universe u;
  Result<Program> recursive =
      ParseProgram(u, "S($x) <- R($x). S(a ++ $x) <- S($x).");
  ASSERT_TRUE(recursive.ok());
  EXPECT_EQ(EliminatePackingNonrecursive(u, *recursive).status().code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(ToNormalForm(u, *recursive).status().code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(
      FoldIntermediates(u, *recursive, *u.FindRel("S")).status().code(),
      StatusCode::kFailedPrecondition);
  EXPECT_EQ(DatalogToAlgebra(u, *recursive, *u.FindRel("S")).status().code(),
            StatusCode::kFailedPrecondition);

  Universe u2;
  Result<Program> wide_edb = ParseProgram(u2, "S($x) <- D($x, $y, $z).");
  ASSERT_TRUE(wide_edb.ok());
  EXPECT_EQ(EliminateArity(u2, *wide_edb).status().code(),
            StatusCode::kFailedPrecondition);

  Universe u3;
  Result<Program> with_neq = ParseProgram(u3, "S($x) <- R($x), $x != a.");
  ASSERT_TRUE(with_neq.ok());
  EXPECT_EQ(EliminatePositiveEquations(u3, *with_neq).status().code(),
            StatusCode::kFailedPrecondition);
}

TEST(PreconditionTest, FoldRequiresExistingOutput) {
  Universe u;
  Result<Program> p = ParseProgram(u, "T($x) <- R($x).");
  ASSERT_TRUE(p.ok());
  RelId other = u.FreshRel("Other", 1);
  EXPECT_EQ(FoldIntermediates(u, *p, other).status().code(),
            StatusCode::kInvalidArgument);
}

// --- Engine degenerate cases ----------------------------------------------------

TEST(DegenerateTest, EmptyProgramOnEmptyInstance) {
  Universe u;
  Program p;
  p.strata.emplace_back();
  Result<PreparedProgram> prog = Engine::Compile(u, p);
  ASSERT_TRUE(prog.ok()) << prog.status().ToString();
  Result<Instance> out = prog->Run(Instance{});
  ASSERT_TRUE(out.ok());
  EXPECT_TRUE(out->Empty());
}

TEST(DegenerateTest, ProgramOnEmptyInstance) {
  Universe u;
  Result<Program> p = ParseProgram(u, "S($x) <- R($x), a ++ $x = $x ++ a.");
  ASSERT_TRUE(p.ok());
  Result<PreparedProgram> prog = Engine::Compile(u, *p);
  ASSERT_TRUE(prog.ok()) << prog.status().ToString();
  Result<Instance> out = prog->Run(Instance{});
  ASSERT_TRUE(out.ok());
  EXPECT_TRUE(out->Empty());
}

TEST(DegenerateTest, PreexistingIdbFactsAreKept) {
  Universe u;
  Result<Program> p = ParseProgram(u, "S($x) <- R($x).");
  ASSERT_TRUE(p.ok());
  Result<Instance> in = ParseInstance(u, "R(a). S(z).");
  ASSERT_TRUE(in.ok());
  Result<PreparedProgram> prog = Engine::Compile(u, *p);
  ASSERT_TRUE(prog.ok()) << prog.status().ToString();
  Result<Instance> out = prog->Run(*in);
  ASSERT_TRUE(out.ok());
  RelId s = *u.FindRel("S");
  EXPECT_EQ(out->Tuples(s).size(), 2u);
}

TEST(DegenerateTest, EmptyPathsEverywhere) {
  Universe u;
  Result<Program> p = ParseProgram(
      u, "S($x ++ $y) <- R($x), R($y), $x = $y.");
  ASSERT_TRUE(p.ok());
  Result<Instance> in = ParseInstance(u, "R(eps).");
  ASSERT_TRUE(in.ok());
  Result<PreparedProgram> prog = Engine::Compile(u, *p);
  ASSERT_TRUE(prog.ok()) << prog.status().ToString();
  Result<Instance> out = prog->Run(*in);
  ASSERT_TRUE(out.ok());
  EXPECT_TRUE(out->Contains(*u.FindRel("S"), {kEmptyPath}));
}

TEST(DegenerateTest, ZeroBudgetsFailFast) {
  Universe u;
  Result<Program> p = ParseProgram(u, "S($x) <- R($x).");
  ASSERT_TRUE(p.ok());
  Result<Instance> in = ParseInstance(u, "R(a).");
  ASSERT_TRUE(in.ok());
  Result<PreparedProgram> prog = Engine::Compile(u, *p);
  ASSERT_TRUE(prog.ok()) << prog.status().ToString();
  RunOptions opts;
  opts.max_facts = 0;
  Result<Instance> out = prog->Run(*in, opts);
  EXPECT_EQ(out.status().code(), StatusCode::kResourceExhausted);
}

TEST(DegenerateTest, SelfEquationTautology) {
  Universe u;
  Result<Program> p = ParseProgram(u, "S($x) <- R($x), $x = $x.");
  ASSERT_TRUE(p.ok());
  Result<Instance> in = ParseInstance(u, "R(a ++ b).");
  ASSERT_TRUE(in.ok());
  Result<PreparedProgram> prog = Engine::Compile(u, *p);
  ASSERT_TRUE(prog.ok()) << prog.status().ToString();
  Result<Instance> out = prog->Run(*in);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->Tuples(*u.FindRel("S")).size(), 1u);
}

// --- Unifier robustness ----------------------------------------------------------

TEST(UnifierRobustnessTest, DivergentFamiliesAreReported) {
  Universe u;
  // $x·w = w·$x diverges for any nonempty w over a single letter.
  for (const char* w : {"a", "a ++ a", "a ++ b"}) {
    Result<PathExpr> we = ParsePathExpr(u, w);
    ASSERT_TRUE(we.ok());
    PathExpr x = VarExpr(u, u.InternVar(VarKind::kPath, "x"));
    PathExpr lhs = ConcatExpr(x, *we);
    PathExpr rhs = ConcatExpr(*we, x);
    Result<UnifyResult> res = UnifyExprs(u, lhs, rhs);
    EXPECT_FALSE(res.ok()) << w;
  }
}

TEST(UnifierRobustnessTest, DeeplyNestedPacksTerminate) {
  Universe u;
  PathExpr lhs = VarExpr(u, u.InternVar(VarKind::kPath, "z"));
  PathExpr rhs = ConstExpr(Value::Atom(u.InternAtom("a")));
  for (int i = 0; i < 12; ++i) {
    lhs = PackExpr(lhs);
    rhs = PackExpr(rhs);
  }
  Result<UnifyResult> res = UnifyExprs(u, lhs, rhs);
  ASSERT_TRUE(res.ok()) << res.status().ToString();
  ASSERT_EQ(res->solutions.size(), 1u);
}

TEST(UnifierRobustnessTest, ClosureVariableCapIsEnforced) {
  Universe u;
  PathExpr lhs, rhs;
  for (int i = 0; i < 25; ++i) {
    lhs.items.push_back(ExprItem::PathVar(
        u.InternVar(VarKind::kPath, "v" + std::to_string(i))));
  }
  rhs = ConstExpr(Value::Atom(u.InternAtom("a")));
  Result<UnifyResult> res = UnifyExprs(u, lhs, rhs);
  EXPECT_EQ(res.status().code(), StatusCode::kResourceExhausted);
}

// --- Stratifier corner cases -----------------------------------------------------

TEST(StratifierRobustnessTest, AlreadyStratifiedIsStable) {
  Universe u;
  Result<Program> p = ParseProgram(u,
                                   "W(@x) <- R(@x), !B(@x).\n"
                                   "---\n"
                                   "S(@x) <- R(@x), !W(@x).\n");
  ASSERT_TRUE(p.ok());
  Result<Program> q = Restratify(*p);
  ASSERT_TRUE(q.ok());
  EXPECT_EQ(q->strata.size(), 2u);
  EXPECT_TRUE(ValidateProgram(u, *q).ok());
}

TEST(StratifierRobustnessTest, DeepNegationChain) {
  Universe u;
  std::string text = "P0($x) <- R($x).\n";
  for (int i = 1; i <= 6; ++i) {
    text += "P" + std::to_string(i) + "($x) <- R($x), !P" +
            std::to_string(i - 1) + "($x).\n";
  }
  Result<Program> flat = ParseProgram(u, text);
  ASSERT_TRUE(flat.ok());
  std::vector<Rule> rules;
  for (const Rule* r : flat->AllRules()) rules.push_back(*r);
  Result<Program> p = AutoStratify(rules);
  ASSERT_TRUE(p.ok());
  EXPECT_EQ(p->strata.size(), 7u);
  EXPECT_TRUE(ValidateProgram(u, *p).ok());
  // Alternating chain: P_i holds R's fact iff i is even.
  Result<Instance> in = ParseInstance(u, "R(a).");
  ASSERT_TRUE(in.ok());
  Result<PreparedProgram> prog = Engine::Compile(u, *p);
  ASSERT_TRUE(prog.ok()) << prog.status().ToString();
  Result<Instance> out = prog->Run(*in);
  ASSERT_TRUE(out.ok());
  for (int i = 0; i <= 6; ++i) {
    RelId rel = *u.FindRel("P" + std::to_string(i));
    EXPECT_EQ(out->Contains(rel, {u.PathOfChars("a")}), i % 2 == 0) << i;
  }
}

}  // namespace
}  // namespace seqdl
