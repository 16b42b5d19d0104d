#include <gtest/gtest.h>

#include "src/analysis/features.h"
#include "src/engine/engine.h"
#include "src/engine/instance.h"
#include "src/syntax/parser.h"
#include "src/syntax/printer.h"
#include "src/term/universe.h"
#include "src/transform/two_bounded.h"
#include "src/workload/generators.h"
#include "tests/test_support.h"

namespace seqdl {
namespace {

TEST(TwoBoundedTest, CheckAcceptsAndRejects) {
  Universe u;
  EXPECT_TRUE(CheckTwoBounded(u, MustInstance(u, "R(a). R(a ++ b).")).ok());
  EXPECT_FALSE(
      CheckTwoBounded(u, MustInstance(u, "Q(a ++ b ++ c).")).ok());
  EXPECT_FALSE(CheckTwoBounded(u, MustInstance(u, "P(eps).")).ok());
  EXPECT_FALSE(CheckTwoBounded(u, MustInstance(u, "W(<a>).")).ok());
}

TEST(TwoBoundedTest, EncodingSplitsByLength) {
  Universe u;
  Instance i = MustInstance(u, "R(a). R(b ++ c). R(d).");
  ClassicalEncoding enc;
  Result<Instance> ic = EncodeTwoBounded(u, i, &enc);
  ASSERT_TRUE(ic.ok()) << ic.status().ToString();
  auto [r1, r2] = enc.rels.at(*u.FindRel("R"));
  EXPECT_EQ(ic->Tuples(r1).size(), 2u);  // a, d
  EXPECT_EQ(ic->Tuples(r2).size(), 1u);  // (b, c)
  EXPECT_TRUE(
      ic->Contains(r2, {u.PathOfChars("b"), u.PathOfChars("c")}));
}

// Runs both the original program and its classical simulation on a
// two-bounded instance and compares the encoded outputs for relation `S`.
void ExpectSimulationAgrees(const std::string& program_text,
                            const std::string& instance_text) {
  Universe u;
  Program p = MustParse(u, program_text);
  ClassicalEncoding enc;
  Result<Program> pc = SimulateTwoBounded(u, p, &enc);
  ASSERT_TRUE(pc.ok()) << pc.status().ToString();

  Instance i = MustInstance(u, instance_text);
  Result<Instance> ic = EncodeTwoBounded(u, i, &enc);
  ASSERT_TRUE(ic.ok()) << ic.status().ToString();

  Result<PreparedProgram> direct_prog = Engine::Compile(u, p);
  Result<PreparedProgram> classical_prog = Engine::Compile(u, *pc);
  ASSERT_TRUE(direct_prog.ok()) << direct_prog.status().ToString();
  ASSERT_TRUE(classical_prog.ok()) << classical_prog.status().ToString();
  Result<Instance> direct = direct_prog->Run(i);
  Result<Instance> classical = classical_prog->Run(*ic);
  ASSERT_TRUE(direct.ok()) << direct.status().ToString();
  ASSERT_TRUE(classical.ok()) << classical.status().ToString();

  // Encode the direct output of S and compare against the classical S1/S2.
  RelId s = *u.FindRel("S");
  auto it = enc.rels.find(s);
  ASSERT_NE(it, enc.rels.end());
  auto [s1, s2] = it->second;
  Instance direct_s = direct->Project({s});
  ClassicalEncoding out_enc = enc;
  Result<Instance> direct_encoded = EncodeTwoBounded(u, direct_s, &out_enc);
  ASSERT_TRUE(direct_encoded.ok())
      << "output is not two-bounded: " << direct_encoded.status().ToString();
  EXPECT_EQ(direct_encoded->Tuples(s1), classical->Tuples(s1))
      << "S1 mismatch\ndirect:\n"
      << direct_encoded->ToString(u) << "classical:\n"
      << classical->Project({s1, s2}).ToString(u);
  EXPECT_EQ(direct_encoded->Tuples(s2), classical->Tuples(s2))
      << "S2 mismatch";
}

TEST(TwoBoundedTest, SemipositiveWithNegation) {
  // Edges with only-black targets, in a single-IDB form.
  ExpectSimulationAgrees(
      "S(@x) <- R(@x ++ @y), !B(@y).\n",
      "R(a ++ b). R(c ++ d). R(d ++ d). B(b). B(d).");
}

TEST(TwoBoundedTest, RecursiveTransitiveClosure) {
  ExpectSimulationAgrees(
      "S(@x ++ @y) <- R(@x ++ @y).\n"
      "S(@x ++ @z) <- S(@x ++ @y), R(@y ++ @z).\n",
      "R(a ++ b). R(b ++ c). R(c ++ a). R(d ++ d).");
}

TEST(TwoBoundedTest, PathVariablesAreEliminated) {
  // $x in a predicate becomes ϵ / one / two atomic variables.
  ExpectSimulationAgrees("S($x) <- R($x).\n",
                         "R(a). R(b ++ c).");
}

TEST(TwoBoundedTest, EquationsAreResiduated) {
  // $x is bound through an equation against a path-variable-free side.
  ExpectSimulationAgrees(
      "S(@a ++ $y) <- R($x), $x = @a ++ $y, Q(@a).\n",
      "R(a ++ b). R(c ++ d). R(b). Q(a). Q(b).");
}

TEST(TwoBoundedTest, NegatedEquationsSplit) {
  ExpectSimulationAgrees(
      "S(@x ++ @y) <- R(@x ++ @y), @x != @y.\n",
      "R(a ++ b). R(c ++ c). R(d ++ e).");
}

TEST(TwoBoundedTest, GroundEquationConstants) {
  ExpectSimulationAgrees(
      "S(@x) <- R(@x ++ @y), @y = b.\n",
      "R(a ++ b). R(c ++ d).");
}

TEST(TwoBoundedTest, RandomizedGraphDifferential) {
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    Universe u;
    Program p = MustParse(u,
                          "S(@x ++ @y) <- R(@x ++ @y).\n"
                          "S(@x ++ @z) <- S(@x ++ @y), R(@y ++ @z).\n");
    ClassicalEncoding enc;
    Result<Program> pc = SimulateTwoBounded(u, p, &enc);
    ASSERT_TRUE(pc.ok());
    GraphWorkload gw;
    gw.nodes = 6;
    gw.edges = 8;
    gw.seed = seed;
    Result<Instance> i = GraphToInstance(u, RandomGraph(gw), "R");
    ASSERT_TRUE(i.ok());
    Result<Instance> ic = EncodeTwoBounded(u, *i, &enc);
    ASSERT_TRUE(ic.ok());
    Result<PreparedProgram> direct_prog = Engine::Compile(u, p);
    Result<PreparedProgram> classical_prog = Engine::Compile(u, *pc);
    ASSERT_TRUE(direct_prog.ok()) << direct_prog.status().ToString();
    ASSERT_TRUE(classical_prog.ok()) << classical_prog.status().ToString();
    Result<Instance> direct = direct_prog->Run(*i);
    Result<Instance> classical = classical_prog->Run(*ic);
    ASSERT_TRUE(direct.ok());
    ASSERT_TRUE(classical.ok());
    RelId s = *u.FindRel("S");
    auto [s1, s2] = enc.rels.at(s);
    (void)s1;
    EXPECT_EQ(direct->Tuples(s).size(), classical->Tuples(s2).size())
        << "seed " << seed;
  }
}

TEST(TwoBoundedTest, OutputIsClassical) {
  Universe u;
  Program p = MustParse(u,
                        "S(@x) <- R(@x ++ @y), !B(@y), @x != @y.\n"
                        "S(@x ++ @y) <- R(@x ++ @y), R(@y ++ @x).\n");
  ClassicalEncoding enc;
  Result<Program> pc = SimulateTwoBounded(u, p, &enc);
  ASSERT_TRUE(pc.ok()) << pc.status().ToString();
  // No path variables, no packing, no predicates over the original
  // relations, and no multi-item equations.
  for (const Rule* r : pc->AllRules()) {
    std::vector<VarId> vars;
    CollectVars(*r, &vars);
    for (VarId v : vars) {
      EXPECT_EQ(u.VarKindOf(v), VarKind::kAtomic) << FormatRule(u, *r);
    }
    EXPECT_FALSE(RuleHasPacking(*r));
    for (const Literal& l : r->body) {
      if (l.is_equation()) {
        EXPECT_LE(l.lhs.items.size(), 1u) << FormatRule(u, *r);
        EXPECT_LE(l.rhs.items.size(), 1u) << FormatRule(u, *r);
      }
    }
  }
}

TEST(TwoBoundedTest, RejectsArityAndPacking) {
  Universe u;
  Program arity = MustParse(u, "S($x) <- R($x, $y).");
  ClassicalEncoding enc;
  EXPECT_EQ(SimulateTwoBounded(u, arity, &enc).status().code(),
            StatusCode::kFailedPrecondition);
  Universe u2;
  Program packing = MustParse(u2, "S(<$x>) <- R($x).");
  ClassicalEncoding enc2;
  EXPECT_EQ(SimulateTwoBounded(u2, packing, &enc2).status().code(),
            StatusCode::kFailedPrecondition);
}

}  // namespace
}  // namespace seqdl
