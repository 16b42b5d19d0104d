#include <gtest/gtest.h>

#include "src/analysis/features.h"
#include "src/engine/engine.h"
#include "src/engine/instance.h"
#include "src/syntax/parser.h"
#include "src/syntax/printer.h"
#include "src/term/universe.h"
#include "src/transform/arity_elim.h"
#include "src/transform/doubling.h"
#include "src/transform/equation_elim.h"
#include "src/transform/fold_intermediates.h"
#include "src/transform/normal_form.h"
#include "src/transform/rewrite.h"
#include "src/transform/simplify.h"
#include "src/workload/generators.h"
#include "tests/test_support.h"

namespace seqdl {
namespace {

// Asserts that two programs compute the same facts for `rel` on `input`.
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
  Instance s1 = o1->Project({out_rel});
  Instance s2 = o2->Project({out_rel});
  EXPECT_EQ(s1, s2) << "original:\n"
                    << s1.ToString(u) << "transformed:\n"
                    << s2.ToString(u);
}

// --- Lemma 4.1 pairing encoding ---------------------------------------------

TEST(PairEncodeTest, InjectiveOnSamples) {
  Universe u;
  Value a = Value::Atom(u.InternAtom("0"));
  Value b = Value::Atom(u.InternAtom("1"));
  // Paths over {a, b, 0, 1} — the encoding must stay injective even when
  // the separator atoms occur in the data (Lemma 4.1).
  std::vector<std::string> samples = {"",   "a",  "b",   "0",  "1",
                                      "ab", "a0", "0a",  "01", "10",
                                      "aa", "b1", "0ab", "ba"};
  std::map<PathId, std::pair<std::string, std::string>> seen;
  for (const std::string& s1 : samples) {
    for (const std::string& s2 : samples) {
      PathExpr e = PairEncode(ExprOfPath(u, u.PathOfChars(s1)),
                              ExprOfPath(u, u.PathOfChars(s2)), a, b);
      Result<PathId> p = EvalGroundExpr(u, e);
      ASSERT_TRUE(p.ok());
      auto [it, inserted] = seen.emplace(*p, std::make_pair(s1, s2));
      EXPECT_TRUE(inserted) << "collision: (" << s1 << "," << s2 << ") vs ("
                            << it->second.first << "," << it->second.second
                            << ")";
    }
  }
}

// --- Theorem 4.2: arity elimination -------------------------------------------

TEST(ArityElimTest, RemovesArityFeature) {
  Universe u;
  Program p = MustParse(u,
                        "T($x, eps) <- R($x).\n"
                        "T($x, $y ++ @u) <- T($x ++ @u, $y).\n"
                        "S($x) <- T(eps, $x).\n");
  EXPECT_TRUE(DetectFeatures(p).Contains(Feature::kArity));
  Result<Program> q = EliminateArity(u, p);
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  EXPECT_FALSE(DetectFeatures(*q).Contains(Feature::kArity));
  // The other features are untouched.
  EXPECT_TRUE(DetectFeatures(*q).Contains(Feature::kRecursion));
  EXPECT_TRUE(DetectFeatures(*q).Contains(Feature::kIntermediate));
}

TEST(ArityElimTest, ReversalStillCorrect) {
  Universe u;
  Program p = MustParse(u,
                        "T($x, eps) <- R($x).\n"
                        "T($x, $y ++ @u) <- T($x ++ @u, $y).\n"
                        "S($x) <- T(eps, $x).\n");
  Result<Program> q = EliminateArity(u, p);
  ASSERT_TRUE(q.ok());
  Instance in = MustInstance(u, "R(a ++ b ++ c ++ d). R(eps). R(b).");
  ExpectSameOutput(u, p, *q, "S", in);
}

TEST(ArityElimTest, MatchesPaperHandEncodingSemantics) {
  // The paper's hand-encoded program (Example 4.3) and our mechanical
  // elimination must both compute reversal.
  Universe u;
  Program hand = MustParse(
      u,
      "T($x ++ a ++ a ++ $x ++ b) <- R($x).\n"
      "T($x ++ a ++ $y ++ @u ++ a ++ $x ++ b ++ $y ++ @u) <- "
      "T($x ++ @u ++ a ++ $y ++ a ++ $x ++ @u ++ b ++ $y).\n"
      "S($x) <- T(a ++ $x ++ a ++ b ++ $x).\n");
  Instance in = MustInstance(u, "R(c ++ d ++ e). R(eps).");
  Result<PreparedProgram> prog = Engine::Compile(u, hand);
  ASSERT_TRUE(prog.ok()) << prog.status().ToString();
  Result<Instance> out = prog->Run(in);
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  RelId s = *u.FindRel("S");
  EXPECT_TRUE(out->Contains(s, {u.PathOfChars("edc")}));
  EXPECT_TRUE(out->Contains(s, {kEmptyPath}));
  EXPECT_EQ(out->Tuples(s).size(), 2u);
}

TEST(ArityElimTest, TernaryRelations) {
  Universe u;
  Program p = MustParse(u,
                        "T($x, $y, $z) <- R($x ++ $y ++ $z).\n"
                        "S($y) <- T($x, $y, $x).\n");
  Result<Program> q = EliminateArity(u, p);
  ASSERT_TRUE(q.ok());
  EXPECT_FALSE(DetectFeatures(*q).Contains(Feature::kArity));
  Instance in = MustInstance(u, "R(a ++ b ++ a). R(a ++ b ++ c).");
  ExpectSameOutput(u, p, *q, "S", in);
}

TEST(ArityElimTest, NegatedIdbPredicatesAreRewritten) {
  Universe u;
  Program p = MustParse(u,
                        "T($x, $y) <- R($x ++ $y).\n"
                        "---\n"
                        "S($x) <- R($x), !T($x, $x).\n");
  Result<Program> q = EliminateArity(u, p);
  ASSERT_TRUE(q.ok());
  EXPECT_FALSE(DetectFeatures(*q).Contains(Feature::kArity));
  Instance in = MustInstance(u, "R(a ++ a). R(a). R(b).");
  ExpectSameOutput(u, p, *q, "S", in);
}

TEST(ArityElimTest, RejectsWideEdb) {
  Universe u;
  Program p = MustParse(u, "S($x) <- D($x, $y, $z).");
  Result<Program> q = EliminateArity(u, p);
  ASSERT_FALSE(q.ok());
  EXPECT_EQ(q.status().code(), StatusCode::kFailedPrecondition);
}

// --- Lemma 4.5 / Theorem 4.7: equation elimination ----------------------------

TEST(EquationElimTest, PositiveOnlyAs) {
  Universe u;
  Program p = MustParse(u, "S($x) <- R($x), a ++ $x = $x ++ a.");
  Result<Program> q = EliminatePositiveEquations(u, p);
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  EXPECT_FALSE(DetectFeatures(*q).Contains(Feature::kEquations));
  EXPECT_TRUE(DetectFeatures(*q).Contains(Feature::kIntermediate));
  Instance in = MustInstance(u, "R(a ++ a). R(a ++ b). R(eps).");
  ExpectSameOutput(u, p, *q, "S", in);
}

TEST(EquationElimTest, PositiveMatchesPaperShape) {
  // Example 4.4 produces: T(a·$x, $x) <- R($x).  S($x) <- T($x·a, $x).
  Universe u;
  Program p = MustParse(u, "S($x) <- R($x), a ++ $x = $x ++ a.");
  Result<Program> q = EliminatePositiveEquations(u, p);
  ASSERT_TRUE(q.ok());
  ASSERT_EQ(q->NumRules(), 2u);
  const Rule& aux = q->strata[0].rules[0];
  const Rule& main = q->strata[0].rules[1];
  EXPECT_EQ(aux.head.args.size(), 2u);
  ASSERT_EQ(main.body.size(), 1u);
  EXPECT_TRUE(main.body[0].is_predicate());
  EXPECT_EQ(main.body[0].pred.rel, aux.head.rel);
}

TEST(EquationElimTest, MultipleChainedEquations) {
  Universe u;
  Program p =
      MustParse(u, "S($z) <- R($x), $x = $y ++ a, $y ++ $y = $z.");
  Result<Program> q = EliminateEquations(u, p);
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  EXPECT_FALSE(DetectFeatures(*q).Contains(Feature::kEquations));
  Instance in = MustInstance(u, "R(b ++ a). R(a). R(b).");
  ExpectSameOutput(u, p, *q, "S", in);
}

TEST(EquationElimTest, NegatedEquationsInRecursiveStratum) {
  // Example 4.6: the marked-pair query.
  Universe u;
  Program p = MustParse(u,
                        "U($x, $x) <- R($x).\n"
                        "U($x, $y) <- U($x, @a ++ $y ++ @b), @a != @b.\n"
                        "S($x) <- U($x, eps).\n");
  Result<Program> q = EliminateEquations(u, p);
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  EXPECT_FALSE(DetectFeatures(*q).Contains(Feature::kEquations));
  Instance in = MustInstance(
      u, "R(a ++ b). R(a ++ a). R(a ++ b ++ a ++ b). R(a ++ b ++ b ++ a). "
         "R(eps). R(a).");
  ExpectSameOutput(u, p, *q, "S", in);
}

TEST(EquationElimTest, Example46StructureHasPreStratum) {
  Universe u;
  Program p = MustParse(u,
                        "U($x, $x) <- R($x).\n"
                        "U($x, $y) <- U($x, @a ++ $y ++ @b), @a != @b.\n"
                        "S($x) <- U($x, eps).\n");
  Result<Program> q = EliminateNegatedEquations(u, p);
  ASSERT_TRUE(q.ok());
  // One stratum becomes two: the renamed pre-stratum plus the fixed one.
  ASSERT_EQ(q->strata.size(), 2u);
  // The pre-stratum has 4 rules (two renamed U rules, one T rule, one
  // renamed S rule); the fixed stratum has the original 3.
  EXPECT_EQ(q->strata[0].rules.size(), 4u);
  EXPECT_EQ(q->strata[1].rules.size(), 3u);
  // No negated equations remain anywhere.
  for (const Rule* r : q->AllRules()) {
    for (const Literal& l : r->body) {
      EXPECT_FALSE(l.is_equation() && l.negated) << FormatRule(u, *r);
    }
  }
}

TEST(EquationElimTest, NegatedEquationWithNegatedPredicates) {
  Universe u;
  Program p = MustParse(u,
                        "T($x) <- R($x), $x != a ++ a, !Q($x).\n"
                        "---\n"
                        "S($x) <- T($x).\n");
  Result<Program> q = EliminateEquations(u, p);
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  EXPECT_FALSE(DetectFeatures(*q).Contains(Feature::kEquations));
  Instance in = MustInstance(u, "R(a ++ a). R(a ++ b). R(a). Q(a).");
  ExpectSameOutput(u, p, *q, "S", in);
}

TEST(EquationElimTest, GroundEquationBothSides) {
  Universe u;
  Program p = MustParse(u, "S($x) <- R($x), a ++ b = a ++ b.");
  Result<Program> q = EliminateEquations(u, p);
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  Instance in = MustInstance(u, "R(a).");
  ExpectSameOutput(u, p, *q, "S", in);
}

// --- Theorem 4.16: folding away intermediate predicates -----------------------

TEST(FoldTest, SimpleChain) {
  Universe u;
  Program p = MustParse(u,
                        "T($x) <- R($x ++ a).\n"
                        "S($x ++ b) <- T($x).\n");
  Result<Program> q = FoldIntermediates(u, p, *u.FindRel("S"));
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  EXPECT_FALSE(DetectFeatures(*q).Contains(Feature::kIntermediate));
  EXPECT_EQ(IdbRels(*q).size(), 1u);
  Instance in = MustInstance(u, "R(c ++ a). R(a). R(c).");
  ExpectSameOutput(u, p, *q, "S", in);
}

TEST(FoldTest, MultipleDefiningRulesCrossProduct) {
  Universe u;
  Program p = MustParse(u,
                        "T($x) <- R(a ++ $x).\n"
                        "T($x) <- R(b ++ $x).\n"
                        "S($x) <- T($x), T($x ++ c).\n");
  Result<Program> q = FoldIntermediates(u, p, *u.FindRel("S"));
  ASSERT_TRUE(q.ok());
  EXPECT_FALSE(DetectFeatures(*q).Contains(Feature::kIntermediate));
  // 2 defining rules x 2 occurrences = 4 folded rules.
  EXPECT_EQ(q->NumRules(), 4u);
  Instance in = MustInstance(
      u, "R(a ++ d). R(b ++ d ++ c). R(a ++ d ++ c). R(b ++ e).");
  ExpectSameOutput(u, p, *q, "S", in);
}

TEST(FoldTest, DeepChainWithEquationsAndPacking) {
  Universe u;
  Program p = MustParse(u,
                        "T1(<$x>) <- R($x).\n"
                        "T2($y ++ $y) <- T1($y).\n"
                        "S($z) <- T2($z).\n");
  Result<Program> q = FoldIntermediates(u, p, *u.FindRel("S"));
  ASSERT_TRUE(q.ok());
  EXPECT_EQ(IdbRels(*q).size(), 1u);
  Instance in = MustInstance(u, "R(a ++ b). R(eps).");
  ExpectSameOutput(u, p, *q, "S", in);
}

TEST(FoldTest, RejectsRecursion) {
  Universe u;
  Program p = MustParse(u, "S($x) <- R($x). S(a ++ $x) <- S($x).");
  Result<Program> q = FoldIntermediates(u, p, *u.FindRel("S"));
  ASSERT_FALSE(q.ok());
  EXPECT_EQ(q.status().code(), StatusCode::kFailedPrecondition);
}

TEST(FoldTest, RejectsNegatedIdb) {
  Universe u;
  Program p = MustParse(u,
                        "T($x) <- R($x).\n"
                        "---\n"
                        "S($x) <- R($x), !T($x ++ a).\n");
  Result<Program> q = FoldIntermediates(u, p, *u.FindRel("S"));
  ASSERT_FALSE(q.ok());
  EXPECT_EQ(q.status().code(), StatusCode::kFailedPrecondition);
}

TEST(FoldTest, ArityZeroIntermediate) {
  Universe u;
  Program p = MustParse(u,
                        "Nonempty <- R($x).\n"
                        "S(a) <- Nonempty.\n");
  Result<Program> q = FoldIntermediates(u, p, *u.FindRel("S"));
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  Instance in = MustInstance(u, "R(b).");
  ExpectSameOutput(u, p, *q, "S", in);
  Instance empty;
  ExpectSameOutput(u, p, *q, "S", empty);
}

// --- Theorem 4.15: doubling -----------------------------------------------------

TEST(DoublingTest, DoublePathGroundRoundTrip) {
  Universe u;
  Value lb = Value::Atom(u.InternAtom("LB"));
  Value rb = Value::Atom(u.InternAtom("RB"));
  EXPECT_EQ(DoublePath(u, u.PathOfChars("abc"), lb, rb),
            u.PathOfChars("aabbcc"));
  // Packed values become delimited segments.
  PathId packed = u.Append(u.PathOfChars("c"),
                           Value::Packed(u.PathOfChars("ab")));
  PathId doubled = DoublePath(u, packed, lb, rb);
  EXPECT_EQ(u.FormatPath(doubled), "c·c·LB·a·a·b·b·RB");
}

TEST(DoublingTest, DoublingRulesComputeDoubledPaths) {
  Universe u;
  RelId r = *u.InternRel("R", 1);
  RelId rd = *u.InternRel("Rdbl", 1);
  Program p;
  p.strata.emplace_back();
  p.strata.back().rules = DoubleRelationRules(u, r, rd);
  Instance in = MustInstance(u, "R(a ++ b). R(eps).");
  Result<PreparedProgram> prog = Engine::Compile(u, p);
  ASSERT_TRUE(prog.ok()) << prog.status().ToString();
  Result<Instance> out = prog->Run(in);
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  EXPECT_EQ(out->Tuples(rd).size(), 2u);
  EXPECT_TRUE(out->Contains(rd, {u.PathOfChars("aabb")}));
  EXPECT_TRUE(out->Contains(rd, {kEmptyPath}));
}

TEST(DoublingTest, UndoublingInverts) {
  Universe u;
  RelId r = *u.InternRel("Rd", 1);
  RelId back = *u.InternRel("Back", 1);
  Program p;
  p.strata.emplace_back();
  p.strata.back().rules = UndoubleRelationRules(u, r, back);
  Instance in = MustInstance(u, "Rd(a ++ a ++ b ++ b).");
  Result<PreparedProgram> prog = Engine::Compile(u, p);
  ASSERT_TRUE(prog.ok()) << prog.status().ToString();
  Result<Instance> out = prog->Run(in);
  ASSERT_TRUE(out.ok());
  EXPECT_TRUE(out->Contains(back, {u.PathOfChars("ab")}));
  EXPECT_EQ(out->Tuples(back).size(), 1u);
}

TEST(DoublingTest, UndoublingIgnoresNonDoubledJunk) {
  Universe u;
  RelId r = *u.InternRel("Rd", 1);
  RelId back = *u.InternRel("Back", 1);
  Program p;
  p.strata.emplace_back();
  p.strata.back().rules = UndoubleRelationRules(u, r, back);
  Instance in = MustInstance(u, "Rd(a ++ b). Rd(a ++ a ++ b).");
  Result<PreparedProgram> prog = Engine::Compile(u, p);
  ASSERT_TRUE(prog.ok()) << prog.status().ToString();
  Result<Instance> out = prog->Run(in);
  ASSERT_TRUE(out.ok());
  EXPECT_TRUE(out->Tuples(back).empty());
}

TEST(DoublingTest, EliminatePackingViaDoublingOnExample22) {
  Universe u;
  Program p = MustParse(u,
                        "T($u ++ <$s> ++ $v) <- R($u ++ $s ++ $v), S($s).\n"
                        "A <- T($x), T($y), T($z), $x != $y, $x != $z, "
                        "$y != $z.\n");
  Result<Program> q = EliminatePackingViaDoubling(u, p, *u.FindRel("A"));
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  EXPECT_FALSE(DetectFeatures(*q).Contains(Feature::kPacking));

  // Differential check on several instances.
  std::vector<std::string> instances = {
      "R(a ++ b ++ a ++ b). S(a ++ b). S(b ++ a).",  // 3 marked: true
      "R(a ++ b ++ a ++ b). S(a ++ b).",             // 2 marked: false
      "R(a ++ a ++ a). S(a).",                       // 3 marked: true
      "R(a). S(b).",                                 // none: false
  };
  for (const std::string& text : instances) {
    Instance in = MustInstance(u, text);
    ExpectSameOutput(u, p, *q, "A", in);
  }
}

TEST(DoublingTest, EliminatePackingViaDoublingRecursivePackBuilder) {
  // A recursive program that wraps prefixes in packs and later inspects
  // them; packing is essential to its intermediate state.
  Universe u;
  Program p = MustParse(u,
                        "T(<$x>) <- R($x).\n"
                        "T(<$x>) <- T(<$x ++ @a>).\n"
                        "S($x) <- T(<$x>).\n");
  Result<Program> q = EliminatePackingViaDoubling(u, p, *u.FindRel("S"));
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  EXPECT_FALSE(DetectFeatures(*q).Contains(Feature::kPacking));
  Instance in = MustInstance(u, "R(a ++ b ++ c). R(eps).");
  ExpectSameOutput(u, p, *q, "S", in);
}

// --- Simplification pass --------------------------------------------------------

TEST(SimplifyTest, CopyPropagationRemovesVarEquations) {
  Universe u;
  Result<Rule> r = ParseRule(u, "S($x) <- R($y), $x = $y ++ a.");
  ASSERT_TRUE(r.ok());
  std::optional<Rule> s = SimplifyRule(u, *r);
  ASSERT_TRUE(s.has_value());
  EXPECT_EQ(s->body.size(), 1u);
  EXPECT_EQ(FormatRule(u, *s), "S($y·a) <- R($y).");
}

TEST(SimplifyTest, TrivialEquationsDropped) {
  Universe u;
  Result<Rule> r = ParseRule(u, "S($x) <- R($x), $x = $x, a = a.");
  ASSERT_TRUE(r.ok());
  std::optional<Rule> s = SimplifyRule(u, *r);
  ASSERT_TRUE(s.has_value());
  EXPECT_EQ(s->body.size(), 1u);
}

TEST(SimplifyTest, UnsatisfiableRuleDropped) {
  Universe u;
  Result<Rule> r1 = ParseRule(u, "S($x) <- R($x), a = b.");
  Result<Rule> r2 = ParseRule(u, "S($x) <- R($x), $x != $x.");
  ASSERT_TRUE(r1.ok());
  ASSERT_TRUE(r2.ok());
  EXPECT_FALSE(SimplifyRule(u, *r1).has_value());
  EXPECT_FALSE(SimplifyRule(u, *r2).has_value());
}

TEST(SimplifyTest, AtomVarAbsorbsAtomOnly) {
  Universe u;
  Result<Rule> r = ParseRule(u, "S(@a) <- R(@a ++ @b), @a = @b.");
  ASSERT_TRUE(r.ok());
  std::optional<Rule> s = SimplifyRule(u, *r);
  ASSERT_TRUE(s.has_value());
  EXPECT_EQ(s->body.size(), 1u);
  // @a and @b collapsed to one variable.
  std::vector<VarId> vars;
  CollectVars(*s, &vars);
  EXPECT_EQ(vars.size(), 1u);
}

TEST(SimplifyTest, AlphaEquivalentRulesDeduplicated) {
  Universe u;
  Program p = MustParse(u,
                        "S($x) <- R($x ++ $y).\n"
                        "S($u) <- R($u ++ $w).\n"
                        "S($x) <- R($y ++ $x).\n");
  Program q = SimplifyProgram(u, p);
  EXPECT_EQ(q.NumRules(), 2u);
}

TEST(SimplifyTest, PreservesSemantics) {
  Universe u;
  Program p = MustParse(
      u, "S($x) <- R($y), $x = $y ++ a, $y != b, c = c, $z = $x.");
  Program q = SimplifyProgram(u, p);
  Instance in = MustInstance(u, "R(b). R(c). R(eps).");
  ExpectSameOutput(u, p, q, "S", in);
}

// --- Lemma 7.2: normal form -----------------------------------------------------

TEST(NormalFormTest, ClassifiesForms) {
  struct Case {
    const char* rule;
    int form;
  };
  std::vector<Case> cases = {
      {"H1($x, @u) <- P1($x ++ $x, @u ++ d).", 1},
      {"N1($x, $y, $x ++ a ++ $y) <- H($x, $y).", 2},
      {"J($x, $y, $z) <- H1($x, $y), H2($y, $z).", 3},
      {"FN($x, $y) <- N2($x, $y), !N($y).", 4},
      {"HN($y) <- FN($x, $y).", 5},
      {"R(a ++ b) <- .", 6},
  };
  for (const Case& c : cases) {
    Universe uc;
    Result<Rule> r = ParseRule(uc, c.rule);
    ASSERT_TRUE(r.ok()) << c.rule;
    Result<int> form = NormalFormOf(uc, *r);
    ASSERT_TRUE(form.ok()) << c.rule << ": " << form.status().ToString();
    EXPECT_EQ(*form, c.form) << c.rule;
  }
}

TEST(NormalFormTest, RejectsNonNormalRules) {
  Universe u;
  Result<Rule> r = ParseRule(u, "S($x ++ a) <- R($x), Q($x ++ b).");
  ASSERT_TRUE(r.ok());
  EXPECT_FALSE(NormalFormOf(u, *r).ok());
}

TEST(NormalFormTest, PaperExampleNormalizes) {
  // The general example of Lemma 7.2's proof.
  Universe u;
  Program p = MustParse(
      u,
      "T(a ++ b ++ c, @x ++ c ++ $y, $z ++ $z) <- "
      "P1($y ++ $y, $z ++ a, @u ++ d), P2($z ++ @x ++ c, d), "
      "!N1(@x ++ $y ++ $z, a ++ @x), !N2(a ++ b, $y).\n");
  Result<Program> q = ToNormalForm(u, p);
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  EXPECT_TRUE(ValidateNormalForm(u, *q).ok());
  // Semantics preserved.
  Instance in = MustInstance(
      u,
      "P1(e ++ e, f ++ a, g ++ d). P2(f ++ h ++ c, d). "
      "N1(h ++ e ++ f, a ++ h). N2(a ++ c, e).");
  ExpectSameOutput(u, p, *q, "T", in);
  // And with the first negation firing, T must be empty.
  Instance in2 = MustInstance(
      u,
      "P1(e ++ e, f ++ a, g ++ d). P2(f ++ h ++ c, d). "
      "N1(h ++ e ++ e, a ++ h). N2(a ++ b, e).");
  ExpectSameOutput(u, p, *q, "T", in2);
}

TEST(NormalFormTest, VariableFreeAtomHandled) {
  Universe u;
  Program p = MustParse(u, "S(a) <- Q(b ++ c).");
  Result<Program> q = ToNormalForm(u, p);
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  EXPECT_TRUE(ValidateNormalForm(u, *q).ok());
  Instance has = MustInstance(u, "Q(b ++ c).");
  Instance hasnt = MustInstance(u, "Q(b).");
  ExpectSameOutput(u, p, *q, "S", has);
  ExpectSameOutput(u, p, *q, "S", hasnt);
}

TEST(NormalFormTest, EmptyBodyHandled) {
  Universe u;
  Program p = MustParse(u, "S(a ++ b).");
  Result<Program> q = ToNormalForm(u, p);
  ASSERT_TRUE(q.ok());
  EXPECT_TRUE(ValidateNormalForm(u, *q).ok());
  ExpectSameOutput(u, p, *q, "S", Instance{});
}

TEST(NormalFormTest, ArityZeroNegatedAtom) {
  Universe u;
  Program p = MustParse(u, "Flag <- Q($x).\n---\nS($x) <- R($x), !Flag.");
  Result<Program> q = ToNormalForm(u, p);
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  EXPECT_TRUE(ValidateNormalForm(u, *q).ok());
  Instance in1 = MustInstance(u, "R(a). Q(b).");
  Instance in2 = MustInstance(u, "R(a).");
  ExpectSameOutput(u, p, *q, "S", in1);
  ExpectSameOutput(u, p, *q, "S", in2);
}

TEST(NormalFormTest, RejectsEquationsAndRecursion) {
  Universe u;
  Program with_eq = MustParse(u, "S($x) <- R($x), $x = a.");
  EXPECT_EQ(ToNormalForm(u, with_eq).status().code(),
            StatusCode::kFailedPrecondition);
  Universe u2;
  Program rec = MustParse(u2, "S($x) <- R($x). S(a ++ $x) <- S($x).");
  EXPECT_EQ(ToNormalForm(u2, rec).status().code(),
            StatusCode::kFailedPrecondition);
}

TEST(NormalFormTest, PackingSurvivesNormalization) {
  Universe u;
  Program p = MustParse(u, "S(<$x> ++ $y) <- R($x ++ <$y>).");
  Result<Program> q = ToNormalForm(u, p);
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  EXPECT_TRUE(ValidateNormalForm(u, *q).ok());
  Instance in = MustInstance(u, "R(a ++ <b ++ c>). R(a ++ b).");
  ExpectSameOutput(u, p, *q, "S", in);
}

// --- FreshenVars / rename utilities ---------------------------------------------

TEST(RewriteTest, FreshenVarsRenamesApart) {
  Universe u;
  Result<Rule> r = ParseRule(u, "S($x) <- R($x ++ @y), T($x, @y).");
  ASSERT_TRUE(r.ok());
  Rule fresh = FreshenVars(u, *r);
  std::vector<VarId> orig_vars, fresh_vars;
  CollectVars(*r, &orig_vars);
  CollectVars(fresh, &fresh_vars);
  ASSERT_EQ(orig_vars.size(), fresh_vars.size());
  for (VarId v : fresh_vars) {
    for (VarId o : orig_vars) EXPECT_NE(v, o);
  }
  // Kinds preserved.
  EXPECT_EQ(u.VarKindOf(fresh_vars[1]), VarKind::kAtomic);
}

TEST(RewriteTest, RenameRelsTouchesHeadsAndBodies) {
  Universe u;
  Result<Rule> r = ParseRule(u, "S($x) <- T($x), !T($x ++ a).");
  ASSERT_TRUE(r.ok());
  RelId t = *u.FindRel("T");
  RelId t2 = u.FreshRel("T2", 1);
  Rule renamed = RenameRels(*r, {{t, t2}});
  EXPECT_EQ(renamed.body[0].pred.rel, t2);
  EXPECT_EQ(renamed.body[1].pred.rel, t2);
  EXPECT_EQ(renamed.head.rel, r->head.rel);
}

}  // namespace
}  // namespace seqdl
