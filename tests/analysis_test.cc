#include <gtest/gtest.h>

#include "src/analysis/dependency_graph.h"
#include "src/analysis/features.h"
#include "src/analysis/lint.h"
#include "src/analysis/packing_structure.h"
#include "src/analysis/purity.h"
#include "src/analysis/safety.h"
#include "src/analysis/stratify.h"
#include "src/engine/engine.h"
#include "src/syntax/parser.h"
#include "src/syntax/printer.h"
#include "src/term/universe.h"
#include "tests/test_support.h"

namespace seqdl {
namespace {

// --- Feature detection (paper §3) -------------------------------------------

struct FeatureCase {
  const char* name;
  const char* program;
  const char* expected;  // letters
};

class FeatureDetectTest : public ::testing::TestWithParam<FeatureCase> {};

TEST_P(FeatureDetectTest, Detects) {
  const FeatureCase& c = GetParam();
  Universe u;
  Program p = MustParse(u, c.program);
  Result<FeatureSet> expected = FeatureSet::FromLetters(c.expected);
  ASSERT_TRUE(expected.ok());
  EXPECT_EQ(DetectFeatures(p), *expected)
      << "got " << DetectFeatures(p).ToString();
}

INSTANTIATE_TEST_SUITE_P(
    Corpus, FeatureDetectTest,
    ::testing::Values(
        FeatureCase{"empty_fact", "S(a).", ""},
        FeatureCase{"copy", "S($x) <- R($x).", ""},
        FeatureCase{"only_as_equation", "S($x) <- R($x), a++$x = $x++a.",
                    "E"},
        FeatureCase{"only_as_air",
                    "T($x,$x) <- R($x). T($x,$y) <- T($x,$y++a). "
                    "S($x) <- T($x,eps).",
                    "AIR"},
        FeatureCase{"negation", "S($x) <- R($x), !Q($x).", "N"},
        FeatureCase{"negated_equation_counts_as_both",
                    "S($x) <- R($x), $x != a.", "EN"},
        FeatureCase{"packing", "S(<$x>) <- R($x).", "P"},
        FeatureCase{"arity_from_edb", "S($x) <- R($x, $y).", "A"},
        FeatureCase{"self_recursion", "S($x) <- R($x). S(a++$x) <- S($x).",
                    "R"},
        FeatureCase{"mutual_recursion_with_two_idbs",
                    "P0($x) <- R($x). P0($x) <- Q0($x++a). "
                    "Q0($x) <- P0($x++b).",
                    "IR"},
        FeatureCase{"intermediate_only",
                    "T($x) <- R($x). S($x) <- T($x).", "I"},
        FeatureCase{"nfa_example_21",
                    "S(@q++$x, eps) <- R($x), N(@q).\n"
                    "S(@q2++$y, $z++@a) <- S(@q1++@a++$y, $z), D(@q1,@a,@q2)."
                    "\nA($x) <- S(@q,$x), F(@q).\n",
                    "AIR"}));

TEST(FeatureDetectTest, MutualRecursionWithoutArity) {
  Universe u;
  Program p = MustParse(u,
                        "P0($x) <- R($x). P0($x) <- Q0($x). "
                        "Q0($x) <- P0($x).");
  EXPECT_EQ(DetectFeatures(p),
            FeatureSet::Of({Feature::kIntermediate, Feature::kRecursion}));
}

TEST(FeatureDetectTest, Example22UsesPNAE) {
  Universe u;
  Program p = MustParse(u,
                        "T($u ++ <$s> ++ $v) <- R($u ++ $s ++ $v), S($s).\n"
                        "A <- T($x), T($y), T($z), $x != $y, $x != $z, "
                        "$y != $z.\n");
  FeatureSet f = DetectFeatures(p);
  EXPECT_TRUE(f.Contains(Feature::kPacking));
  EXPECT_TRUE(f.Contains(Feature::kNegation));
  EXPECT_TRUE(f.Contains(Feature::kEquations));
  EXPECT_TRUE(f.Contains(Feature::kIntermediate));
  EXPECT_FALSE(f.Contains(Feature::kRecursion));
}

TEST(FeatureSetTest, StringRoundTrip) {
  Result<FeatureSet> f = FeatureSet::FromLetters("EIN");
  ASSERT_TRUE(f.ok());
  EXPECT_EQ(f->ToString(), "{E,I,N}");
  EXPECT_EQ(FeatureSet().ToString(), "{}");
  EXPECT_EQ(FeatureSet::All().ToString(), "{A,E,I,N,P,R}");
  EXPECT_FALSE(FeatureSet::FromLetters("EX").ok());
}

TEST(FeatureSetTest, SetOperations) {
  FeatureSet ein = *FeatureSet::FromLetters("EIN");
  FeatureSet en = *FeatureSet::FromLetters("EN");
  EXPECT_TRUE(en.SubsetOf(ein));
  EXPECT_FALSE(ein.SubsetOf(en));
  EXPECT_EQ(ein.Without(Feature::kIntermediate), en);
  EXPECT_EQ(en.With(Feature::kIntermediate), ein);
  EXPECT_TRUE(
      en.DisjointFrom(*FeatureSet::FromLetters("APR")));
}

// --- Dependency graph & recursion --------------------------------------------

TEST(DependencyGraphTest, EdgesFollowHeadToBody) {
  Universe u;
  Program p = MustParse(u, "T($x) <- R($x). S($x) <- T($x), !W($x). W(a).");
  DependencyGraph g = BuildDependencyGraph(p);
  RelId s = *u.FindRel("S"), t = *u.FindRel("T"), w = *u.FindRel("W");
  EXPECT_TRUE(g.HasEdge(s, t));
  EXPECT_TRUE(g.HasEdge(s, w));
  EXPECT_FALSE(g.HasEdge(t, s));
  EXPECT_TRUE(g.negative_edges.at(s).count(w));
}

TEST(DependencyGraphTest, RecursiveRels) {
  Universe u;
  Program p = MustParse(u,
                        "A0($x) <- B0($x). B0($x) <- A0($x). "
                        "C0($x) <- A0($x). C0($x) <- R($x).");
  std::set<RelId> rec = RecursiveRels(BuildDependencyGraph(p));
  EXPECT_EQ(rec.size(), 2u);
  EXPECT_TRUE(rec.count(*u.FindRel("A0")));
  EXPECT_TRUE(rec.count(*u.FindRel("B0")));
  EXPECT_FALSE(rec.count(*u.FindRel("C0")));
}

// --- Safety (limited variables) ----------------------------------------------

TEST(SafetyTest, PredicateVarsAreLimited) {
  Universe u;
  Result<Rule> r = ParseRule(u, "S($x) <- R($x).");
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(IsSafeRule(*r));
}

TEST(SafetyTest, HeadOnlyVarIsUnsafe) {
  Universe u;
  Result<Rule> r = ParseRule(u, "S($y) <- R($x).");
  ASSERT_TRUE(r.ok());
  EXPECT_FALSE(IsSafeRule(*r));
}

TEST(SafetyTest, EquationPropagatesLimitedness) {
  Universe u;
  // $y is limited because the lhs of the equation is fully limited.
  Result<Rule> r = ParseRule(u, "S($y) <- R($x), $x ++ a = $y.");
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(IsSafeRule(*r));
}

TEST(SafetyTest, EquationChainPropagates) {
  Universe u;
  Result<Rule> r =
      ParseRule(u, "S($z) <- R($x), $x = $y, $y ++ b = $z.");
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(IsSafeRule(*r));
}

TEST(SafetyTest, BothSidesUnlimitedIsUnsafe) {
  Universe u;
  // $y appears on both sides; neither side is fully limited.
  Result<Rule> r = ParseRule(u, "S($y) <- R($x), $y ++ a = a ++ $y.");
  ASSERT_TRUE(r.ok());
  EXPECT_FALSE(IsSafeRule(*r));
}

TEST(SafetyTest, NegatedPredicateDoesNotLimit) {
  Universe u;
  Result<Rule> r = ParseRule(u, "S($x) <- !R($x).");
  ASSERT_TRUE(r.ok());
  EXPECT_FALSE(IsSafeRule(*r));
}

TEST(SafetyTest, NegatedEquationDoesNotLimit) {
  Universe u;
  Result<Rule> r = ParseRule(u, "S($x) <- $x != a.");
  ASSERT_TRUE(r.ok());
  EXPECT_FALSE(IsSafeRule(*r));
}

TEST(SafetyTest, GroundSideLimitsOtherSide) {
  Universe u;
  Result<Rule> r = ParseRule(u, "S($x) <- a ++ b = $x.");
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(IsSafeRule(*r));
}

TEST(ValidateProgramTest, AcceptsStratifiedNegation) {
  Universe u;
  Program p = MustParse(u,
                        "W(@x) <- R(@x ++ @y), !B(@y).\n"
                        "---\n"
                        "S(@x) <- R(@x ++ @y), !W(@x).\n");
  EXPECT_TRUE(ValidateProgram(u, p).ok());
}

TEST(ValidateProgramTest, RejectsNegationInSameStratum) {
  Universe u;
  Program p = MustParse(u,
                        "W(@x) <- R(@x ++ @y), !B(@y).\n"
                        "S(@x) <- R(@x ++ @y), !W(@x).\n");
  EXPECT_FALSE(ValidateProgram(u, p).ok());
}

TEST(ValidateProgramTest, RejectsUnsafeRule) {
  Universe u;
  Program p = MustParse(u, "S($y) <- R($x).");
  EXPECT_FALSE(ValidateProgram(u, p).ok());
}

// An equation chain written in reverse dependency order limits $y and
// then $z; the equation over $v and $u has no limited side, so SD010's
// note lists those two in order of first occurrence in the rule (the
// first rule interns $u before $v, so that is not VarId order).
TEST(ValidateProgramTest, UnsafeRuleNotesEveryUnlimitedVariable) {
  Universe u;
  Program p = MustParse(
      u, "P($u, $v) <- R($u ++ $v).\n"
         "S($z) <- R($x), $z = $y ++ b, $v ++ a = $u ++ @w, $y = $x, "
         "Q(@w).");
  DiagnosticList diags;
  Status s = ValidateProgram(u, p, &diags);
  EXPECT_EQ(s.ToString(),
            "InvalidArgument: unsafe rule: S($z) <- R($x), "
            "$z = $y\u00b7b, $v\u00b7a = $u\u00b7@w, $y = $x, Q(@w).");
  EXPECT_EQ(diags.RenderText(),
            "2:1: error: unsafe rule: S($z) <- R($x), $z = $y\u00b7b, "
            "$v\u00b7a = $u\u00b7@w, $y = $x, Q(@w). [SD010]\n"
            "  note: variables not limited by a positive body literal: "
            "$v, $u\n");
}

TEST(ValidateProgramTest, RejectsUseBeforeDefinition) {
  Universe u;
  Program p = MustParse(u, "S($x) <- T($x).\n---\nT($x) <- R($x).");
  EXPECT_FALSE(ValidateProgram(u, p).ok());
}

TEST(ValidateProgramTest, RejectsRedefinitionAcrossStrata) {
  Universe u;
  Program p = MustParse(u, "T($x) <- R($x).\n---\nT($x) <- Q($x).");
  EXPECT_FALSE(ValidateProgram(u, p).ok());
}

// --- Auto-stratification ------------------------------------------------------

TEST(StratifyTest, SplitsOnNegation) {
  Universe u;
  Program flat = MustParse(u,
                           "W(@x) <- R(@x ++ @y), !B(@y).\n"
                           "S(@x) <- R(@x ++ @y), !W(@x).\n");
  std::vector<Rule> rules;
  for (const Rule* r : flat.AllRules()) rules.push_back(*r);
  Result<Program> p = AutoStratify(rules);
  ASSERT_TRUE(p.ok());
  ASSERT_EQ(p->strata.size(), 2u);
  EXPECT_TRUE(ValidateProgram(u, *p).ok());
}

TEST(StratifyTest, RecursionThroughNegationFails) {
  Universe u;
  Program flat = MustParse(u, "P0($x) <- R($x), !Q0($x). Q0($x) <- P0($x).");
  std::vector<Rule> rules;
  for (const Rule* r : flat.AllRules()) rules.push_back(*r);
  EXPECT_FALSE(AutoStratify(rules).ok());
}

TEST(StratifyTest, PositiveRecursionStaysInOneStratum) {
  Universe u;
  Program flat = MustParse(u, "T($x) <- R($x). T(a ++ $x) <- T($x), Q($x).");
  std::vector<Rule> rules;
  for (const Rule* r : flat.AllRules()) rules.push_back(*r);
  Result<Program> p = AutoStratify(rules);
  ASSERT_TRUE(p.ok());
  EXPECT_EQ(p->strata.size(), 1u);
}

// --- Purity (paper §4.3.3, Example 4.9) ----------------------------------------

std::set<RelId> FlatRels(Universe& u, std::initializer_list<const char*> names) {
  std::set<RelId> out;
  for (const char* n : names) out.insert(*u.FindRel(n));
  return out;
}

TEST(PurityTest, Example49AllPure) {
  Universe u;
  Result<Rule> r = ParseRule(
      u, "S($x) <- R($x, $y), <$x> = <$y>, a ++ $x = $z, $y = <$u>.");
  ASSERT_TRUE(r.ok());
  PurityInfo info = AnalyzePurity(*r, FlatRels(u, {"R"}));
  // All three equations are pure (paper Example 4.9, first rule).
  EXPECT_EQ(info.equation_class.size(), 3u);
  for (const auto& [_, cls] : info.equation_class) {
    EXPECT_EQ(cls, EquationPurity::kPure);
  }
  // $z is pure (bound by a packing-free pure side); $u is pure too.
  EXPECT_TRUE(info.IsPure(u.InternVar(VarKind::kPath, "z")));
  EXPECT_TRUE(info.IsPure(u.InternVar(VarKind::kPath, "u")));
}

TEST(PurityTest, Example49HalfPure) {
  Universe u;
  Result<Rule> r =
      ParseRule(u, "S($x) <- R($x, $y), <$y> = $z, <$x> = <$z>.");
  ASSERT_TRUE(r.ok());
  PurityInfo info = AnalyzePurity(*r, FlatRels(u, {"R"}));
  EXPECT_FALSE(info.IsPure(u.InternVar(VarKind::kPath, "z")));
  for (const auto& [_, cls] : info.equation_class) {
    EXPECT_EQ(cls, EquationPurity::kHalfPure);
  }
}

TEST(PurityTest, Example49FullyImpure) {
  Universe u;
  Result<Rule> r = ParseRule(
      u, "S($x) <- R($x, $y), <$t> = <$z>, $z = <$y>, $t = <$x>.");
  ASSERT_TRUE(r.ok());
  PurityInfo info = AnalyzePurity(*r, FlatRels(u, {"R"}));
  // <$t> = <$z> (body index 1) is fully impure; the others half-pure.
  EXPECT_EQ(info.equation_class.at(1), EquationPurity::kFullyImpure);
  EXPECT_EQ(info.equation_class.at(2), EquationPurity::kHalfPure);
  EXPECT_EQ(info.equation_class.at(3), EquationPurity::kHalfPure);
}

TEST(PurityTest, SourceVarsArePure) {
  Universe u;
  Result<Rule> r = ParseRule(u, "S($x) <- R($x ++ @a).");
  ASSERT_TRUE(r.ok());
  PurityInfo info = AnalyzePurity(*r, FlatRels(u, {"R"}));
  EXPECT_TRUE(info.IsPure(u.InternVar(VarKind::kPath, "x")));
  EXPECT_TRUE(info.IsPure(u.InternVar(VarKind::kAtomic, "a")));
  EXPECT_TRUE(info.RuleAllPure(*r));
}

// --- Packing structures (paper §4.3.4, Example 4.11) ---------------------------

TEST(PackingStructureTest, FlatExprIsSingleStar) {
  Universe u;
  Result<PathExpr> e = ParsePathExpr(u, "a ++ $x ++ @y");
  ASSERT_TRUE(e.ok());
  PackingStructure ps = Delta(*e);
  EXPECT_TRUE(ps.IsStar());
  EXPECT_EQ(ps.NumStars(), 1u);
  EXPECT_EQ(ps.ToString(), "*");
  std::vector<PathExpr> comps = Components(*e);
  ASSERT_EQ(comps.size(), 1u);
  EXPECT_EQ(comps[0], *e);
}

TEST(PackingStructureTest, Example411) {
  Universe u;
  // e = @a · <<$x·$y>·$z> · <eps>; δ(e) = *·<*·<*>·*>·*·<*>·*, 7 stars.
  Result<PathExpr> e =
      ParsePathExpr(u, "@a ++ <<$x ++ $y> ++ $z> ++ <eps>");
  ASSERT_TRUE(e.ok());
  PackingStructure ps = Delta(*e);
  EXPECT_EQ(ps.NumStars(), 7u);
  EXPECT_EQ(ps.ToString(), "*·<*·<*>·*>·*·<*>·*");
  std::vector<PathExpr> comps = Components(*e);
  ASSERT_EQ(comps.size(), 7u);
  EXPECT_EQ(FormatExpr(u, comps[0]), "@a");
  EXPECT_EQ(FormatExpr(u, comps[1]), "eps");
  EXPECT_EQ(FormatExpr(u, comps[2]), "$x·$y");
  EXPECT_EQ(FormatExpr(u, comps[3]), "$z");
  EXPECT_EQ(FormatExpr(u, comps[4]), "eps");
  EXPECT_EQ(FormatExpr(u, comps[5]), "eps");
  EXPECT_EQ(FormatExpr(u, comps[6]), "eps");
}

TEST(PackingStructureTest, FromComponentsInvertsComponents) {
  Universe u;
  Result<PathExpr> e =
      ParsePathExpr(u, "@a ++ <<$x ++ $y> ++ $z> ++ <eps> ++ b");
  ASSERT_TRUE(e.ok());
  Result<PathExpr> back = FromComponents(Delta(*e), Components(*e));
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(*back, *e);
}

TEST(PackingStructureTest, EqualityDistinguishesNesting) {
  Universe u;
  Result<PathExpr> e1 = ParsePathExpr(u, "<a> ++ <b>");
  Result<PathExpr> e2 = ParsePathExpr(u, "<a ++ <b>>");
  ASSERT_TRUE(e1.ok());
  ASSERT_TRUE(e2.ok());
  EXPECT_NE(Delta(*e1), Delta(*e2));
  EXPECT_EQ(Delta(*e1).NumStars(), 5u);
  EXPECT_EQ(Delta(*e2).NumStars(), 5u);
}

TEST(PackingStructureTest, FromComponentsRejectsWrongCount) {
  Universe u;
  Result<PathExpr> e = ParsePathExpr(u, "<a>");
  ASSERT_TRUE(e.ok());
  std::vector<PathExpr> comps = Components(*e);
  comps.pop_back();
  EXPECT_FALSE(FromComponents(Delta(*e), comps).ok());
}

// --- Lint passes (SD101-SD107) ------------------------------------------------

DiagnosticList Lint(Universe& u, const std::string& text,
                    const LintOptions& opts = {}) {
  Program p = MustParse(u, text);
  DiagnosticList diags;
  LintProgram(u, p, opts, &diags);
  return diags;
}

std::vector<std::string> Codes(const DiagnosticList& diags) {
  std::vector<std::string> out;
  for (const Diagnostic& d : diags.all()) out.push_back(d.code);
  return out;
}

TEST(LintTest, CleanProgramHasNoFindings) {
  Universe u;
  DiagnosticList diags =
      Lint(u, "R($x, $y) <- E($x, $y).\nR($x, $z) <- R($x, $y), E($y, $z).\n");
  EXPECT_TRUE(diags.empty()) << diags.RenderText();
}

TEST(LintTest, SD101DuplicateRule) {
  Universe u;
  DiagnosticList diags = Lint(u, "S($x) <- R($x).\nS($x) <- R($x).\n");
  ASSERT_EQ(Codes(diags), std::vector<std::string>{"SD101"});
  const Diagnostic& d = diags[0];
  EXPECT_EQ(d.severity, Severity::kWarning);
  // The *second* occurrence is flagged, with a note pointing back at the
  // first.
  EXPECT_EQ(d.span.line, 2u);
  EXPECT_EQ(d.message, "duplicate rule: identical to an earlier rule");
  ASSERT_GE(d.notes.size(), 1u);
  EXPECT_EQ(d.notes[0], "first occurrence at line 1");
}

TEST(LintTest, SD102DuplicateBodyLiteral) {
  Universe u;
  DiagnosticList diags = Lint(u, "S($x) <- R($x), R($x).\n");
  ASSERT_EQ(Codes(diags), std::vector<std::string>{"SD102"});
  EXPECT_EQ(diags[0].span.line, 1u);
  EXPECT_EQ(diags[0].message, "duplicate body literal: R($x)");
}

TEST(LintTest, SD103SingletonVariable) {
  Universe u;
  DiagnosticList diags = Lint(u, "S($x) <- R($x, $y).\n");
  ASSERT_EQ(Codes(diags), std::vector<std::string>{"SD103"});
  EXPECT_EQ(diags[0].message,
            "singleton variable $y: occurs exactly once in the rule");
}

TEST(LintTest, SD104NeverFiresOnEmptyRelation) {
  Universe u;
  // T only derives from itself, so it can never contain facts; both rules
  // are unfireable.
  DiagnosticList diags = Lint(u, "T($x) <- T($x).\nS($x) <- T($x).\n");
  ASSERT_EQ(Codes(diags), (std::vector<std::string>{"SD104", "SD104"}));
  EXPECT_EQ(diags[0].message, "rule can never fire");
  ASSERT_GE(diags[1].notes.size(), 1u);
  EXPECT_EQ(diags[1].notes[0], "relation T can never contain facts");
}

TEST(LintTest, SD104NeverFiresOnFalseEquation) {
  Universe u;
  DiagnosticList diags = Lint(u, "S($x) <- R($x), a = b.\n");
  ASSERT_EQ(Codes(diags), std::vector<std::string>{"SD104"});
  ASSERT_GE(diags[0].notes.size(), 1u);
  EXPECT_EQ(diags[0].notes[0], "equation a = b can never hold");
}

TEST(LintTest, SD104NeverFiresOnNegatedIdenticalSides) {
  Universe u;
  DiagnosticList diags = Lint(u, "S($x) <- R($x), $x != $x.\n");
  EXPECT_EQ(Codes(diags), std::vector<std::string>{"SD104"});
}

TEST(LintTest, SD105CrossProductJoin) {
  Universe u;
  DiagnosticList diags = Lint(u, "S($x, $y) <- R($x), Q($y).\n");
  ASSERT_EQ(Codes(diags), std::vector<std::string>{"SD105"});
  EXPECT_EQ(diags[0].message,
            "cross-product join: body predicates form 2 groups sharing no "
            "variables: R($x) | Q($y)");
}

TEST(LintTest, SD105EquationConnectsTheJoin) {
  Universe u;
  // The equation links $x and $y, so the join is not a cross product.
  DiagnosticList diags = Lint(u, "S($x, $y) <- R($x), Q($y), $x = $y.\n");
  EXPECT_TRUE(diags.empty()) << diags.RenderText();
}

TEST(LintTest, SD105NoteCarriesMeasuredSizes) {
  Universe u;
  Program p = MustParse(u, "S($x, $y) <- R($x), Q($y).\n");
  StoreStats stats;
  stats.relations[*u.FindRel("R")].tuples = 10;
  stats.relations[*u.FindRel("Q")].tuples = 3;
  LintOptions opts;
  opts.stats = &stats;
  DiagnosticList diags;
  LintProgram(u, p, opts, &diags);
  ASSERT_EQ(Codes(diags), std::vector<std::string>{"SD105"});
  ASSERT_GE(diags[0].notes.size(), 1u);
  EXPECT_EQ(diags[0].notes[0], "measured relation sizes: R=10, Q=3");
}

TEST(LintTest, SD106SD107DeadRuleAndUnusedRelation) {
  Universe u;
  Program p = MustParse(u,
                        "T($x) <- E($x).\n"
                        "U($x) <- E($x).\n"
                        "S($x) <- T($x).\n");
  LintOptions opts;
  opts.output = *u.FindRel("S");
  DiagnosticList diags;
  LintProgram(u, p, opts, &diags);
  ASSERT_EQ(Codes(diags), (std::vector<std::string>{"SD106", "SD107"}));
  EXPECT_EQ(diags[0].span.line, 2u);
  EXPECT_EQ(diags[0].message,
            "dead rule: U is never used to compute the output S");
  EXPECT_EQ(diags[1].message,
            "relation U is derived but never read and is not the output");
}

TEST(LintTest, SD106RequiresAnOutput) {
  Universe u;
  // Without LintOptions::output the dead-rule/unused passes are skipped.
  DiagnosticList diags = Lint(u, "T($x) <- E($x).\nS($x) <- E($x).\n");
  EXPECT_TRUE(diags.empty()) << diags.RenderText();
}

// --- Dead-rule elimination (RemoveDeadRules) ----------------------------------

TEST(DeadRuleElimTest, KeepsOnlyLiveRules) {
  Universe u;
  Program p = MustParse(u,
                        "T($x) <- E($x).\n"
                        "U($x) <- T($x).\n"
                        "S($x) <- T($x).\n");
  Program pruned = RemoveDeadRules(p, *u.FindRel("S"));
  EXPECT_EQ(p.AllRules().size(), 3u);
  EXPECT_EQ(pruned.AllRules().size(), 2u);
  std::set<RelId> live = LiveRels(p, *u.FindRel("S"));
  EXPECT_TRUE(live.count(*u.FindRel("S")));
  EXPECT_TRUE(live.count(*u.FindRel("T")));
  EXPECT_FALSE(live.count(*u.FindRel("U")));
}

TEST(DeadRuleElimTest, ProjectionIsByteIdentical) {
  Universe u;
  const char* text =
      "T($x) <- E($x).\n"
      "T(a ++ $x) <- T($x), G($x).\n"
      "U($x, $x) <- E($x).\n"
      "V($x) <- U($x, $x), G($x).\n"
      "S($x) <- T($x).\n";
  Program full = MustParse(u, text);
  RelId output = *u.FindRel("S");
  Program pruned = RemoveDeadRules(full, output);
  ASSERT_LT(pruned.AllRules().size(), full.AllRules().size());

  Result<Instance> edb = ParseInstance(u, "E(a). E(b). G(b). G(a ++ b).");
  ASSERT_TRUE(edb.ok()) << edb.status().ToString();
  Result<PreparedProgram> pf = Engine::Compile(u, std::move(full));
  ASSERT_TRUE(pf.ok()) << pf.status().ToString();
  Result<PreparedProgram> pp = Engine::Compile(u, std::move(pruned));
  ASSERT_TRUE(pp.ok()) << pp.status().ToString();

  Result<Instance> of = pf->Run(*edb);
  ASSERT_TRUE(of.ok()) << of.status().ToString();
  Result<Instance> op = pp->Run(*edb);
  ASSERT_TRUE(op.ok()) << op.status().ToString();
  // Dropping SD106-dead rules cannot change the output's projection.
  std::string want = of->Project({output}).ToString(u);
  EXPECT_EQ(want, op->Project({output}).ToString(u));
  EXPECT_FALSE(want.empty());
}

}  // namespace
}  // namespace seqdl
