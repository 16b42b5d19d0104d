// Tests for the boolean-query observation of §5.1.1, for the engine's
// scan-reordering planner, and golden tests pinning the selectivity-aware
// planner's access-path and ordering choices (see plan.h / stats.h).
#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "src/engine/database.h"
#include "src/engine/engine.h"
#include "src/engine/index_family.h"
#include "src/engine/instance.h"
#include "src/engine/plan.h"
#include "src/engine/stats.h"
#include "src/queries/queries.h"
#include "src/syntax/parser.h"
#include "src/term/universe.h"
#include "src/transform/boolean_queries.h"
#include "src/workload/generators.h"
#include "tests/test_support.h"

namespace seqdl {
namespace {

// --- §5.1.1: recursion is redundant for boolean queries without I -------------

TEST(BooleanQueryTest, RecursiveRulesAreDroppable) {
  Universe u;
  // A boolean query with a (useless, but legal) recursive rule: A fires
  // iff R contains a path with two equal adjacent atoms.
  Program p = MustParse(u,
                        "A <- R($u ++ @x ++ @x ++ $v).\n"
                        "A <- A, R($x).\n");
  Result<Program> q = StripRecursionFromBooleanQuery(u, p);
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  EXPECT_EQ(q->NumRules(), 1u);
  for (const char* data :
       {"R(a ++ a).", "R(a ++ b).", "R(a ++ b ++ b ++ c). R(d).",
        "R(eps)."}) {
    Universe u2;
    Program p2 = MustParse(u2,
                           "A <- R($u ++ @x ++ @x ++ $v).\n"
                           "A <- A, R($x).\n");
    Result<Program> q2 = StripRecursionFromBooleanQuery(u2, p2);
    ASSERT_TRUE(q2.ok());
    Instance in = MustInstance(u2, data);
    RelId a = *u2.FindRel("A");
    Result<PreparedProgram> prog1 = Engine::Compile(u2, p2);
    Result<PreparedProgram> prog2 = Engine::Compile(u2, *q2);
    ASSERT_TRUE(prog1.ok()) << prog1.status().ToString();
    ASSERT_TRUE(prog2.ok()) << prog2.status().ToString();
    Result<Instance> o1 = prog1->Run(in);
    Result<Instance> o2 = prog2->Run(in);
    ASSERT_TRUE(o1.ok());
    ASSERT_TRUE(o2.ok());
    EXPECT_EQ(o1->Contains(a, {}), o2->Contains(a, {})) << data;
  }
}

TEST(BooleanQueryTest, RejectsIntermediatePredicates) {
  Universe u;
  Program p = MustParse(u, "T($x) <- R($x).\nA <- T($x).");
  Result<Program> q = StripRecursionFromBooleanQuery(u, p);
  ASSERT_FALSE(q.ok());
  EXPECT_EQ(q.status().code(), StatusCode::kFailedPrecondition);
}

TEST(BooleanQueryTest, RejectsNonBooleanOutput) {
  Universe u;
  Program p = MustParse(u, "S($x) <- R($x). S(a ++ $x) <- S($x).");
  Result<Program> q = StripRecursionFromBooleanQuery(u, p);
  ASSERT_FALSE(q.ok());
  EXPECT_EQ(q.status().code(), StatusCode::kFailedPrecondition);
}

// --- Scan reordering ------------------------------------------------------------

TEST(PlannerTest, ReorderingPreservesSemantics) {
  // A body written in a deliberately bad order: the selective Q predicate
  // comes last.
  Universe u;
  Program p = MustParse(
      u, "S(@x) <- R(@a ++ @b), T(@b ++ @x), Q(@x).\n");
  Instance in = MustInstance(
      u,
      "R(a ++ b). R(c ++ d). R(e ++ f).\n"
      "T(b ++ g). T(d ++ h). T(f ++ g).\n"
      "Q(g).");
  RelId s = *u.FindRel("S");
  CompileOptions unordered;
  unordered.reorder_scans = false;
  Result<PreparedProgram> prog1 = Engine::Compile(u, p);
  Result<PreparedProgram> prog2 = Engine::Compile(u, p, unordered);
  ASSERT_TRUE(prog1.ok()) << prog1.status().ToString();
  ASSERT_TRUE(prog2.ok()) << prog2.status().ToString();
  Result<Instance> o1 = prog1->Run(in);
  Result<Instance> o2 = prog2->Run(in);
  ASSERT_TRUE(o1.ok());
  ASSERT_TRUE(o2.ok());
  EXPECT_EQ(o1->Project({s}), o2->Project({s}));
  EXPECT_TRUE(o1->Contains(s, {u.PathOfChars("g")}));
}

TEST(PlannerTest, ReorderingAgreesOnCorpus) {
  for (const PaperQuery& q : PaperCorpus()) {
    if (!q.terminating) continue;
    Universe u;
    Result<ParsedQuery> parsed = ParsePaperQuery(u, q);
    ASSERT_TRUE(parsed.ok()) << q.id;
    Instance in;
    for (RelId rel : EdbRels(parsed->program)) {
      uint32_t arity = u.RelArity(rel);
      Tuple t;
      for (uint32_t i = 0; i < arity; ++i) t.push_back(u.PathOfChars("ab"));
      in.Add(rel, t);
    }
    CompileOptions unordered;
    unordered.reorder_scans = false;
    Result<PreparedProgram> prog1 = Engine::Compile(u, parsed->program);
    Result<PreparedProgram> prog2 =
        Engine::Compile(u, parsed->program, unordered);
    ASSERT_TRUE(prog1.ok()) << q.id << ": " << prog1.status().ToString();
    ASSERT_TRUE(prog2.ok()) << q.id << ": " << prog2.status().ToString();
    Result<Instance> o1 = prog1->Run(in);
    Result<Instance> o2 = prog2->Run(in);
    ASSERT_TRUE(o1.ok()) << q.id;
    ASSERT_TRUE(o2.ok()) << q.id;
    EXPECT_EQ(*o1, *o2) << q.id;
  }
}

TEST(PlannerTest, ReorderingReducesFirings) {
  // Join of three relations where body order is worst-case: R x Q is a
  // cartesian product unless the planner moves T between them.
  Universe u;
  Program p = MustParse(u, "S(@x) <- R(@a ++ @b), Q(@x ++ @c), T(@b ++ @x).");
  Instance in;
  RelId r = *u.InternRel("R", 1), q = *u.InternRel("Q", 1),
        t = *u.InternRel("T", 1);
  for (int i = 0; i < 12; ++i) {
    std::string ri = Numbered("r", i);
    std::string qi = Numbered("q", i);
    in.Add(r, {u.PathOfWords(ri + " b0")});
    in.Add(q, {u.PathOfWords(qi + " c0")});
  }
  in.Add(t, {u.PathOfWords("b0 q0")});
  CompileOptions unordered;
  unordered.reorder_scans = false;
  Result<PreparedProgram> prog1 = Engine::Compile(u, p);
  Result<PreparedProgram> prog2 = Engine::Compile(u, p, unordered);
  ASSERT_TRUE(prog1.ok()) << prog1.status().ToString();
  ASSERT_TRUE(prog2.ok()) << prog2.status().ToString();
  EvalStats with, without;
  Result<Instance> o1 = prog1->Run(in, {}, &with);
  Result<Instance> o2 = prog2->Run(in, {}, &without);
  ASSERT_TRUE(o1.ok());
  ASSERT_TRUE(o2.ok());
  EXPECT_EQ(*o1, *o2);
  // Both derive the same single fact; reordering just does it with fewer
  // intermediate bindings (firings count head derivations, which are
  // equal — the difference shows in wall time; at minimum semantics hold).
  EXPECT_EQ(with.derived_facts, without.derived_facts);
}

TEST(PlannerTest, NaiveReorderCombinationsAllAgree) {
  Universe u;
  Result<ParsedQuery> reach = ParsePaperQuery(u, "reach_ab");
  ASSERT_TRUE(reach.ok());
  GraphWorkload gw;
  gw.nodes = 7;
  gw.edges = 12;
  gw.seed = 3;
  Result<Instance> in = GraphToInstance(u, RandomGraph(gw), "R");
  ASSERT_TRUE(in.ok());
  std::vector<Instance> results;
  for (bool reorder : {true, false}) {
    CompileOptions copts;
    copts.reorder_scans = reorder;
    Result<PreparedProgram> prog = Engine::Compile(u, reach->program, copts);
    ASSERT_TRUE(prog.ok()) << prog.status().ToString();
    for (bool seminaive : {true, false}) {
      RunOptions opts;
      opts.seminaive = seminaive;
      Result<Instance> out = prog->Run(*in, opts);
      ASSERT_TRUE(out.ok());
      results.push_back(std::move(*out));
    }
  }
  for (size_t i = 1; i < results.size(); ++i) {
    EXPECT_EQ(results[0], results[i]) << "combination " << i;
  }
}

// --- Selectivity-aware planning -----------------------------------------------

// A skewed fixture: R(tag, id) where column 0 is near-constant (one huge
// bucket) and column 1 is a unique key (singleton buckets); P holds the
// two-value paths tag·id the rule destructures.
Instance SkewedInstance(Universe& u, size_t n) {
  std::string text;
  for (size_t k = 0; k < n; ++k) {
    std::string id = Numbered("i", k);
    text += "P(t ++ " + id + ").\n";
    text += "R(t, " + id + ").\n";
  }
  return MustInstance(u, text);
}

TEST(SelectivityPlannerTest, PicksMostSelectiveWholeKeyOnSkewedData) {
  Universe u;
  Program p = MustParse(u, "S(@i) <- P(@t ++ @i), R(@t, @i).\n");
  Instance in = SkewedInstance(u, 20);
  StoreStats stats = ComputeInstanceStats(u, in);
  const Rule& rule = p.strata[0].rules[0];

  // Legacy heuristic: the first fully ground argument of R wins — the
  // near-constant tag column, whose bucket holds the whole relation.
  Result<RulePlan> legacy = PlanRule(u, rule, /*reorder_scans=*/true);
  ASSERT_TRUE(legacy.ok()) << legacy.status().ToString();
  ASSERT_EQ(legacy->steps.size(), 2u);
  EXPECT_EQ(legacy->steps[1].family, IndexFamily::kWhole);
  EXPECT_EQ(legacy->steps[1].key_arg, 0u);

  // Selectivity-aware: measured mean bucket sizes (20.0 vs 1.0) flip the
  // key to the unique id column.
  PlannerOptions opts;
  opts.stats = &stats;
  Result<RulePlan> planned = PlanRule(u, rule, opts);
  ASSERT_TRUE(planned.ok()) << planned.status().ToString();
  ASSERT_EQ(planned->steps.size(), 2u);
  EXPECT_EQ(planned->steps[1].family, IndexFamily::kWhole);
  EXPECT_EQ(planned->steps[1].key_arg, 1u);
  EXPECT_TRUE(planned->steps[1].stats_chosen);
  EXPECT_DOUBLE_EQ(planned->steps[1].est_cost, 1.0);
  // The P scan stays a full scan, estimated at the relation size.
  EXPECT_EQ(planned->steps[0].family, IndexFamily::kNone);
  EXPECT_DOUBLE_EQ(planned->steps[0].est_cost, 20.0);
}

TEST(SelectivityPlannerTest, PrefixProbeBeatsNearConstantWholeKey) {
  Universe u;
  // R's column 0 is fully ground immediately (the constant t0) but
  // near-constant in the data; column 1 only ever has a ground one-atom
  // prefix, yet its first-value buckets are singletons.
  Program p = MustParse(u, "S($r) <- P(@a), R(t0, @a ++ $r).\n");
  std::string text;
  for (size_t k = 0; k < 16; ++k) {
    std::string a = Numbered("x", k);
    text += "P(" + a + ").\n";
    text += "R(t0, " + a + " ++ y ++ z).\n";
  }
  Instance in = MustInstance(u, text);
  StoreStats stats = ComputeInstanceStats(u, in);
  const Rule& rule = p.strata[0].rules[0];

  // Legacy: a fully ground argument always wins, however unselective.
  Result<RulePlan> legacy = PlanRule(u, rule, /*reorder_scans=*/true);
  ASSERT_TRUE(legacy.ok());
  ASSERT_EQ(legacy->steps.size(), 2u);
  EXPECT_EQ(legacy->steps[1].family, IndexFamily::kWhole);
  EXPECT_EQ(legacy->steps[1].key_arg, 0u);

  // Selectivity-aware: the first-value probe on column 1 (mean bucket
  // 1.0) beats the whole-value probe on column 0 (mean bucket 16.0).
  PlannerOptions opts;
  opts.stats = &stats;
  Result<RulePlan> planned = PlanRule(u, rule, opts);
  ASSERT_TRUE(planned.ok());
  ASSERT_EQ(planned->steps.size(), 2u);
  EXPECT_EQ(planned->steps[1].family, IndexFamily::kFirst);
  EXPECT_EQ(planned->steps[1].key_arg, 1u);
  EXPECT_TRUE(planned->steps[1].stats_chosen);
  EXPECT_DOUBLE_EQ(planned->steps[1].est_cost, 1.0);
}

TEST(SelectivityPlannerTest, ReordersBodyAtomsByEstimatedCost) {
  Universe u;
  Program p = MustParse(u, "S(@x) <- Big(@x), Small(@x).\n");
  std::string text = "Small(s0). Small(s1).\n";
  for (size_t k = 0; k < 40; ++k) {
    text += "Big(b" + std::to_string(k) + ").\n";
  }
  text += "Big(s0).\n";
  Instance in = MustInstance(u, text);
  StoreStats stats = ComputeInstanceStats(u, in);
  const Rule& rule = p.strata[0].rules[0];

  // Legacy ordering keeps body order (no variables bound either way).
  Result<RulePlan> legacy = PlanRule(u, rule, /*reorder_scans=*/true);
  ASSERT_TRUE(legacy.ok());
  ASSERT_EQ(legacy->steps.size(), 2u);
  EXPECT_EQ(legacy->steps[0].lit_idx, 0u);

  // Selectivity-aware ordering scans the 2-tuple relation first (est 2
  // vs 41), then answers Big with a whole-value probe on the now-bound
  // variable.
  PlannerOptions opts;
  opts.stats = &stats;
  Result<RulePlan> planned = PlanRule(u, rule, opts);
  ASSERT_TRUE(planned.ok());
  ASSERT_EQ(planned->steps.size(), 2u);
  EXPECT_EQ(planned->steps[0].lit_idx, 1u);
  EXPECT_DOUBLE_EQ(planned->steps[0].est_cost, 2.0);
  EXPECT_EQ(planned->steps[1].lit_idx, 0u);
  EXPECT_EQ(planned->steps[1].family, IndexFamily::kWhole);
  EXPECT_EQ(planned->steps[1].key_arg, 0u);

  // Both plans derive the same facts (the harness checks this at scale;
  // pin it here for the fixture).
  Result<PreparedProgram> heuristic = Engine::Compile(u, p);
  ASSERT_TRUE(heuristic.ok()) << heuristic.status().ToString();
  Result<Instance> o1 = heuristic->Run(in);
  Result<Database> db = Database::Open(u, in);
  ASSERT_TRUE(o1.ok());
  ASSERT_TRUE(db.ok());
  Result<PreparedProgram> prog = db->Compile(p);
  ASSERT_TRUE(prog.ok());
  Result<Instance> derived = db->Snapshot().Run(*prog);
  ASSERT_TRUE(derived.ok());
  Instance o2 = db->edb();
  o2.UnionWith(std::move(*derived));
  EXPECT_EQ(*o1, o2);
}

TEST(SelectivityPlannerTest, UnskewedDataPinsLegacyChoices) {
  Universe u;
  Program p = MustParse(u, "S(@i) <- P(@t ++ @i), R(@t, @i).\n");
  // Uniform data: both columns of R are unique keys, so every estimate
  // ties at 1.0 and the deterministic tie-break (lower argument position)
  // must reproduce the legacy choice. A regression that changes this
  // breaks plan stability for the common unskewed case.
  std::string text;
  for (size_t k = 0; k < 12; ++k) {
    std::string t = Numbered("t", k), i = Numbered("i", k);
    text += "P(" + t + " ++ " + i + ").\n";
    text += "R(" + t + ", " + i + ").\n";
  }
  Instance in = MustInstance(u, text);
  StoreStats stats = ComputeInstanceStats(u, in);
  const Rule& rule = p.strata[0].rules[0];

  Result<RulePlan> legacy = PlanRule(u, rule, /*reorder_scans=*/true);
  PlannerOptions opts;
  opts.stats = &stats;
  Result<RulePlan> planned = PlanRule(u, rule, opts);
  ASSERT_TRUE(legacy.ok());
  ASSERT_TRUE(planned.ok());
  ASSERT_EQ(planned->steps.size(), legacy->steps.size());
  for (size_t i = 0; i < planned->steps.size(); ++i) {
    EXPECT_EQ(planned->steps[i].lit_idx, legacy->steps[i].lit_idx) << i;
    EXPECT_EQ(planned->steps[i].family, legacy->steps[i].family) << i;
    EXPECT_EQ(planned->steps[i].key_arg, legacy->steps[i].key_arg) << i;
  }
}

TEST(SelectivityPlannerTest, ExplainPlanReportsChosenKeys) {
  Universe u;
  Program p = MustParse(u, "S(@i) <- P(@t ++ @i), R(@t, @i).\n");
  Instance in = SkewedInstance(u, 20);

  Result<Database> db = Database::Open(u, in);
  ASSERT_TRUE(db.ok());
  Result<PreparedProgram> planned = db->Compile(p);
  ASSERT_TRUE(planned.ok()) << planned.status().ToString();
  std::string explain = planned->ExplainPlan();
  EXPECT_NE(explain.find("whole-value key col 1"), std::string::npos)
      << explain;
  EXPECT_NE(explain.find("[stats]"), std::string::npos) << explain;

  Result<PreparedProgram> legacy = Engine::Compile(u, p);
  ASSERT_TRUE(legacy.ok());
  std::string legacy_explain = legacy->ExplainPlan();
  EXPECT_NE(legacy_explain.find("whole-value key col 0"), std::string::npos)
      << legacy_explain;
  EXPECT_EQ(legacy_explain.find("[stats]"), std::string::npos)
      << legacy_explain;

  // The same decisions land in EvalStats::plan_decisions on stats runs.
  EvalStats stats;
  ASSERT_TRUE(db->Snapshot().Run(*planned, {}, &stats).ok());
  ASSERT_FALSE(stats.plan_decisions.empty());
  bool found = false;
  for (const std::string& line : stats.plan_decisions) {
    found |= line.find("whole-value key col 1") != std::string::npos;
  }
  EXPECT_TRUE(found);
}

// Pins the exact explain text of each access path (whole-value key,
// first-value key, last-value key, full scan), with and without
// statistics, and the exact statistics rendering of a two-column
// relation: operators and tests read both texts.
TEST(PlannerTest, ExplainTextOfEveryAccessPath) {
  Universe u;
  Program p = MustParse(u,
                        "S(@x) <- P(@x), R(@x, $y).\n"
                        "F($r) <- P(@a), Q(@a ++ $r).\n"
                        "L($r) <- P(@a), Q($r ++ @a).\n"
                        "T(@x) <- P(@x).\n"
                        "T(@y) <- T(@x), R(@x, @y).\n");
  Instance in = MustInstance(u,
                             "P(a).\n"
                             "R(a, b). R(a, c). R(b, c).\n"
                             "Q(a ++ b). Q(b ++ a ++ c). Q(c). Q(eps).\n");

  Result<PreparedProgram> legacy = Engine::Compile(u, p);
  ASSERT_TRUE(legacy.ok()) << legacy.status().ToString();
  EXPECT_EQ(legacy->ExplainPlan(),
            "stratum 0\n"
            "  rule 0: S(@x) <- P(@x), R(@x, $y).\n"
            "    step 0: scan P: full scan\n"
            "    step 1: scan R: whole-value key col 0\n"
            "  rule 1: F($r) <- P(@a), Q(@a\u00b7$r).\n"
            "    step 0: scan P: full scan\n"
            "    step 1: scan Q: first-value key col 0 (prefix @a)\n"
            "  rule 2: L($r) <- P(@a), Q($r\u00b7@a).\n"
            "    step 0: scan P: full scan\n"
            "    step 1: scan Q: last-value key col 0 (suffix @a)\n"
            "  rule 3: T(@x) <- P(@x).\n"
            "    step 0: scan P: full scan\n"
            "  rule 4: T(@y) <- T(@x), R(@x, @y).\n"
            "    step 0: scan T: full scan [delta]\n"
            "    step 1: scan R: whole-value key col 0\n");

  // With statistics: R's column 0 has buckets {a: 2, b: 1}, Q's column 0
  // has first values {a, b, c} and last values {b, c, c} (eps files under
  // neither), and T, derived, has no statistics.
  Result<Database> db = Database::Open(u, in);
  ASSERT_TRUE(db.ok());
  Result<PreparedProgram> planned = db->Compile(p);
  ASSERT_TRUE(planned.ok()) << planned.status().ToString();
  EXPECT_EQ(
      planned->ExplainPlan(),
      "stratum 0\n"
      "  rule 0: S(@x) <- P(@x), R(@x, $y).\n"
      "    step 0: scan P: full scan, est 1.00 [stats]\n"
      "    step 1: scan R: whole-value key col 0, est 1.50 [stats]\n"
      "  rule 1: F($r) <- P(@a), Q(@a\u00b7$r).\n"
      "    step 0: scan P: full scan, est 1.00 [stats]\n"
      "    step 1: scan Q: first-value key col 0 (prefix @a), est 1.00 "
      "[stats]\n"
      "  rule 2: L($r) <- P(@a), Q($r\u00b7@a).\n"
      "    step 0: scan P: full scan, est 1.00 [stats]\n"
      "    step 1: scan Q: last-value key col 0 (suffix @a), est 1.50 "
      "[stats]\n"
      "  rule 3: T(@x) <- P(@x).\n"
      "    step 0: scan P: full scan, est 1.00 [stats]\n"
      "  rule 4: T(@y) <- T(@x), R(@x, @y).\n"
      "    step 0: scan R: full scan, est 3.00 [stats]\n"
      "    step 1: scan T: whole-value key col 0, est 1.00 [prior] [delta]\n");

  // A two-column relation whose three families differ in shape; eps
  // counts as a whole value only.
  Instance e = MustInstance(
      u, "E(a ++ b, x). E(a ++ c, x ++ y). E(b ++ c, eps). E(a, y ++ z).");
  EXPECT_EQ(ComputeInstanceStats(u, e).ToString(u),
            "E  tuples=4\n"
            "  col 0  whole buckets=4 entries=4 mean=1.00 max=1\n"
            "  col 0  first buckets=2 entries=4 mean=2.00 max=3\n"
            "  col 0  last  buckets=3 entries=4 mean=1.33 max=2\n"
            "  col 1  whole buckets=4 entries=4 mean=1.00 max=1\n"
            "  col 1  first buckets=2 entries=3 mean=1.50 max=2\n"
            "  col 1  last  buckets=3 entries=3 mean=1.00 max=1\n");
}

// Pins the order of the equation steps: the planner binds the first
// pending positive equation (in body order) with one side fully bound,
// then starts over, and runs the negated literals last in body order.
// `first_lit` reorders only the scans, or, naming a negated literal,
// scans it first and drops its check; `head_bound` seeds the head's
// variables, so an equation whose side is the head can go first.
TEST(PlannerTest, EquationStepsFollowTheSchedule) {
  using K = PlanStep::Kind;
  using Steps = std::vector<std::pair<K, size_t>>;
  struct Case {
    const char* rule;
    int first_lit;
    Steps plain, first, head_bound;
  };
  const Case cases[] = {
      // A chain written in reverse dependency order: $y = $x ++ b binds
      // $y, which then bounds the first equation's right side.
      {"T($z) <- R($x), S($x), $z = $y ++ a, $y = $x ++ b.", 1,
       {{K::kScan, 0}, {K::kScan, 1}, {K::kEq, 3}, {K::kEq, 2}},
       {{K::kScan, 1}, {K::kScan, 0}, {K::kEq, 3}, {K::kEq, 2}},
       {{K::kScan, 0}, {K::kScan, 1}, {K::kEq, 2}, {K::kEq, 3}}},
      // Only the right side is bound.
      {"T($y) <- R($x), $y ++ a = $x.", 0,
       {{K::kScan, 0}, {K::kEq, 1}},
       {{K::kScan, 0}, {K::kEq, 1}},
       {{K::kScan, 0}, {K::kEq, 1}}},
      // A negated equation and a negated predicate run after the positive
      // equation that binds their variable, in body order.
      {"T($x) <- !Q($y), R($x, $w), $x ++ $y != a, P($w), $y = $w ++ b.", 3,
       {{K::kScan, 1}, {K::kScan, 3}, {K::kEq, 4}, {K::kNegPred, 0},
        {K::kNegEq, 2}},
       {{K::kScan, 3}, {K::kScan, 1}, {K::kEq, 4}, {K::kNegPred, 0},
        {K::kNegEq, 2}},
       {{K::kScan, 1}, {K::kScan, 3}, {K::kEq, 4}, {K::kNegPred, 0},
        {K::kNegEq, 2}}},
      // A negated first literal is scanned first (a restricted pass
      // enumerates its relation's change, binding $y) and not checked.
      {"T($x) <- !Q($y), R($x, $w), $x ++ $y != a, P($w), $y = $w ++ b.", 0,
       {{K::kScan, 1}, {K::kScan, 3}, {K::kEq, 4}, {K::kNegPred, 0},
        {K::kNegEq, 2}},
       {{K::kScan, 0}, {K::kScan, 1}, {K::kScan, 3}, {K::kEq, 4},
        {K::kNegEq, 2}},
       {{K::kScan, 1}, {K::kScan, 3}, {K::kEq, 4}, {K::kNegPred, 0},
        {K::kNegEq, 2}}},
  };
  auto steps_of = [](const Universe& u, const Rule& r,
                     const PlannerOptions& opts) {
    Result<RulePlan> plan = PlanRule(u, r, opts);
    EXPECT_TRUE(plan.ok()) << plan.status().ToString();
    Steps out;
    if (!plan.ok()) return out;
    for (const PlanStep& s : plan->steps) out.emplace_back(s.kind, s.lit_idx);
    return out;
  };
  for (const Case& c : cases) {
    Universe u;
    Result<Rule> r = ParseRule(u, c.rule);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    PlannerOptions opts;
    EXPECT_EQ(steps_of(u, *r, opts), c.plain) << c.rule;
    opts.first_lit = c.first_lit;
    EXPECT_EQ(steps_of(u, *r, opts), c.first) << c.rule << " first_lit";
    opts.first_lit = -1;
    opts.head_bound = true;
    EXPECT_EQ(steps_of(u, *r, opts), c.head_bound) << c.rule << " head_bound";
  }

  // Planned without validation, an unsafe rule fails on its equations.
  Universe u;
  Result<Rule> unsafe = ParseRule(u, "T($x) <- R($x), $y = $z.");
  ASSERT_TRUE(unsafe.ok());
  Result<RulePlan> plan = PlanRule(u, *unsafe, PlannerOptions());
  ASSERT_FALSE(plan.ok());
  EXPECT_EQ(plan.status().ToString(),
            "InvalidArgument: rule is not safe (equations cannot be "
            "ordered): T($x) <- R($x), $y = $z.");
}

}  // namespace
}  // namespace seqdl
