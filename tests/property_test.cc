// Cross-cutting randomized property tests: completeness of associative
// unification against brute-force ground enumeration, equivalence of
// transformation pipelines, naive/semi-naive agreement, and the Lemma 5.1
// linear output bound for nonrecursive programs.
#include <gtest/gtest.h>

#include <random>

#include "src/algebra/algebra.h"
#include "src/algebra/from_datalog.h"
#include "src/analysis/features.h"
#include "src/engine/engine.h"
#include "src/engine/instance.h"
#include "src/queries/queries.h"
#include "src/syntax/parser.h"
#include "src/syntax/printer.h"
#include "src/term/universe.h"
#include "src/transform/arity_elim.h"
#include "src/transform/equation_elim.h"
#include "src/transform/packing_elim.h"
#include "src/unify/unify.h"
#include "src/workload/baselines.h"
#include "src/workload/generators.h"
#include "tests/test_support.h"

namespace seqdl {
namespace {

// --- Unification completeness against ground enumeration -----------------------

// Generates a random one-sided nonlinear equation over atoms {a, b}, path
// variables and atomic variables.
struct RandomEquation {
  PathExpr lhs, rhs;
};

RandomEquation MakeRandomEquation(Universe& u, std::mt19937_64& rng) {
  std::uniform_int_distribution<int> len(1, 3);
  std::uniform_int_distribution<int> kind(0, 3);
  int var_counter = 0;
  auto make_side = [&](const char* prefix, bool allow_repeat) {
    PathExpr side;
    int n = len(rng);
    for (int i = 0; i < n; ++i) {
      switch (kind(rng)) {
        case 0:
          side.items.push_back(
              ExprItem::Const(Value::Atom(u.InternAtom("a"))));
          break;
        case 1:
          side.items.push_back(
              ExprItem::Const(Value::Atom(u.InternAtom("b"))));
          break;
        case 2: {
          std::string name =
              std::string(prefix) + std::to_string(var_counter++);
          side.items.push_back(
              ExprItem::PathVar(u.InternVar(VarKind::kPath, name)));
          // Optionally repeat the variable (nonlinearity, same side only).
          if (allow_repeat && kind(rng) == 0) {
            side.items.push_back(
                ExprItem::PathVar(u.InternVar(VarKind::kPath, name)));
          }
          break;
        }
        default: {
          std::string name =
              std::string(prefix) + "v" + std::to_string(var_counter++);
          side.items.push_back(
              ExprItem::AtomVar(u.InternVar(VarKind::kAtomic, name)));
          break;
        }
      }
    }
    return side;
  };
  // Left side linear, right side may repeat its own variables: the result
  // is one-sided nonlinear by construction (disjoint variable names).
  return RandomEquation{make_side("l", false), make_side("r", true)};
}

// Enumerates all ground valuations over {a, b} with path lengths <= 2.
void ForEachGroundValuation(Universe& u, const std::vector<VarId>& vars,
                            const std::function<void(const ExprSubst&)>& cb) {
  std::vector<PathExpr> path_choices;
  for (const char* s : {"", "a", "b", "aa", "ab", "ba", "bb"}) {
    path_choices.push_back(ExprOfPath(u, u.PathOfChars(s)));
  }
  std::vector<PathExpr> atom_choices = {
      ConstExpr(Value::Atom(u.InternAtom("a"))),
      ConstExpr(Value::Atom(u.InternAtom("b")))};
  ExprSubst current;
  std::function<void(size_t)> rec = [&](size_t i) {
    if (i == vars.size()) {
      cb(current);
      return;
    }
    const std::vector<PathExpr>& choices =
        u.VarKindOf(vars[i]) == VarKind::kPath ? path_choices : atom_choices;
    for (const PathExpr& c : choices) {
      current[vars[i]] = c;
      rec(i + 1);
    }
    current.erase(vars[i]);
  };
  rec(0);
}

TEST(UnifyPropertyTest, SolutionsAreSoundAndComplete) {
  Universe u;
  std::mt19937_64 rng(42);
  int checked = 0;
  for (int trial = 0; trial < 60; ++trial) {
    RandomEquation eq = MakeRandomEquation(u, rng);
    if (!IsOneSidedNonlinear(eq.lhs, eq.rhs)) continue;
    UnifyOptions opts;
    opts.max_nodes = 200000;
    Result<UnifyResult> res = UnifyExprs(u, eq.lhs, eq.rhs, opts);
    ASSERT_TRUE(res.ok()) << FormatExpr(u, eq.lhs) << " = "
                          << FormatExpr(u, eq.rhs) << ": "
                          << res.status().ToString();
    // Soundness: every symbolic solution literally unifies the sides.
    for (const ExprSubst& rho : res->solutions) {
      EXPECT_EQ(SubstituteExpr(eq.lhs, rho), SubstituteExpr(eq.rhs, rho))
          << FormatSubst(u, rho);
    }
    // Completeness: every ground solution is an instance of some symbolic
    // solution.
    std::vector<VarId> vars;
    CollectVars(eq.lhs, &vars);
    CollectVars(eq.rhs, &vars);
    if (vars.size() > 4) continue;  // keep the enumeration cheap
    ++checked;
    ForEachGroundValuation(u, vars, [&](const ExprSubst& nu) {
      Result<PathId> l = EvalGroundExpr(u, SubstituteExpr(eq.lhs, nu));
      Result<PathId> r = EvalGroundExpr(u, SubstituteExpr(eq.rhs, nu));
      ASSERT_TRUE(l.ok());
      ASSERT_TRUE(r.ok());
      if (*l != *r) return;
      bool covered = false;
      for (const ExprSubst& rho : res->solutions) {
        covered |= IsSymbolicInstance(u, vars, rho, nu, /*allow_empty=*/true);
      }
      EXPECT_TRUE(covered) << "ground solution " << FormatSubst(u, nu)
                           << " of " << FormatExpr(u, eq.lhs) << " = "
                           << FormatExpr(u, eq.rhs)
                           << " not covered by any symbolic solution";
    });
  }
  EXPECT_GT(checked, 10);
}

// --- Transformation pipeline equivalence -----------------------------------------

class PipelineSeedTest : public ::testing::TestWithParam<uint64_t> {};

TEST(PipelineTest, FullDesugaringOfExample22IsFeatureFree) {
  // packing elimination -> equation elimination -> arity elimination on the
  // three-occurrence query: the result uses only {I, N}. (Evaluating the
  // fully desugared program is prohibitively expensive — the Lemma 4.1
  // pairing encoding duplicates the innermost component 2^(arity-1) times,
  // and the auxiliary relations here reach arity 9; the evaluation
  // equivalence is checked on the two-occurrence variant below.)
  Universe u;
  Program p = MustParse(u,
                        "T($u ++ <$s> ++ $v) <- R($u ++ $s ++ $v), S($s).\n"
                        "A <- T($x), T($y), T($z), $x != $y, $x != $z, "
                        "$y != $z.\n");
  Result<Program> q1 = EliminatePackingNonrecursive(u, p);
  ASSERT_TRUE(q1.ok()) << q1.status().ToString();
  Result<Program> q2 = EliminateEquations(u, *q1);
  ASSERT_TRUE(q2.ok()) << q2.status().ToString();
  Result<Program> q3 = EliminateArity(u, *q2);
  ASSERT_TRUE(q3.ok()) << q3.status().ToString();
  FeatureSet f = DetectFeatures(*q3);
  EXPECT_FALSE(f.Contains(Feature::kPacking));
  EXPECT_FALSE(f.Contains(Feature::kEquations));
  EXPECT_FALSE(f.Contains(Feature::kArity));
}

TEST_P(PipelineSeedTest, FullDesugaringOfTwoOccurrences) {
  // The same full pipeline on the two-occurrence variant, where the
  // auxiliary arities stay small enough to evaluate, checked end to end
  // against the original program on random flat data.
  uint64_t seed = GetParam();
  Universe u;
  Program p = MustParse(u,
                        "T($u ++ <$s> ++ $v) <- R($u ++ $s ++ $v), S($s).\n"
                        "A <- T($x), T($y), $x != $y.\n");
  Result<Program> q1 = EliminatePackingNonrecursive(u, p);
  ASSERT_TRUE(q1.ok()) << q1.status().ToString();
  Result<Program> q2 = EliminateEquations(u, *q1);
  ASSERT_TRUE(q2.ok()) << q2.status().ToString();
  Result<Program> q3 = EliminateArity(u, *q2);
  ASSERT_TRUE(q3.ok()) << q3.status().ToString();
  FeatureSet f = DetectFeatures(*q3);
  EXPECT_FALSE(f.Contains(Feature::kPacking));
  EXPECT_FALSE(f.Contains(Feature::kEquations));
  EXPECT_FALSE(f.Contains(Feature::kArity));

  StringWorkload rw;
  rw.count = 2;
  rw.max_len = 3;
  rw.seed = seed;
  rw.rel = "R";
  StringWorkload sw;
  sw.count = 1;
  sw.min_len = 1;
  sw.max_len = 1;
  sw.seed = seed + 1000;
  sw.rel = "S";
  Result<Instance> in = RandomStrings(u, rw);
  ASSERT_TRUE(in.ok());
  Result<Instance> needles = RandomStrings(u, sw);
  ASSERT_TRUE(needles.ok());
  in->UnionWith(*needles);

  RelId a_rel = *u.FindRel("A");
  Result<PreparedProgram> prog1 = Engine::Compile(u, p);
  Result<PreparedProgram> prog2 = Engine::Compile(u, *q3);
  ASSERT_TRUE(prog1.ok()) << prog1.status().ToString();
  ASSERT_TRUE(prog2.ok()) << prog2.status().ToString();
  RunOptions opts;
  opts.max_facts = 2'000'000;
  Result<Instance> o1 = prog1->Run(*in, opts);
  Result<Instance> o2 = prog2->Run(*in, opts);
  ASSERT_TRUE(o1.ok()) << o1.status().ToString();
  ASSERT_TRUE(o2.ok()) << o2.status().ToString();
  EXPECT_EQ(o1->Contains(a_rel, {}), o2->Contains(a_rel, {}));
}

TEST_P(PipelineSeedTest, MarkedPairsEquationEliminationAgrees) {
  uint64_t seed = GetParam();
  Universe u;
  Program p = MustParse(u,
                        "U($x, $x) <- R($x).\n"
                        "U($x, $y) <- U($x, @a ++ $y ++ @b), @a != @b.\n"
                        "S($x) <- U($x, eps).\n");
  Result<Program> q = EliminateEquations(u, p);
  ASSERT_TRUE(q.ok());
  StringWorkload w;
  w.count = 12;
  w.max_len = 6;
  w.alphabet = 2;
  w.seed = seed;
  Result<Instance> in = RandomStrings(u, w);
  ASSERT_TRUE(in.ok());
  RelId s = *u.FindRel("S");
  Result<PreparedProgram> prog1 = Engine::Compile(u, p);
  Result<PreparedProgram> prog2 = Engine::Compile(u, *q);
  ASSERT_TRUE(prog1.ok()) << prog1.status().ToString();
  ASSERT_TRUE(prog2.ok()) << prog2.status().ToString();
  Result<Instance> o1 = prog1->Run(*in);
  Result<Instance> o2 = prog2->Run(*in);
  ASSERT_TRUE(o1.ok());
  ASSERT_TRUE(o2.ok());
  EXPECT_EQ(o1->Project({s}), o2->Project({s}));
}

TEST_P(PipelineSeedTest, NaiveSeminaiveAgreeOnReachability) {
  uint64_t seed = GetParam();
  Universe u;
  Result<ParsedQuery> q = ParsePaperQuery(u, "reach_ab");
  ASSERT_TRUE(q.ok());
  GraphWorkload gw;
  gw.nodes = 9;
  gw.edges = 14;
  gw.seed = seed;
  Graph g = RandomGraph(gw);
  Result<Instance> in = GraphToInstance(u, g, "R");
  ASSERT_TRUE(in.ok());
  Result<PreparedProgram> prog = Engine::Compile(u, q->program);
  ASSERT_TRUE(prog.ok()) << prog.status().ToString();
  RunOptions naive;
  naive.seminaive = false;
  Result<Instance> o1 = prog->Run(*in);
  Result<Instance> o2 = prog->Run(*in, naive);
  ASSERT_TRUE(o1.ok());
  ASSERT_TRUE(o2.ok());
  EXPECT_EQ(*o1, *o2);
  EXPECT_EQ(o1->Contains(q->output, {}), Reachable(g, 0, 1));
}

TEST_P(PipelineSeedTest, AlgebraAgreesOnRandomData) {
  uint64_t seed = GetParam();
  Universe u;
  Program p = MustParse(u, "S($x) <- R($x ++ @y ++ $x), !Q(@y).");
  RelId s = *u.FindRel("S");
  Result<AlgebraPtr> alg = DatalogToAlgebra(u, p, s);
  ASSERT_TRUE(alg.ok()) << alg.status().ToString();
  StringWorkload rw;
  rw.count = 6;
  rw.max_len = 5;
  rw.seed = seed;
  rw.rel = "R";
  StringWorkload qw;
  qw.count = 1;
  qw.min_len = 1;
  qw.max_len = 1;
  qw.seed = seed + 7;
  qw.rel = "Q";
  Result<Instance> in = RandomStrings(u, rw);
  ASSERT_TRUE(in.ok());
  Result<Instance> qs = RandomStrings(u, qw);
  ASSERT_TRUE(qs.ok());
  in->UnionWith(*qs);
  Result<PreparedProgram> prog = Engine::Compile(u, p);
  ASSERT_TRUE(prog.ok()) << prog.status().ToString();
  Result<Instance> engine = prog->Run(*in);
  Result<EvaluatedRel> algebra = EvalAlgebra(u, **alg, *in);
  ASSERT_TRUE(engine.ok());
  ASSERT_TRUE(algebra.ok()) << algebra.status().ToString();
  EXPECT_EQ(engine->Tuples(s), algebra->tuples);
}

INSTANTIATE_TEST_SUITE_P(Seeds, PipelineSeedTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

// --- Lemma 5.1: linear output bound for nonrecursive programs --------------------

size_t MaxPathLength(const Universe& u, const Instance& i) {
  size_t n = 0;
  for (RelId rel : i.Relations()) {
    for (TupleRef t : i.Tuples(rel)) {
      for (PathId p : t) n = std::max(n, u.PathLength(p));
    }
  }
  return n;
}

TEST(Lemma51Test, NonrecursiveOutputsAreLinearlyBounded) {
  // For nonrecursive corpus programs, output length stays within a fixed
  // linear function of input length across a growing family of instances.
  for (const char* id : {"json_sales", "process_mining", "deep_equal",
                         "gcore_common_nodes", "ex44_only_as_noeq"}) {
    for (size_t n : {2u, 4u, 8u, 16u, 32u}) {
      Universe u;
      Result<ParsedQuery> q = ParsePaperQuery(u, id);
      ASSERT_TRUE(q.ok()) << id;
      Instance in;
      for (RelId rel : EdbRels(q->program)) {
        uint32_t arity = u.RelArity(rel);
        Tuple t;
        for (uint32_t i = 0; i < arity; ++i) {
          t.push_back(u.PathOfChars(std::string(n, 'a')));
        }
        in.Add(rel, t);
      }
      Result<PreparedProgram> prog = Engine::Compile(u, q->program);
      ASSERT_TRUE(prog.ok()) << prog.status().ToString();
      Result<Instance> out = prog->Run(in);
      ASSERT_TRUE(out.ok()) << id << ": " << out.status().ToString();
      // Lemma 5.1: |output paths| <= a·n + b. These programs all satisfy
      // a <= 2, b <= 4.
      EXPECT_LE(MaxPathLength(u, *out), 2 * n + 4) << id << " n=" << n;
    }
  }
}

TEST(Lemma51Test, SquaringExceedsEveryLinearBoundEventually) {
  // The recursive squaring query (Theorem 5.3) produces outputs of length
  // n^2: for the bound 2n + 4 used above, n = 4 already exceeds it.
  Universe u;
  Result<ParsedQuery> q = ParsePaperQuery(u, "squaring");
  ASSERT_TRUE(q.ok());
  Instance in;
  in.Add(*u.FindRel("R"), {u.PathOfChars(std::string(4, 'a'))});
  Result<PreparedProgram> prog = Engine::Compile(u, q->program);
  ASSERT_TRUE(prog.ok()) << prog.status().ToString();
  Result<Instance> out = prog->Run(in);
  ASSERT_TRUE(out.ok());
  Instance squares = out->Project({q->output});
  EXPECT_GT(MaxPathLength(u, squares), 2 * 4 + 4);
  EXPECT_EQ(MaxPathLength(u, squares), 16u);
}

// --- Generated-program differential sweep ----------------------------------------
//
// Enumerates a family of small nonrecursive programs (body pattern shapes
// x optional negation x head expression shapes) and checks that the
// engine, the algebra translation (Theorem 7.1), and equation elimination
// (Theorem 4.7) all agree on random flat instances.

std::vector<std::string> GeneratedPrograms() {
  std::vector<std::string> body_patterns = {
      "R($x)",
      "R($x ++ a)",
      "R(a ++ $x)",
      "R($x ++ $x)",
      "R($x ++ @y)",
      "R(@y ++ $x ++ @y)",
  };
  std::vector<std::string> extras = {
      "",
      ", Q($x)",
      ", !Q($x)",
      ", $x != a",
      ", $x = b ++ $z",
  };
  std::vector<std::string> heads = {
      "S($x)",
      "S($x ++ $x)",
      "S(c ++ $x)",
  };
  std::vector<std::string> out;
  for (const std::string& body : body_patterns) {
    for (const std::string& extra : extras) {
      for (const std::string& head : heads) {
        // The $z-binding extra only composes with the plain head.
        if (extra.find("$z") != std::string::npos && head != "S($x)") {
          continue;
        }
        out.push_back(head + " <- " + body + extra + ".");
      }
    }
  }
  return out;
}

TEST(GeneratedProgramTest, EngineAlgebraAndEquationEliminationAgree) {
  size_t checked = 0;
  for (const std::string& text : GeneratedPrograms()) {
    Universe u;
    Result<Program> p = ParseProgram(u, text);
    ASSERT_TRUE(p.ok()) << text;
    RelId s = *u.FindRel("S");

    StringWorkload rw;
    rw.count = 5;
    rw.max_len = 4;
    rw.alphabet = 3;
    rw.seed = 99;
    rw.rel = "R";
    Result<Instance> in = RandomStrings(u, rw);
    ASSERT_TRUE(in.ok());
    if (text.find("Q(") != std::string::npos) {
      StringWorkload qw = rw;
      qw.count = 2;
      qw.seed = 100;
      qw.rel = "Q";
      Result<Instance> qs = RandomStrings(u, qw);
      ASSERT_TRUE(qs.ok());
      in->UnionWith(*qs);
    }

    Result<PreparedProgram> prog = Engine::Compile(u, *p);
    ASSERT_TRUE(prog.ok()) << text << ": " << prog.status().ToString();
    Result<Instance> engine = prog->Run(*in);
    ASSERT_TRUE(engine.ok()) << text << ": " << engine.status().ToString();

    // Theorem 7.1: algebra translation agrees.
    Result<AlgebraPtr> alg = DatalogToAlgebra(u, *p, s);
    ASSERT_TRUE(alg.ok()) << text << ": " << alg.status().ToString();
    Result<EvaluatedRel> algebra = EvalAlgebra(u, **alg, *in);
    ASSERT_TRUE(algebra.ok()) << text;
    EXPECT_EQ(engine->Tuples(s), algebra->tuples) << text;

    // Theorem 4.7: equation elimination agrees (when equations occur).
    if (text.find('=') != std::string::npos) {
      Result<Program> noeq = EliminateEquations(u, *p);
      ASSERT_TRUE(noeq.ok()) << text;
      Result<PreparedProgram> prog2 = Engine::Compile(u, *noeq);
      ASSERT_TRUE(prog2.ok()) << text << ": " << prog2.status().ToString();
      Result<Instance> out2 = prog2->Run(*in);
      ASSERT_TRUE(out2.ok()) << text;
      EXPECT_EQ(engine->Tuples(s), out2->Tuples(s)) << text;
    }
    ++checked;
  }
  EXPECT_GE(checked, 70u);
}

// --- Hash-consing invariants under heavy churn -----------------------------------

TEST(TermPropertyTest, InterningIsStableUnderRandomOps) {
  Universe u;
  std::mt19937_64 rng(7);
  std::vector<PathId> pool = {kEmptyPath};
  std::uniform_int_distribution<int> op(0, 3);
  for (int i = 0; i < 2000; ++i) {
    std::uniform_int_distribution<size_t> pick(0, pool.size() - 1);
    PathId a = pool[pick(rng)];
    PathId b = pool[pick(rng)];
    switch (op(rng)) {
      case 0:
        pool.push_back(u.Concat(a, b));
        break;
      case 1:
        pool.push_back(u.Append(a, Value::Packed(b)));
        break;
      case 2: {
        std::span<const Value> v = u.GetPath(a);
        if (!v.empty()) {
          std::uniform_int_distribution<size_t> cut(0, v.size() - 1);
          size_t start = cut(rng);
          pool.push_back(u.SubPath(a, start, v.size() - start));
        }
        break;
      }
      default:
        pool.push_back(
            u.Append(a, Value::Atom(u.InternAtom(std::to_string(i % 5)))));
        break;
    }
    // Invariant: re-interning any pooled path's contents returns its id.
    PathId p = pool.back();
    EXPECT_EQ(u.InternPath(u.GetPath(p)), p);
    if (pool.size() > 64) pool.erase(pool.begin());
  }
}

}  // namespace
}  // namespace seqdl
