// Randomized differential harness: the safety net for planner changes.
//
// Generates small random Sequence Datalog programs and EDB instances from
// a seeded RNG (no wall-clock anywhere — every run of a given seed sees
// the same case), evaluates each through every execution path the engine
// has, and asserts the rendered outputs are byte-identical:
//
//   * the reference: PreparedProgram::Run with default options
//     (compile-once, throwaway indexed base);
//   * forced full scans (RunOptions::use_index = false) — no index family
//     is ever probed;
//   * naive iteration (seminaive = false) and unordered scans
//     (CompileOptions::reorder_scans = false);
//   * Session::Run over a Database (shared pre-indexed base, derived
//     overlay only);
//   * Database::Compile — the selectivity-aware planner fed by measured
//     Database::Stats().
//
// The paper's expressiveness results assume evaluation is invariant under
// how a rule body is matched; this harness is what lets the planner be
// refactored aggressively (selectivity ranking, scan reordering, new
// index families) without semantic drift.
//
// Iteration count defaults to 200 seeds; the SEQDL_DIFFTEST_ITERS
// environment variable scales it (the CI SEQDL_DIFFTEST job runs 10x).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <memory>
#include <optional>
#include <random>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "src/engine/database.h"
#include "src/engine/engine.h"
#include "src/engine/instance.h"
#include "src/server/client.h"
#include "src/server/server.h"
#include "src/server/service.h"
#include "src/storage/wal.h"
#include "src/syntax/ast.h"
#include "src/syntax/printer.h"
#include "src/term/universe.h"
#include "src/view/view.h"
#include "tests/test_support.h"

namespace seqdl {
namespace {

// Budgets shared by every mode. Generated programs terminate by
// construction (head arguments are single variables, so derived paths are
// subpaths of input paths — a finite set), but the budgets bound runaway
// joins; a seed whose evaluation exceeds them is skipped, since budget
// cutoffs depend on enumeration order.
constexpr size_t kMaxFacts = 20'000;
constexpr size_t kMaxIterations = 2'000;

struct RandomCase {
  Program program;
  Instance input;
};

// Generates one random case. All randomness flows from the seeded mt19937;
// `% n` keeps the draw sequence identical across standard libraries.
// Roughly half the cases draw from the paper's packing fragment: EDB
// paths may hold packed values `<...>` and body arguments may pack
// subexpressions, so the harness also pins the engine's nested-value
// matching across every execution mode. Independently, roughly half the
// cases add a second stratum whose rules may *negate IDB relations
// defined in the first* — multi-stratum negation, the part of stratified
// semantics a single stratum can never exercise (negation there is
// restricted to EDB relations).
class CaseGenerator {
 public:
  CaseGenerator(Universe& u, uint64_t seed) : u_(u), rng_(seed) {}

  bool packing() const { return packing_; }
  bool multi_stratum() const { return multi_stratum_; }
  /// Some rule negates a stratum-1 IDB relation (subset of
  /// multi_stratum() cases).
  bool negates_idb() const { return negates_idb_; }
  /// Some negated literal has a two-item concatenation as an argument.
  bool compound_negation() const { return compound_negation_; }

  RandomCase Generate() {
    packing_ = Pick(2) == 0;
    multi_stratum_ = Pick(2) == 0;
    negates_idb_ = false;
    compound_negation_ = false;
    // Symbol pools.
    std::vector<AtomId> atoms;
    for (char c : {'a', 'b', 'c', 'd'}) {
      atoms.push_back(u_.InternAtom(std::string(1, c)));
    }
    std::vector<RelId> edb, idb;
    size_t num_edb = 2 + Pick(2);  // 2-3
    for (size_t i = 0; i < num_edb; ++i) {
      edb.push_back(*u_.InternRel(Numbered("E", i),
                                  static_cast<uint32_t>(1 + Pick(2))));
    }
    size_t num_idb = 1 + Pick(2);  // 1-2
    for (size_t i = 0; i < num_idb; ++i) {
      idb.push_back(*u_.InternRel(Numbered("I", i),
                                  static_cast<uint32_t>(1 + Pick(2))));
    }
    edb_rels_ = edb;

    RandomCase c;
    // EDB facts: 3-8 tuples per relation, paths of 0-3 random atoms. Skew
    // roughly half the relations by repeating one "hot" atom, so the
    // selectivity-aware planner actually sees uneven buckets.
    for (RelId rel : edb) {
      size_t tuples = 3 + Pick(6);
      bool skewed = Pick(2) == 0;
      for (size_t t = 0; t < tuples; ++t) {
        Tuple tuple;
        for (uint32_t col = 0; col < u_.RelArity(rel); ++col) {
          std::vector<Value> path;
          size_t len = Pick(4);
          for (size_t i = 0; i < len; ++i) {
            size_t a = skewed && Pick(2) == 0 ? 0 : Pick(atoms.size());
            Value v = Value::Atom(atoms[a]);
            // Packing-fragment cases nest some values one level deep:
            // <eps>, <b>, or <b·c> instead of a bare atom.
            if (packing_ && Pick(5) == 0) {
              std::vector<Value> inner;
              size_t inner_len = Pick(3);
              for (size_t k = 0; k < inner_len; ++k) {
                inner.push_back(Value::Atom(atoms[Pick(atoms.size())]));
              }
              v = Value::Packed(u_.InternPath(inner));
            }
            path.push_back(v);
          }
          tuple.push_back(u_.InternPath(path));
        }
        c.input.Add(rel, std::move(tuple));
      }
    }

    // Stratum 1: 2-4 rules (recursion through IDB body literals
    // exercises the semi-naive delta path; negation here is restricted
    // to EDB relations, so the stratum is trivially stratified).
    Stratum stratum;
    size_t num_rules = 2 + Pick(3);
    for (size_t i = 0; i < num_rules; ++i) {
      stratum.rules.push_back(GenerateRule(atoms, edb, idb, idb, edb));
    }
    c.program.strata.push_back(std::move(stratum));

    // Stratum 2 (about half the cases): heads draw from fresh relations
    // (a relation defined in stratum 1 must not gain rules later), the
    // positive body may join EDB, stratum-1 IDB, and stratum-2 IDB, and
    // the negated literal may target stratum-1 IDB relations — the
    // stratified-negation shape proper.
    if (multi_stratum_) {
      std::vector<RelId> idb2;
      size_t num_idb2 = 1 + Pick(2);  // 1-2
      for (size_t i = 0; i < num_idb2; ++i) {
        idb2.push_back(*u_.InternRel(Numbered("J", i),
                                     static_cast<uint32_t>(1 + Pick(2))));
      }
      std::vector<RelId> positive = edb;
      positive.insert(positive.end(), idb.begin(), idb.end());
      std::vector<RelId> negatable = edb;
      negatable.insert(negatable.end(), idb.begin(), idb.end());
      Stratum second;
      size_t num_rules2 = 1 + Pick(2);  // 1-2
      for (size_t i = 0; i < num_rules2; ++i) {
        second.rules.push_back(
            GenerateRule(atoms, positive, idb2, idb2, negatable));
      }
      c.program.strata.push_back(std::move(second));
    }
    return c;
  }

 private:
  size_t Pick(size_t n) { return rng_() % n; }

  bool IsEdb(RelId rel) const {
    for (RelId e : edb_rels_) {
      if (e == rel) return true;
    }
    return false;
  }

  VarId PathVar(size_t i) {
    return u_.InternVar(VarKind::kPath, Numbered("p", i));
  }
  VarId AtomVar(size_t i) {
    return u_.InternVar(VarKind::kAtomic, Numbered("a", i));
  }

  ExprItem RandomItem(const std::vector<AtomId>& atoms) {
    // Packing-fragment cases spend one slot in six on a packed
    // subexpression `<...>`; its inner items may introduce fresh
    // variables, bound by matching against the packed value's contents.
    if (packing_ && Pick(6) == 0) {
      std::vector<ExprItem> inner;
      size_t n = 1 + Pick(2);
      for (size_t i = 0; i < n; ++i) inner.push_back(FlatItem(atoms));
      return ExprItem::Pack(PathExpr(std::move(inner)));
    }
    return FlatItem(atoms);
  }

  ExprItem FlatItem(const std::vector<AtomId>& atoms) {
    switch (Pick(5)) {
      case 0:
      case 1:
        return ExprItem::Const(Value::Atom(atoms[Pick(atoms.size())]));
      case 2:
      case 3:
        return ExprItem::PathVar(PathVar(Pick(4)));
      default:
        return ExprItem::AtomVar(AtomVar(Pick(3)));
    }
  }

  PathExpr RandomExpr(const std::vector<AtomId>& atoms, size_t max_items) {
    std::vector<ExprItem> items;
    size_t n = 1 + Pick(max_items);
    for (size_t i = 0; i < n; ++i) items.push_back(RandomItem(atoms));
    return PathExpr(std::move(items));
  }

  /// One safe rule: positive body literals draw from `base_pool` (70%)
  /// or `rec_pool` (30%, same-stratum recursion), the head from
  /// `head_pool`, the optional negated literal from `neg_pool`. The
  /// single-stratum caller passes (edb, idb, idb, edb); the stratum-2
  /// caller widens base and negation pools to include stratum-1 IDB.
  Rule GenerateRule(const std::vector<AtomId>& atoms,
                    const std::vector<RelId>& base_pool,
                    const std::vector<RelId>& rec_pool,
                    const std::vector<RelId>& head_pool,
                    const std::vector<RelId>& neg_pool) {
    Rule r;
    // Positive body: 1-3 predicate literals, mostly from the base pool
    // (recursion-pool literals make the rule recursive).
    size_t body_preds = 1 + Pick(3);
    for (size_t i = 0; i < body_preds; ++i) {
      bool use_rec = !rec_pool.empty() && Pick(10) < 3;
      RelId rel = use_rec ? rec_pool[Pick(rec_pool.size())]
                          : base_pool[Pick(base_pool.size())];
      Predicate pred;
      pred.rel = rel;
      for (uint32_t col = 0; col < u_.RelArity(rel); ++col) {
        pred.args.push_back(RandomExpr(atoms, 3));
      }
      r.body.push_back(Literal::Pred(std::move(pred)));
    }

    // Variables bound by the positive predicates; everything below only
    // uses these, which keeps every generated rule safe.
    std::vector<VarId> bound;
    for (const Literal& l : r.body) CollectVars(l, &bound);

    // Optional equation whose left side is a single bound variable (so
    // equation scheduling always succeeds); the right side may introduce
    // fresh variables, bound by matching.
    if (!bound.empty() && Pick(4) == 0) {
      VarId lhs = bound[Pick(bound.size())];
      r.body.push_back(
          Literal::Eq(VarExpr(u_, lhs), RandomExpr(atoms, 2)));
      CollectVars(r.body.back(), &bound);
    }

    // Optional negated literal (over bound variables / constants only)
    // from the stratification-safe pool: EDB in stratum 1, EDB plus
    // stratum-1 IDB in stratum 2. An argument is a lone item or, one
    // time in four, a two-item concatenation, so a restricted pass over
    // the relation's change has splits to enumerate.
    if (!bound.empty() && Pick(4) == 0) {
      RelId rel = neg_pool[Pick(neg_pool.size())];
      if (!IsEdb(rel)) negates_idb_ = true;
      auto item = [&]() {
        if (Pick(2) == 0) return VarExpr(u_, bound[Pick(bound.size())]);
        return ConstExpr(Value::Atom(atoms[Pick(atoms.size())]));
      };
      Predicate pred;
      pred.rel = rel;
      for (uint32_t col = 0; col < u_.RelArity(rel); ++col) {
        PathExpr arg = item();
        if (Pick(4) == 0) {
          arg = ConcatExpr(arg, item());
          compound_negation_ = true;
        }
        pred.args.push_back(std::move(arg));
      }
      r.body.push_back(Literal::Pred(std::move(pred), /*negated=*/true));
    }

    // Head: a random relation from the head pool; every argument is a
    // single bound variable (or a constant), which both guarantees
    // safety and bounds derived paths to subpaths of the input — the
    // termination argument.
    RelId head_rel = head_pool[Pick(head_pool.size())];
    r.head.rel = head_rel;
    for (uint32_t col = 0; col < u_.RelArity(head_rel); ++col) {
      if (!bound.empty() && Pick(4) != 0) {
        r.head.args.push_back(VarExpr(u_, bound[Pick(bound.size())]));
      } else {
        r.head.args.push_back(
            ConstExpr(Value::Atom(atoms[Pick(atoms.size())])));
      }
    }
    return r;
  }

  Universe& u_;
  std::mt19937 rng_;
  /// This case draws from the packing fragment (set per Generate()).
  bool packing_ = false;
  /// This case has a second stratum (set per Generate()).
  bool multi_stratum_ = false;
  /// Some stratum-2 rule negates a stratum-1 IDB relation.
  bool negates_idb_ = false;
  /// Some negated literal has a concatenated argument.
  bool compound_negation_ = false;
  std::vector<RelId> edb_rels_;
};

size_t Iterations() {
  if (const char* env = std::getenv("SEQDL_DIFFTEST_ITERS")) {
    size_t n = std::strtoull(env, nullptr, 10);
    if (n > 0) return n;
  }
  return 200;
}

TEST(DifferentialTest, AllExecutionModesAgreeOnRandomPrograms) {
  size_t iterations = Iterations();
  size_t compared = 0, skipped = 0, packed_cases = 0;
  size_t multi_stratum_cases = 0, idb_negation_cases = 0;
  size_t compound_negation_cases = 0;
  for (uint64_t seed = 1; seed <= iterations; ++seed) {
    Universe u;
    CaseGenerator gen(u, seed);
    RandomCase c = gen.Generate();
    if (gen.packing()) ++packed_cases;
    if (gen.multi_stratum()) ++multi_stratum_cases;
    if (gen.negates_idb()) ++idb_negation_cases;
    if (gen.compound_negation()) ++compound_negation_cases;
    SCOPED_TRACE("seed " + std::to_string(seed) + "\n" +
                 FormatProgram(u, c.program) + c.input.ToString(u));

    // Reference: the prepared run with default options (plus the shared
    // budgets).
    Result<PreparedProgram> prog = Engine::Compile(u, c.program);
    ASSERT_TRUE(prog.ok()) << prog.status().ToString();
    RunOptions ropts;
    ropts.max_facts = kMaxFacts;
    ropts.max_iterations = kMaxIterations;
    Result<Instance> ref = prog->Run(c.input, ropts);
    if (!ref.ok()) {
      // Budget exhaustion is order-dependent, so the seed cannot be
      // compared across modes; generated rules are safe by construction,
      // anything else is a real failure.
      ASSERT_EQ(ref.status().code(), StatusCode::kResourceExhausted)
          << ref.status().ToString();
      ++skipped;
      continue;
    }
    std::string expected = ref->ToString(u);

    auto check = [&](const char* mode, const Result<Instance>& got) {
      ASSERT_TRUE(got.ok()) << mode << ": " << got.status().ToString();
      EXPECT_EQ(expected, got->ToString(u)) << mode;
    };

    // Naive iteration and forced full scans.
    RunOptions naive = ropts;
    naive.seminaive = false;
    check("naive", prog->Run(c.input, naive));
    RunOptions no_index = ropts;
    no_index.use_index = false;
    check("full-scan", prog->Run(c.input, no_index));

    // Body-order scans: the program compiled without reordering.
    CompileOptions in_body_order;
    in_body_order.reorder_scans = false;
    Result<PreparedProgram> unordered =
        Engine::Compile(u, c.program, in_body_order);
    ASSERT_TRUE(unordered.ok()) << unordered.status().ToString();
    check("no-reorder", unordered->Run(c.input, ropts));

    // Database/Session: shared pre-indexed base; Run returns the derived
    // overlay only, so union the EDB back for comparison.
    Result<Database> db = Database::Open(u, c.input);
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    Session session = db->Snapshot();
    auto check_derived = [&](const char* mode, Result<Instance> derived) {
      ASSERT_TRUE(derived.ok()) << mode << ": "
                                << derived.status().ToString();
      Instance full = db->edb();
      full.UnionWith(std::move(*derived));
      EXPECT_EQ(expected, full.ToString(u)) << mode;
    };
    check_derived("session", session.Run(*prog, ropts));

    // The selectivity-aware planner, fed by measured statistics.
    Result<PreparedProgram> planned = db->Compile(c.program);
    ASSERT_TRUE(planned.ok()) << planned.status().ToString();
    check_derived("selectivity-plan", session.Run(*planned, ropts));

    ++compared;
  }
  // Guard against generator drift making the harness vacuous.
  EXPECT_GE(compared * 5, iterations * 4)
      << compared << " of " << iterations << " seeds compared (" << skipped
      << " skipped)";
  // And against the packing fragment silently dropping out of coverage.
  EXPECT_GE(packed_cases * 4, iterations)
      << packed_cases << " of " << iterations << " seeds drew packed values";
  // Multi-stratum negation must stay covered too: about half the seeds
  // carry a second stratum, and a meaningful fraction of those actually
  // negate a stratum-1 IDB relation.
  EXPECT_GE(multi_stratum_cases * 4, iterations)
      << multi_stratum_cases << " of " << iterations
      << " seeds drew a second stratum";
  EXPECT_GE(idb_negation_cases * 40, iterations)
      << idb_negation_cases << " of " << iterations
      << " seeds negated a stratum-1 IDB relation";
  EXPECT_GE(compound_negation_cases * 40, iterations)
      << compound_negation_cases << " of " << iterations
      << " seeds concatenated a negated literal's argument";
}

// The ingest differential: facts arriving through Append must be
// indistinguishable from facts present at Open. For every random case the
// EDB is split into three batches ingested at epochs 0/1/2; at each epoch
// a pinned snapshot's results (and its materialized EDB) must be
// byte-identical to a fresh Database::Open on exactly that epoch's facts
// — and the pinned snapshots must keep producing those bytes after later
// appends and after Compact() rewrites the segment stack underneath them.
TEST(DifferentialTest, IncrementalIngestMatchesColdOpenPerEpoch) {
  size_t iterations = Iterations();
  size_t compared = 0, skipped = 0;
  for (uint64_t seed = 1; seed <= iterations; ++seed) {
    Universe u;
    RandomCase c = CaseGenerator(u, seed).Generate();
    SCOPED_TRACE("seed " + std::to_string(seed) + "\n" +
                 FormatProgram(u, c.program) + c.input.ToString(u));

    Result<PreparedProgram> prog = Engine::Compile(u, c.program);
    ASSERT_TRUE(prog.ok()) << prog.status().ToString();
    RunOptions ropts;
    ropts.max_facts = kMaxFacts;
    ropts.max_iterations = kMaxIterations;

    // Split the EDB round-robin into three ingest batches.
    std::vector<Instance> batches(3);
    {
      size_t i = 0;
      for (RelId rel : c.input.Relations()) {
        for (TupleRef t : c.input.Tuples(rel)) {
          batches[i++ % batches.size()].Add(rel, t);
        }
      }
    }

    Result<Database> db = Database::Open(u, batches[0]);
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    ASSERT_TRUE(db->Append(batches[1]).ok());
    ASSERT_TRUE(db->Append(batches[2]).ok());
    ASSERT_EQ(db->epoch(), 2u);

    // Per epoch: the cold-open expectation on that epoch's facts, and
    // the matching pinned snapshot (reopened per epoch via a throwaway
    // prefix database so the snapshot predates the later appends).
    Instance accumulated;
    std::vector<std::string> expected_derived, expected_edb;
    bool budget_hit = false;
    for (size_t e = 0; e < batches.size(); ++e) {
      accumulated.UnionWith(batches[e]);
      Result<Database> cold = Database::Open(u, accumulated);
      ASSERT_TRUE(cold.ok()) << cold.status().ToString();
      Result<Instance> derived = cold->Snapshot().Run(*prog, ropts);
      if (!derived.ok()) {
        ASSERT_EQ(derived.status().code(), StatusCode::kResourceExhausted)
            << derived.status().ToString();
        budget_hit = true;
        break;
      }
      expected_derived.push_back(derived->ToString(u));
      expected_edb.push_back(cold->edb().ToString(u));
    }
    if (budget_hit) {
      ++skipped;
      continue;
    }

    // Replay the ingest with live pinned snapshots this time.
    Result<Database> live = Database::Open(u, batches[0]);
    ASSERT_TRUE(live.ok()) << live.status().ToString();
    std::vector<Session> pinned;
    pinned.push_back(live->Snapshot());
    ASSERT_TRUE(live->Append(batches[1]).ok());
    pinned.push_back(live->Snapshot());
    ASSERT_TRUE(live->Append(batches[2]).ok());
    pinned.push_back(live->Snapshot());

    auto check_all = [&](const char* phase) {
      for (size_t e = 0; e < pinned.size(); ++e) {
        EXPECT_EQ(pinned[e].epoch(), e) << phase;
        Result<Instance> got = pinned[e].Run(*prog, ropts);
        ASSERT_TRUE(got.ok())
            << phase << " epoch " << e << ": " << got.status().ToString();
        EXPECT_EQ(expected_derived[e], got->ToString(u))
            << phase << " epoch " << e;
        EXPECT_EQ(expected_edb[e], pinned[e].edb().ToString(u))
            << phase << " epoch " << e;
      }
    };
    check_all("pre-compaction");
    // Compaction rewrites the live stack to one segment; every pinned
    // snapshot must be unaffected, bit for bit.
    live->Compact();
    EXPECT_EQ(live->NumSegments(), 1u);
    EXPECT_EQ(live->epoch(), 2u);
    check_all("post-compaction");
    ++compared;
  }
  EXPECT_GE(compared * 5, iterations * 4)
      << compared << " of " << iterations << " seeds compared (" << skipped
      << " skipped)";
}

/// Refreshes whose negated inputs changed, per direction: counted from
/// the EvalStats of each Refresh.
struct NegationSeeds {
  uint64_t gained = 0;
  uint64_t lost = 0;

  void Count(const EvalStats& stats) {
    if (stats.negated_gained_seeds > 0) ++gained;
    if (stats.negated_lost_seeds > 0) ++lost;
  }
  void Add(const NegationSeeds& other) {
    gained += other.gained;
    lost += other.lost;
  }
};

/// Head relations of the strata none of whose rules reads a head of its
/// own stratum positively. A maintained view's support counts of these
/// are exact, so they must equal a cold run's.
std::set<RelId> NonRecursiveHeads(const Program& p) {
  std::set<RelId> out;
  for (const Stratum& s : p.strata) {
    std::set<RelId> heads;
    for (const Rule& r : s.rules) heads.insert(r.head.rel);
    bool recursive = false;
    for (const Rule& r : s.rules) {
      for (const Literal& l : r.body) {
        if (l.is_predicate() && !l.negated && heads.count(l.pred.rel) > 0) {
          recursive = true;
        }
      }
    }
    if (!recursive) out.insert(heads.begin(), heads.end());
  }
  return out;
}

/// Expects `view`'s support counts of the `exact` relations to equal a
/// cold materialization's over `cold`.
void ExpectColdSupport(const Database& cold, const PreparedProgram& prog,
                       const RunOptions& ropts, const ViewSnapshot& view,
                       const std::set<RelId>& exact) {
  auto want = cold.views().Refresh("cold", prog, ropts);
  ASSERT_TRUE(want.ok()) << want.status().ToString();
  ExpectSameSupport(view.support(), (*want)->support(), &exact);
}

// The incremental-maintenance differential: a materialized view kept
// current across a random append schedule by semi-naive delta evaluation
// (ViewManager::Refresh → PreparedProgram::RunDelta) must be
// byte-identical to a cold fixpoint over exactly the same facts at every
// epoch. The schedule stresses the hard cases on purpose: appends landing
// in relations some rule negates (seeding the deletion phase and
// retraction cascades), appends that promote previously *derived* facts
// to EDB (the view must drop them, like a cold run does), a
// mid-sequence Compact() that folds the segment stack underneath the
// stored snapshot's publish stamps, and a final retraction of one batch.
TEST(DifferentialTest, MaintainedViewMatchesColdFixpointPerEpoch) {
  size_t iterations = Iterations();
  size_t compared = 0, skipped = 0;
  uint64_t delta_refreshes = 0;
  NegationSeeds negation;
  for (uint64_t seed = 1; seed <= iterations; ++seed) {
    Universe u;
    RandomCase c = CaseGenerator(u, seed).Generate();
    SCOPED_TRACE("seed " + std::to_string(seed) + "\n" +
                 FormatProgram(u, c.program) + c.input.ToString(u));

    Result<PreparedProgram> prog = Engine::Compile(u, c.program);
    ASSERT_TRUE(prog.ok()) << prog.status().ToString();
    RunOptions ropts;
    ropts.max_facts = kMaxFacts;
    ropts.max_iterations = kMaxIterations;

    // Split the EDB round-robin into three ingest batches.
    std::vector<Instance> batches(3);
    {
      size_t i = 0;
      for (RelId rel : c.input.Relations()) {
        for (TupleRef t : c.input.Tuples(rel)) {
          batches[i++ % batches.size()].Add(rel, t);
        }
      }
    }

    Result<Database> live = Database::Open(u, batches[0]);
    ASSERT_TRUE(live.ok()) << live.status().ToString();
    Instance accumulated = batches[0];
    const std::set<RelId> exact = NonRecursiveHeads(c.program);
    bool budget_hit = false;
    NegationSeeds seed_negation;

    // One epoch's comparison: the maintained view against a cold fixpoint
    // on the accumulated facts. Budget exhaustion on either side skips
    // the seed (cutoffs are enumeration-order-dependent, and the delta
    // path enumerates in a different order than the cold one).
    auto check = [&](const char* phase) {
      Result<Database> cold = Database::Open(u, accumulated);
      ASSERT_TRUE(cold.ok()) << cold.status().ToString();
      Result<Instance> want = cold->Snapshot().Run(*prog, ropts);
      if (!want.ok()) {
        ASSERT_EQ(want.status().code(), StatusCode::kResourceExhausted)
            << want.status().ToString();
        budget_hit = true;
        return;
      }
      EvalStats stats;
      auto view = live->views().Refresh("view", *prog, ropts, &stats);
      if (!view.ok()) {
        ASSERT_EQ(view.status().code(), StatusCode::kResourceExhausted)
            << phase << ": " << view.status().ToString();
        budget_hit = true;
        return;
      }
      seed_negation.Count(stats);
      EXPECT_EQ((*view)->epoch(), live->epoch()) << phase;
      EXPECT_EQ(want->ToString(u), (*view)->idb().ToString(u)) << phase;
      SCOPED_TRACE(phase);
      ExpectColdSupport(*cold, *prog, ropts, **view, exact);
    };

    check("epoch 0 (cold)");
    if (budget_hit) {
      ++skipped;
      continue;
    }

    // Promotion batch: a couple of facts the view just *derived*, to be
    // appended as EDB later — the refreshed view must stop reporting
    // them as derived, exactly like a cold run at that epoch.
    Instance promote;
    {
      std::shared_ptr<const ViewSnapshot> v = live->views().Lookup("view");
      ASSERT_NE(v, nullptr);
      size_t taken = 0;
      for (RelId rel : v->idb().Relations()) {
        for (TupleRef t : v->idb().Tuples(rel)) {
          if (taken < 2) {
            promote.Add(rel, t);
            ++taken;
          }
        }
      }
    }

    auto append_and_check = [&](const Instance& batch, const char* phase) {
      ASSERT_TRUE(live->Append(batch).ok()) << phase;
      accumulated.UnionWith(batch);
      check(phase);
    };
    append_and_check(batches[1], "epoch 1 (delta)");
    if (!budget_hit) append_and_check(promote, "epoch 2 (IDB promotion)");
    if (!budget_hit) {
      // Folding the stack keeps epoch and facts; the refreshed view must
      // not move (and a fresh refresh right after is a pure hit).
      live->Compact();
      check("post-compaction");
    }
    if (!budget_hit) append_and_check(batches[2], "epoch 3 (post-compact delta)");
    if (!budget_hit) {
      // Undo one batch. Appends alone make a negated input lose facts
      // only through a lower stratum's loss, which generated cases
      // almost never draw; a retraction makes every negated EDB relation
      // among the victims lose facts, which seeds the insertion pass.
      ASSERT_TRUE(live->Retract(batches[1]).ok());
      for (RelId rel : batches[1].Relations()) {
        for (TupleRef t : batches[1].Tuples(rel)) accumulated.Remove(rel, t);
      }
      check("epoch 4 (batch 1 retracted)");
    }
    if (budget_hit) {
      ++skipped;
      continue;
    }

    ViewManager::Counters counters = live->views().counters();
    delta_refreshes += counters.delta_refreshes;
    EXPECT_EQ(counters.strata_recomputed, 0u);
    negation.Add(seed_negation);
    ++compared;
  }
  EXPECT_GE(compared * 5, iterations * 4)
      << compared << " of " << iterations << " seeds compared (" << skipped
      << " skipped)";
  // The suite must actually exercise incremental delta refreshes, and
  // negation maintained in both directions: refreshes whose negated
  // input gained facts (deletion seeds) and lost facts (insertion
  // seeds).
  EXPECT_GT(delta_refreshes, 0u);
  EXPECT_GT(negation.gained, 0u);
  EXPECT_GT(negation.lost, 0u);
}

/// Draws a random ~third of `from`'s facts with a schedule RNG that is
/// deliberately separate from the case generator's — victim choice must
/// not perturb which program/EDB a seed denotes.
Instance SelectVictims(std::mt19937& sched, const Instance& from) {
  Instance victims;
  for (RelId rel : from.Relations()) {
    for (TupleRef t : from.Tuples(rel)) {
      if (sched() % 3 == 0) victims.Add(rel, t);
    }
  }
  return victims;
}

/// `p` with every negated literal moved to the front of its rule's body.
/// The generator puts it last, and once-per-firing attribution ranks a
/// firing's restricted passes by body position, so each order takes its
/// own branch of it.
Program NegatedLiteralsFirst(Program p) {
  for (Stratum& s : p.strata) {
    for (Rule& r : s.rules) {
      std::stable_partition(r.body.begin(), r.body.end(),
                            [](const Literal& l) { return l.negated; });
    }
  }
  return p;
}

/// A stored firing: a visible EDB fact one of its positive literals
/// matched, and the fact whose arrival in its negated relation kills it.
struct Firing {
  Instance positive;
  Instance negated;
};

/// The firings of `p` over `at`'s facts whose rule has a negated
/// literal, found by running `p` plus one more stratum that copies each
/// such rule once per positive literal, with a head listing the negated
/// literal's arguments and then the positive literal's. Empty when that
/// run exceeds `ropts`' budgets.
std::vector<Firing> NegatedFirings(Universe& u, const Program& p,
                                   const Session& at,
                                   const RunOptions& ropts) {
  struct Copy {
    RelId head, negated, positive;
  };
  std::vector<Copy> copies;
  Program probe = p;
  Stratum last;
  for (const Stratum& s : p.strata) {
    for (const Rule& r : s.rules) {
      auto neg = std::find_if(r.body.begin(), r.body.end(),
                              [](const Literal& l) { return l.negated; });
      if (neg == r.body.end()) continue;
      for (const Literal& l : r.body) {
        if (!l.is_predicate() || l.negated) continue;
        Rule copy = r;
        copy.head.args = neg->pred.args;
        copy.head.args.insert(copy.head.args.end(), l.pred.args.begin(),
                              l.pred.args.end());
        copy.head.rel =
            *u.InternRel(Numbered("Fired", copies.size()),
                         static_cast<uint32_t>(copy.head.args.size()));
        copies.push_back({copy.head.rel, neg->pred.rel, l.pred.rel});
        last.rules.push_back(std::move(copy));
      }
    }
  }
  std::vector<Firing> out;
  if (copies.empty()) return out;
  probe.strata.push_back(std::move(last));
  Result<PreparedProgram> prog = Engine::Compile(u, std::move(probe));
  EXPECT_TRUE(prog.ok()) << prog.status().ToString();
  if (!prog.ok()) return out;
  Result<Instance> derived = at.Run(*prog, ropts);
  if (!derived.ok()) return out;
  const Instance edb = at.edb();
  for (const Copy& c : copies) {
    const size_t split = u.RelArity(c.negated);
    for (TupleRef t : derived->Tuples(c.head)) {
      Tuple positive(t.begin() + split, t.end());
      if (!edb.Contains(c.positive, positive)) continue;
      Firing f;
      f.positive.Add(c.positive, positive);
      f.negated.Add(c.negated, Tuple(t.begin(), t.begin() + split));
      out.push_back(std::move(f));
    }
  }
  return out;
}

/// Relations that a stratum after their own reads, positively or negated.
std::set<RelId> ReadByLaterStrata(const Program& p) {
  std::set<RelId> out;
  for (size_t s = 0; s < p.strata.size(); ++s) {
    for (size_t later = s + 1; later < p.strata.size(); ++later) {
      for (const Rule& r : p.strata[later].rules) {
        for (const Literal& l : r.body) {
          if (!l.is_predicate()) continue;
          for (const Rule& def : p.strata[s].rules) {
            if (def.head.rel == l.pred.rel) out.insert(l.pred.rel);
          }
        }
      }
    }
  }
  return out;
}

/// One visible fact to retract and one fact of `candidates` to append
/// such that the retraction alone removes a derived tuple of a relation
/// in `watched` and the two writes together leave it derived: brute
/// force over cold runs on the small instance. Nullopt when no pair
/// does, or a run exceeds `ropts`' budgets.
std::optional<std::pair<Instance, Instance>> FindRederivation(
    Universe& u, const PreparedProgram& prog, const RunOptions& ropts,
    const Instance& visible, const Instance& candidates,
    const std::set<RelId>& watched) {
  auto derive = [&](const Instance& edb) -> std::optional<Instance> {
    Result<Database> db = Database::Open(u, edb);
    if (!db.ok()) return std::nullopt;
    Result<Instance> out = db->Snapshot().Run(prog, ropts);
    if (!out.ok()) return std::nullopt;
    return std::move(*out);
  };
  std::optional<Instance> before = derive(visible);
  if (!before) return std::nullopt;
  for (RelId rel : visible.Relations()) {
    for (TupleRef r : visible.Tuples(rel)) {
      Instance without = visible;
      without.Remove(rel, r);
      std::optional<Instance> shrunk = derive(without);
      if (!shrunk) return std::nullopt;
      Instance lost;
      for (RelId w : watched) {
        for (TupleRef t : before->Tuples(w)) {
          if (!shrunk->Contains(w, t)) lost.Add(w, t);
        }
      }
      if (lost.Empty()) continue;
      for (RelId crel : candidates.Relations()) {
        for (TupleRef a : candidates.Tuples(crel)) {
          Instance with = without;
          with.Add(crel, a);
          std::optional<Instance> after = derive(with);
          if (!after) return std::nullopt;
          for (RelId w : lost.Relations()) {
            for (TupleRef t : lost.Tuples(w)) {
              if (!after->Contains(w, t)) continue;
              std::pair<Instance, Instance> found;
              found.first.Add(rel, r);
              found.second.Add(crel, a);
              return found;
            }
          }
        }
      }
    }
  }
  return std::nullopt;
}

// The retraction differential: a materialized view maintained across a
// random schedule of retractions interleaved with appends — tombstone
// epochs driving counting DRed (delete/re-derive), negated inputs that
// gain or lose facts included — must stay byte-identical to a cold
// fixpoint over exactly the visible facts at every epoch. The schedule
// also re-appends some retracted facts (the visibility flip in both
// directions) and compacts mid-sequence, after which the stack must hold
// no tombstones at all. Some windows publish two writes back to back
// under one refresh: first a firing that loses a positive fact and gains
// its negated one, then the reverse; at the end a random retraction and
// append, then a tuple deleted and derived again. Odd seeds move each
// rule's negated literals first; even seeds keep the generator's order
// (negated last), as the other differentials do.
TEST(DifferentialTest, RetractionMaintainedViewMatchesColdFixpointPerEpoch) {
  size_t iterations = Iterations();
  size_t compared = 0, skipped = 0;
  uint64_t dred_refreshes = 0;
  // Indexed by whether the seed moved its negated literals first.
  size_t firing_windows[2] = {0, 0};
  size_t rederive_windows = 0;
  NegationSeeds negation;
  for (uint64_t seed = 1; seed <= iterations; ++seed) {
    Universe u;
    RandomCase c = CaseGenerator(u, seed).Generate();
    const bool negated_first = seed % 2 == 1;
    const Program program =
        negated_first ? NegatedLiteralsFirst(c.program) : c.program;
    SCOPED_TRACE("seed " + std::to_string(seed) + "\n" +
                 FormatProgram(u, program) + c.input.ToString(u));
    std::mt19937 sched(seed * 7919 + 13);

    Result<PreparedProgram> prog = Engine::Compile(u, program);
    ASSERT_TRUE(prog.ok()) << prog.status().ToString();
    RunOptions ropts;
    ropts.max_facts = kMaxFacts;
    ropts.max_iterations = kMaxIterations;

    Result<Database> live = Database::Open(u, c.input);
    ASSERT_TRUE(live.ok()) << live.status().ToString();
    bool budget_hit = false;
    NegationSeeds seed_negation;
    const std::set<RelId> exact = NonRecursiveHeads(program);
    // The case's facts the stack no longer shows.
    auto retracted_facts = [&c](const Instance& visible) {
      Instance gone;
      for (RelId rel : c.input.Relations()) {
        for (TupleRef t : c.input.Tuples(rel)) {
          if (!visible.Contains(rel, t)) gone.Add(rel, t);
        }
      }
      return gone;
    };

    // One epoch's comparison: the maintained view against a cold fixpoint
    // on the currently *visible* facts (live->edb() materializes the
    // stack with tombstone shadowing applied).
    auto check = [&](const char* phase) {
      Result<Database> cold = Database::Open(u, live->edb());
      ASSERT_TRUE(cold.ok()) << cold.status().ToString();
      Result<Instance> want = cold->Snapshot().Run(*prog, ropts);
      if (!want.ok()) {
        ASSERT_EQ(want.status().code(), StatusCode::kResourceExhausted)
            << want.status().ToString();
        budget_hit = true;
        return;
      }
      EvalStats stats;
      auto view = live->views().Refresh("view", *prog, ropts, &stats);
      if (!view.ok()) {
        ASSERT_EQ(view.status().code(), StatusCode::kResourceExhausted)
            << phase << ": " << view.status().ToString();
        budget_hit = true;
        return;
      }
      seed_negation.Count(stats);
      EXPECT_EQ((*view)->epoch(), live->epoch()) << phase;
      EXPECT_EQ(want->ToString(u), (*view)->idb().ToString(u)) << phase;
      SCOPED_TRACE(phase);
      ExpectColdSupport(*cold, *prog, ropts, **view, exact);
    };

    check("epoch 0 (cold)");
    // One stored firing both restricted passes of a refresh enumerate:
    // it loses a positive fact and gains its negated fact, so it must be
    // decremented exactly once; then the reverse, so it must be counted
    // exactly once. The two windows leave the visible facts as they
    // were, and the firing is chosen without `sched`, so the schedule
    // below is the same with or without them.
    std::vector<Firing> firings;
    if (!budget_hit) {
      firings = NegatedFirings(u, program, live->Snapshot(), ropts);
    }
    if (!firings.empty()) {
      const Firing& f = firings[seed % firings.size()];
      ASSERT_TRUE(live->Retract(f.positive).ok());
      ASSERT_TRUE(live->Append(f.negated).ok());
      check("positive fact lost, negated fact gained");
      if (!budget_hit) {
        ASSERT_TRUE(live->Append(f.positive).ok());
        ASSERT_TRUE(live->Retract(f.negated).ok());
        check("positive fact gained, negated fact lost");
        ++firing_windows[negated_first];
      }
    }
    if (budget_hit) {
      ++skipped;
      continue;
    }

    // Retract a random third of the visible EDB, re-append a random
    // third of the victims (flip back), retract again, compact (folding
    // every tombstone away), then retract once more on the folded stack.
    Instance victims = SelectVictims(sched, live->edb());
    size_t retracted = 0;
    ASSERT_TRUE(live->Retract(victims, &retracted).ok());
    EXPECT_EQ(retracted, victims.NumFacts());
    check("shrink epoch (DRed)");
    if (!budget_hit) {
      ASSERT_TRUE(live->Append(SelectVictims(sched, victims)).ok());
      check("re-append epoch (flip back)");
    }
    if (!budget_hit) {
      ASSERT_TRUE(live->Retract(SelectVictims(sched, live->edb())).ok());
      check("second shrink epoch");
    }
    if (!budget_hit) {
      live->Compact();
      EXPECT_EQ(live->NumTombstones(), 0u) << "tombstones survived Compact";
      check("post-compaction");
    }
    if (!budget_hit) {
      ASSERT_TRUE(live->Retract(SelectVictims(sched, live->edb())).ok());
      check("shrink epoch on folded stack");
    }
    if (!budget_hit) {
      // Two writes in one refresh window: retract visible facts, then
      // re-append facts retracted earlier. A derivation can lose a
      // positive fact and gain a negated one at once, and must still be
      // decremented (or counted) exactly once.
      Instance visible = live->edb();
      Instance gone = retracted_facts(visible);
      ASSERT_TRUE(live->Retract(SelectVictims(sched, visible)).ok());
      ASSERT_TRUE(live->Append(SelectVictims(sched, gone)).ok());
      check("retraction and append under one refresh");
    }
    if (!budget_hit) {
      // A tuple of a relation a later stratum reads, deleted by a
      // retraction and derived again through an appended fact in the
      // same window: it never left its relation, so the later stratum
      // must see no change.
      Instance visible = live->edb();
      std::optional<std::pair<Instance, Instance>> w =
          FindRederivation(u, *prog, ropts, visible, retracted_facts(visible),
                           ReadByLaterStrata(program));
      if (w) {
        ASSERT_TRUE(live->Retract(w->first).ok());
        ASSERT_TRUE(live->Append(w->second).ok());
        check("tuple deleted and derived again");
        ++rederive_windows;
      }
    }
    if (budget_hit) {
      ++skipped;
      continue;
    }

    ViewManager::Counters counters = live->views().counters();
    dred_refreshes += counters.dred_refreshes;
    EXPECT_EQ(counters.strata_recomputed, 0u);
    negation.Add(seed_negation);
    ++compared;
  }
  EXPECT_GE(compared * 5, iterations * 4)
      << compared << " of " << iterations << " seeds compared (" << skipped
      << " skipped)";
  // The suite must actually exercise DRed delete/re-derive, and negation
  // maintained in both directions: refreshes whose negated input gained
  // facts (deletion seeds) and lost facts (insertion seeds).
  EXPECT_GT(dred_refreshes, 0u);
  EXPECT_GT(negation.gained, 0u);
  EXPECT_GT(negation.lost, 0u);
  // And the two-write windows must find their facts: a firing that
  // flips both literals, in either literal order, and a tuple deleted
  // and derived again.
  for (bool first : {false, true}) {
    EXPECT_GE(firing_windows[first] * 80, iterations)
        << firing_windows[first] << " of " << (iterations + first) / 2
        << " seeds with negated literals " << (first ? "first" : "last")
        << " ran the firing windows";
  }
  EXPECT_GT(rederive_windows, 0u);
}

/// One fact of `from`, chosen by `sched` (empty when `from` is).
Instance PickOne(std::mt19937& sched, const Instance& from) {
  Instance one;
  size_t n = from.NumFacts();
  if (n == 0) return one;
  size_t k = sched() % n;
  for (RelId rel : from.Relations()) {
    for (TupleRef t : from.Tuples(rel)) {
      if (k-- == 0) {
        one.Add(rel, t);
        return one;
      }
    }
  }
  return one;
}

// The retraction differential under automatic compaction: the database
// starts from the case's EDB with a small segment limit, and every write
// is one or two facts — a retraction of visible facts or a re-append of
// retracted ones — followed by a refresh of the view, the way the
// server refreshes eagerly. Every fold therefore happens inside a write
// while the view is one epoch behind. The view must stay byte-identical
// to a cold fixpoint at every epoch without ever re-materializing, and
// the suite must see both kinds of fold: tail folds (the base segment
// survives) and full folds (a new base).
TEST(DifferentialTest, RetractionAutoCompactViewMatchesColdFixpointPerEpoch) {
  constexpr int kWrites = 14;
  size_t iterations = Iterations();
  size_t compared = 0, skipped = 0;
  uint64_t tail_folds = 0, full_folds = 0, dred_refreshes = 0;
  for (uint64_t seed = 1; seed <= iterations; ++seed) {
    Universe u;
    RandomCase c = CaseGenerator(u, seed).Generate();
    SCOPED_TRACE("seed " + std::to_string(seed) + "\n" +
                 FormatProgram(u, c.program) + c.input.ToString(u));
    std::mt19937 sched(seed * 104729 + 7);

    Result<PreparedProgram> prog = Engine::Compile(u, c.program);
    ASSERT_TRUE(prog.ok()) << prog.status().ToString();
    RunOptions ropts;
    ropts.max_facts = kMaxFacts;
    ropts.max_iterations = kMaxIterations;

    Database::OpenOptions opts;
    opts.auto_compact_segments = 3 + seed % 2;
    Result<Database> live = Database::Open(u, c.input, opts);
    ASSERT_TRUE(live.ok()) << live.status().ToString();
    bool budget_hit = false;
    const std::set<RelId> exact = NonRecursiveHeads(c.program);

    auto check = [&](const std::string& phase) {
      Result<Database> cold = Database::Open(u, live->edb());
      ASSERT_TRUE(cold.ok()) << cold.status().ToString();
      Result<Instance> want = cold->Snapshot().Run(*prog, ropts);
      if (!want.ok()) {
        ASSERT_EQ(want.status().code(), StatusCode::kResourceExhausted)
            << want.status().ToString();
        budget_hit = true;
        return;
      }
      auto view = live->views().Refresh("view", *prog, ropts);
      if (!view.ok()) {
        ASSERT_EQ(view.status().code(), StatusCode::kResourceExhausted)
            << phase << ": " << view.status().ToString();
        budget_hit = true;
        return;
      }
      EXPECT_EQ((*view)->epoch(), live->epoch()) << phase;
      EXPECT_EQ(want->ToString(u), (*view)->idb().ToString(u)) << phase;
      SCOPED_TRACE(phase);
      ExpectColdSupport(*cold, *prog, ropts, **view, exact);
    };

    check("epoch 0 (cold)");
    Instance retracted;
    uint64_t seed_tail = 0, seed_full = 0;
    for (int w = 0; w < kWrites && !budget_hit; ++w) {
      // Pin the stack so a new base cannot reuse the old one's address.
      Session before = live->Snapshot();
      const IndexedStore* base = &live->base();
      Instance visible = live->edb();
      bool reappend = !retracted.Empty() &&
                      (visible.Empty() || sched() % 3 == 0);
      Instance batch = PickOne(sched, reappend ? retracted : visible);
      batch.UnionWith(PickOne(sched, reappend ? retracted : visible));
      if (reappend) {
        ASSERT_TRUE(live->Append(batch).ok());
        for (RelId rel : batch.Relations()) {
          for (TupleRef t : batch.Tuples(rel)) retracted.Remove(rel, t);
        }
      } else {
        ASSERT_TRUE(live->Retract(batch).ok());
        retracted.UnionWith(batch);
      }
      // An effective write adds one segment; a fold leaves fewer.
      if (live->epoch() > before.epoch() &&
          live->NumSegments() <= before.NumSegments()) {
        ++(&live->base() == base ? seed_tail : seed_full);
      }
      check("write " + std::to_string(w) +
            (reappend ? " (re-append)" : " (retract)"));
    }
    if (budget_hit) {
      ++skipped;
      continue;
    }
    ViewManager::Counters counters = live->views().counters();
    EXPECT_EQ(counters.cold_runs, 1u) << "a fold sent the view cold";
    tail_folds += seed_tail;
    full_folds += seed_full;
    dred_refreshes += counters.dred_refreshes;
    ++compared;
  }
  EXPECT_GE(compared * 5, iterations * 4)
      << compared << " of " << iterations << " seeds compared (" << skipped
      << " skipped)";
  EXPECT_GT(tail_folds, 0u);
  EXPECT_GT(full_folds, 0u);
  EXPECT_GT(dred_refreshes, 0u);
}

// The cached-answer differential: a DatabaseService with the default
// cache (views refreshed and renderings patched by every write) over a
// database with automatic compaction, durable with sync=always for one
// seed in ten, plays a seeded schedule of appends of held-back facts,
// retractions and re-assertions. After every write
// it answers "" and each derived relation. Every reply must be
// byte-identical to a cold fixpoint at its epoch, and the replies after
// a write must be cache hits, patched by that write, well above a floor.
TEST(DifferentialTest, CachedAnswersMatchColdFixpointPerEpoch) {
  constexpr int kWrites = 10;
  size_t iterations = Iterations();
  size_t compared = 0, skipped = 0;
  uint64_t replies = 0, patched = 0, appends = 0, retractions = 0,
           reassertions = 0, durable = 0;
  for (uint64_t seed = 1; seed <= iterations; ++seed) {
    Universe u;
    RandomCase c = CaseGenerator(u, seed).Generate();
    std::string program_text = FormatProgram(u, c.program);
    SCOPED_TRACE("seed " + std::to_string(seed) + "\n" + program_text +
                 c.input.ToString(u));
    std::mt19937 sched(seed * 6151 + 3);

    // About a third of the EDB is held back for later appends.
    Instance initial, held, retracted;
    for (RelId rel : c.input.Relations()) {
      for (TupleRef t : c.input.Tuples(rel)) {
        (sched() % 3 == 0 ? held : initial).Add(rel, t);
      }
    }
    RunOptions ropts;
    ropts.max_facts = kMaxFacts;
    ropts.max_iterations = kMaxIterations;
    Result<PreparedProgram> prog = Engine::Compile(u, c.program);
    ASSERT_TRUE(prog.ok()) << prog.status().ToString();
    Database::OpenOptions opts;
    opts.auto_compact_segments = 3 + seed % 2;
    // One seed in ten runs over a data directory with sync=always: each
    // write then evaluates the views beside its WAL sync and patches the
    // renderings after its stack publishes.
    std::optional<ScratchDir> dir;
    if (seed % 10 == 1) {
      dir.emplace("cached_answers");
      opts.data_dir = dir->path;
      opts.sync_mode = storage::SyncMode::kAlways;
      ++durable;
    }
    Result<Database> db = Database::Open(u, initial, opts);
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    ServiceOptions sopts;
    sopts.run_options = ropts;
    DatabaseService service(u, std::move(*db), sopts);

    std::vector<std::string> outputs = {""};
    std::set<RelId> heads;
    for (const Rule* r : c.program.AllRules()) heads.insert(r->head.rel);
    for (RelId rel : heads) outputs.push_back(u.RelName(rel));

    bool budget_hit = false;
    auto check = [&](const std::string& phase, bool after_write) {
      Result<Database> cold = Database::Open(u, service.db().edb());
      ASSERT_TRUE(cold.ok()) << cold.status().ToString();
      Result<Instance> want = cold->Snapshot().Run(*prog, ropts);
      if (!want.ok()) {
        ASSERT_EQ(want.status().code(), StatusCode::kResourceExhausted)
            << want.status().ToString();
        budget_hit = true;
        return;
      }
      for (const std::string& out : outputs) {
        protocol::RunRequest req;
        req.program = program_text;
        req.output_rel = out;
        Result<protocol::RunReply> got = service.Run(req);
        if (!got.ok()) {
          ASSERT_EQ(got.status().code(), StatusCode::kResourceExhausted)
              << phase << ": " << got.status().ToString();
          budget_hit = true;
          return;
        }
        Result<std::string> want_text = RenderOutput(u, *want, out);
        ASSERT_TRUE(want_text.ok()) << want_text.status().ToString();
        EXPECT_EQ(got->epoch, service.db().epoch()) << phase;
        EXPECT_EQ(*want_text, got->rendered)
            << phase << ", output \"" << out << "\"";
        if (after_write) {
          ++replies;
          patched += got->result_cached;
        }
      }
    };

    check("epoch 0 (cold)", false);
    for (int w = 0; w < kWrites && !budget_hit; ++w) {
      uint64_t epoch = service.db().epoch();
      Instance visible = service.db().edb();
      // Append held-back facts, retract visible ones or re-assert
      // retracted ones; an empty pool passes its turn to the next.
      Instance* pools[] = {&held, &visible, &retracted};
      size_t kind = sched() % 3;
      for (int i = 0; i < 2 && pools[kind]->Empty(); ++i) kind = (kind + 1) % 3;
      Instance& from = *pools[kind];
      if (from.Empty()) break;
      Instance batch = PickOne(sched, from);
      batch.UnionWith(PickOne(sched, from));
      std::string facts = batch.ToString(u);
      if (kind == 1) {
        ASSERT_TRUE(service.Retract({facts, ""}).ok());
        retracted.UnionWith(batch);
        ++retractions;
      } else {
        ASSERT_TRUE(service.Append({facts, ""}).ok());
        for (RelId rel : batch.Relations()) {
          for (TupleRef t : batch.Tuples(rel)) from.Remove(rel, t);
        }
        ++(kind == 0 ? appends : reassertions);
      }
      check("write " + std::to_string(w), service.db().epoch() != epoch);
    }
    if (budget_hit) {
      ++skipped;
      continue;
    }
    ++compared;
  }
  EXPECT_GE(compared * 5, iterations * 4)
      << compared << " of " << iterations << " seeds compared (" << skipped
      << " skipped)";
  EXPECT_GT(appends, 0u);
  EXPECT_GT(retractions, 0u);
  EXPECT_GT(reassertions, 0u);
  EXPECT_GT(durable, 0u);
  // A write patches every cached rendering, so a reply after it misses
  // only where a refresh ran out of budget.
  EXPECT_GE(patched * 10, replies * 9)
      << patched << " of " << replies << " replies after a write were hits";
}

// The server differential: running a random program through a loopback
// TCP server (text in, rendered text out — a *separate Universe*, so
// every symbol is re-interned from the shipped source) must produce
// byte-identical output to in-process Session::Run on the generating
// Universe. Exercised across an append epoch (the server ingests batch 2
// over the wire) and across a compaction, per the epoch/MVCC contract.
TEST(DifferentialTest, LoopbackServerMatchesInProcess) {
  size_t iterations = Iterations();
  size_t compared = 0, skipped = 0;
  for (uint64_t seed = 1; seed <= iterations; ++seed) {
    Universe u;
    RandomCase c = CaseGenerator(u, seed).Generate();
    std::string program_text = FormatProgram(u, c.program);
    SCOPED_TRACE("seed " + std::to_string(seed) + "\n" + program_text +
                 c.input.ToString(u));

    // Split the EDB into the open batch and one appended batch.
    std::vector<Instance> batches(2);
    {
      size_t i = 0;
      for (RelId rel : c.input.Relations()) {
        for (TupleRef t : c.input.Tuples(rel)) {
          batches[i++ % batches.size()].Add(rel, t);
        }
      }
    }

    RunOptions ropts;
    ropts.max_facts = kMaxFacts;
    ropts.max_iterations = kMaxIterations;

    // In-process expectations: derived-overlay renderings per epoch.
    Result<PreparedProgram> prog = Engine::Compile(u, c.program);
    ASSERT_TRUE(prog.ok()) << prog.status().ToString();
    Result<Database> db = Database::Open(u, batches[0]);
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    Result<Instance> derived0 = db->Snapshot().Run(*prog, ropts);
    ASSERT_TRUE(db->Append(batches[1]).ok());
    Result<Instance> derived1 = db->Snapshot().Run(*prog, ropts);
    if (!derived0.ok() || !derived1.ok()) {
      const Status& st =
          derived0.ok() ? derived1.status() : derived0.status();
      ASSERT_EQ(st.code(), StatusCode::kResourceExhausted) << st.ToString();
      ++skipped;
      continue;
    }
    std::string expected0 = derived0->ToString(u);
    std::string expected1 = derived1->ToString(u);

    // Server side: a fresh Universe fed only by wire text.
    Universe server_u;
    Result<Instance> server_edb =
        ParseInstance(server_u, batches[0].ToString(u));
    ASSERT_TRUE(server_edb.ok()) << server_edb.status().ToString();
    Result<Database> server_db =
        Database::Open(server_u, std::move(*server_edb));
    ASSERT_TRUE(server_db.ok()) << server_db.status().ToString();
    ServiceOptions sopts;
    sopts.run_options = ropts;
    // Cache off: every wire run must re-evaluate, so the post-compaction
    // request exercises the merged single-segment stack instead of a
    // (trivially correct) cache hit.
    sopts.result_cache_entries = 0;
    DatabaseService service(server_u, std::move(*server_db), sopts);
    ServerOptions server_opts;
    server_opts.threads = 2;
    Result<std::unique_ptr<Server>> server =
        Server::Start(service, server_opts);
    ASSERT_TRUE(server.ok()) << server.status().ToString();
    Result<Client> client = Client::Connect("127.0.0.1", (*server)->port());
    ASSERT_TRUE(client.ok()) << client.status().ToString();

    Result<protocol::RunReply> at0 = client->Run(program_text);
    ASSERT_TRUE(at0.ok()) << at0.status().ToString();
    EXPECT_EQ(at0->epoch, 0u);
    EXPECT_EQ(expected0, at0->rendered) << "server @ epoch 0";

    Result<protocol::AppendReply> appended =
        client->Append(batches[1].ToString(u));
    ASSERT_TRUE(appended.ok()) << appended.status().ToString();
    Result<protocol::RunReply> at1 = client->Run(program_text);
    ASSERT_TRUE(at1.ok()) << at1.status().ToString();
    EXPECT_EQ(at1->epoch, appended->db.epoch);
    EXPECT_EQ(expected1, at1->rendered) << "server @ epoch 1";

    // Compaction folds the server's stack; results must not move.
    Result<protocol::CompactReply> compacted = client->Compact();
    ASSERT_TRUE(compacted.ok()) << compacted.status().ToString();
    Result<protocol::RunReply> after = client->Run(program_text);
    ASSERT_TRUE(after.ok()) << after.status().ToString();
    EXPECT_EQ(expected1, after->rendered) << "server post-compaction";

    client->Close();
    (*server)->Shutdown();
    ++compared;
  }
  EXPECT_GE(compared * 5, iterations * 4)
      << compared << " of " << iterations << " seeds compared (" << skipped
      << " skipped)";
}

// The retraction loopback differential: the `retract` wire verb must be
// indistinguishable from Database::Retract in process. Victims are drawn
// on the generating Universe and shipped as instance text (the server
// re-interns every symbol); renders are compared at the shrink epoch and
// again after a server-side Compact folds the tombstones away.
TEST(DifferentialTest, RetractionLoopbackServerMatchesInProcess) {
  size_t iterations = Iterations();
  size_t compared = 0, skipped = 0;
  uint64_t total_retracted = 0;
  for (uint64_t seed = 1; seed <= iterations; ++seed) {
    Universe u;
    RandomCase c = CaseGenerator(u, seed).Generate();
    std::string program_text = FormatProgram(u, c.program);
    SCOPED_TRACE("seed " + std::to_string(seed) + "\n" + program_text +
                 c.input.ToString(u));
    std::mt19937 sched(seed * 7919 + 13);
    Instance victims = SelectVictims(sched, c.input);

    RunOptions ropts;
    ropts.max_facts = kMaxFacts;
    ropts.max_iterations = kMaxIterations;

    // In-process expectations: derived-overlay renderings before and
    // after the retraction.
    Result<PreparedProgram> prog = Engine::Compile(u, c.program);
    ASSERT_TRUE(prog.ok()) << prog.status().ToString();
    Result<Database> db = Database::Open(u, c.input);
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    Result<Instance> derived0 = db->Snapshot().Run(*prog, ropts);
    size_t retracted = 0;
    ASSERT_TRUE(db->Retract(victims, &retracted).ok());
    EXPECT_EQ(retracted, victims.NumFacts());
    Result<Instance> derived1 = db->Snapshot().Run(*prog, ropts);
    if (!derived0.ok() || !derived1.ok()) {
      const Status& st =
          derived0.ok() ? derived1.status() : derived0.status();
      ASSERT_EQ(st.code(), StatusCode::kResourceExhausted) << st.ToString();
      ++skipped;
      continue;
    }
    std::string expected0 = derived0->ToString(u);
    std::string expected1 = derived1->ToString(u);

    // Server side: a fresh Universe fed only by wire text. Cache off so
    // the post-retraction and post-compaction runs re-evaluate against
    // the tombstoned / folded stack instead of hitting a cached render.
    Universe server_u;
    Result<Instance> server_edb = ParseInstance(server_u, c.input.ToString(u));
    ASSERT_TRUE(server_edb.ok()) << server_edb.status().ToString();
    Result<Database> server_db =
        Database::Open(server_u, std::move(*server_edb));
    ASSERT_TRUE(server_db.ok()) << server_db.status().ToString();
    ServiceOptions sopts;
    sopts.run_options = ropts;
    sopts.result_cache_entries = 0;
    DatabaseService service(server_u, std::move(*server_db), sopts);
    ServerOptions server_opts;
    server_opts.threads = 2;
    Result<std::unique_ptr<Server>> server =
        Server::Start(service, server_opts);
    ASSERT_TRUE(server.ok()) << server.status().ToString();
    Result<Client> client = Client::Connect("127.0.0.1", (*server)->port());
    ASSERT_TRUE(client.ok()) << client.status().ToString();

    Result<protocol::RunReply> at0 = client->Run(program_text);
    ASSERT_TRUE(at0.ok()) << at0.status().ToString();
    EXPECT_EQ(expected0, at0->rendered) << "server @ epoch 0";

    Result<protocol::RetractReply> rr = client->Retract(victims.ToString(u));
    ASSERT_TRUE(rr.ok()) << rr.status().ToString();
    EXPECT_EQ(rr->retracted, retracted) << "wire retraction count";
    total_retracted += rr->retracted;
    Result<protocol::RunReply> at1 = client->Run(program_text);
    ASSERT_TRUE(at1.ok()) << at1.status().ToString();
    EXPECT_EQ(at1->epoch, rr->db.epoch);
    EXPECT_EQ(expected1, at1->rendered) << "server @ shrink epoch";

    // Compaction folds the tombstones out of the server's stack; results
    // must not move.
    Result<protocol::CompactReply> compacted = client->Compact();
    ASSERT_TRUE(compacted.ok()) << compacted.status().ToString();
    Result<protocol::RunReply> after = client->Run(program_text);
    ASSERT_TRUE(after.ok()) << after.status().ToString();
    EXPECT_EQ(expected1, after->rendered) << "server post-compaction";

    client->Close();
    (*server)->Shutdown();
    ++compared;
  }
  EXPECT_GE(compared * 5, iterations * 4)
      << compared << " of " << iterations << " seeds compared (" << skipped
      << " skipped)";
  EXPECT_GT(total_retracted, 0u);
}

}  // namespace
}  // namespace seqdl
