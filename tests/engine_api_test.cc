// Tests for the compile-once/run-many engine API (engine.h): index-on
// and index-off runs agree under naive and semi-naive iteration across
// the workload generators, plus stats reporting, cancellation, the
// indexed instance store, and the Database/Session API (database.h).
#include <gtest/gtest.h>

#include <functional>
#include <string>
#include <vector>

#include "src/engine/database.h"
#include "src/engine/engine.h"
#include "src/engine/index.h"
#include "src/engine/instance.h"
#include "src/queries/queries.h"
#include "src/syntax/parser.h"
#include "src/term/universe.h"
#include "src/view/view.h"
#include "src/workload/generators.h"

namespace seqdl {
namespace {

Program MustParse(Universe& u, const std::string& text) {
  Result<Program> p = ParseProgram(u, text);
  EXPECT_TRUE(p.ok()) << p.status().ToString() << "\n" << text;
  return std::move(p).value();
}

Instance MustInstance(Universe& u, const std::string& text) {
  Result<Instance> i = ParseInstance(u, text);
  EXPECT_TRUE(i.ok()) << i.status().ToString();
  return std::move(i).value();
}

// --- Compile-once/run-many ----------------------------------------------------

TEST(EngineTest, CompileOnceRunMany) {
  Universe u;
  Program p = MustParse(u, "S($x) <- R($x), a ++ $x = $x ++ a.");
  Result<PreparedProgram> prog = Engine::Compile(u, std::move(p));
  ASSERT_TRUE(prog.ok()) << prog.status().ToString();
  RelId s = *u.FindRel("S");

  Instance in1 = MustInstance(u, "R(a ++ a). R(a ++ b).");
  Result<Instance> out1 = prog->Run(in1);
  ASSERT_TRUE(out1.ok());
  EXPECT_EQ(out1->Tuples(s).size(), 1u);
  EXPECT_TRUE(out1->Contains(s, {u.PathOfChars("aa")}));

  Instance in2 = MustInstance(u, "R(eps). R(b).");
  Result<Instance> out2 = prog->Run(in2);
  ASSERT_TRUE(out2.ok());
  EXPECT_EQ(out2->Tuples(s).size(), 1u);
  EXPECT_TRUE(out2->Contains(s, {kEmptyPath}));

  // Runs are independent: the second run saw nothing of the first.
  EXPECT_FALSE(out2->Contains(s, {u.PathOfChars("aa")}));

  // And re-running the first input reproduces the first output.
  Result<Instance> out3 = prog->Run(in1);
  ASSERT_TRUE(out3.ok());
  EXPECT_EQ(*out1, *out3);
}

TEST(EngineTest, CompileRejectsUnsafeRule) {
  Universe u;
  Program p = MustParse(u, "S($x, $y) <- R($x).");
  Result<PreparedProgram> prog = Engine::Compile(u, std::move(p));
  ASSERT_FALSE(prog.ok());
  EXPECT_EQ(prog.status().code(), StatusCode::kInvalidArgument);
}

TEST(EngineTest, CompileRejectsUnstratifiedNegation) {
  Universe u;
  Program p = MustParse(u, "P0($x) <- R($x), !Q0($x). Q0($x) <- P0($x).");
  Result<PreparedProgram> prog = Engine::Compile(u, std::move(p));
  ASSERT_FALSE(prog.ok());
  EXPECT_EQ(prog.status().code(), StatusCode::kInvalidArgument);
}

// --- Property: index-on and index-off runs agree on generator workloads ------

struct WorkloadCase {
  std::string name;
  std::string query_id;  // paper corpus id
  // Builds the input instance into `u`.
  std::function<Result<Instance>(Universe& u, uint64_t seed)> make_input;
};

std::vector<WorkloadCase> GeneratorWorkloads() {
  std::vector<WorkloadCase> cases;
  cases.push_back(
      {"reachability/graphs", "reach_ab",
       [](Universe& u, uint64_t seed) {
         GraphWorkload gw;
         gw.nodes = 9;
         gw.edges = 16;
         gw.seed = seed;
         return GraphToInstance(u, RandomGraph(gw), "R");
       }});
  cases.push_back(
      {"process-mining/event-logs", "process_mining",
       [](Universe& u, uint64_t seed) {
         EventLogWorkload ew;
         ew.count = 12;
         ew.len = 8;
         ew.seed = seed;
         return RandomEventLogs(u, ew);
       }});
  cases.push_back(
      {"nfa-acceptance/strings", "ex21_nfa",
       [](Universe& u, uint64_t seed) {
         NfaWorkload nw;
         nw.num_states = 4;
         nw.alphabet = 2;
         nw.seed = seed;
         Result<Instance> in = NfaToInstance(u, RandomNfa(nw));
         if (!in.ok()) return in;
         StringWorkload sw;
         sw.count = 8;
         sw.max_len = 5;
         sw.seed = seed + 100;
         Result<Instance> strings = RandomStrings(u, sw);
         if (!strings.ok()) return strings;
         in->UnionWith(std::move(*strings));
         return in;
       }});
  return cases;
}

// Index-off runs (every scan a full scan) agree with index-on runs
// under both semi-naive and naive iteration.
TEST(EnginePropertyTest, IndexOnAndOffAgree) {
  for (const WorkloadCase& wc : GeneratorWorkloads()) {
    for (uint64_t seed = 1; seed <= 4; ++seed) {
      Universe u;
      Result<ParsedQuery> q = ParsePaperQuery(u, wc.query_id);
      ASSERT_TRUE(q.ok()) << wc.name;
      Result<Instance> in = wc.make_input(u, seed);
      ASSERT_TRUE(in.ok()) << wc.name << " seed " << seed;
      Result<PreparedProgram> prog = Engine::Compile(u, q->program);
      ASSERT_TRUE(prog.ok()) << wc.name;
      for (bool seminaive : {true, false}) {
        RunOptions with, without;
        with.seminaive = without.seminaive = seminaive;
        without.use_index = false;
        Result<Instance> o1 = prog->Run(*in, with);
        Result<Instance> o2 = prog->Run(*in, without);
        ASSERT_TRUE(o1.ok()) << wc.name << ": " << o1.status().ToString();
        ASSERT_TRUE(o2.ok()) << wc.name << ": " << o2.status().ToString();
        EXPECT_EQ(*o1, *o2)
            << wc.name << " seed " << seed << " seminaive " << seminaive;
      }
    }
  }
}

// --- Stats --------------------------------------------------------------------

TEST(EngineTest, StatsReportPerStratumAndScanCounters) {
  Universe u;
  Result<ParsedQuery> q = ParsePaperQuery(u, "process_mining");
  ASSERT_TRUE(q.ok());
  EventLogWorkload ew;
  ew.count = 10;
  ew.len = 8;
  ew.seed = 2;
  Result<Instance> in = RandomEventLogs(u, ew);
  ASSERT_TRUE(in.ok());
  Result<PreparedProgram> prog = Engine::Compile(u, q->program);
  ASSERT_TRUE(prog.ok());

  EvalStats stats;
  Result<Instance> out = prog->Run(*in, {}, &stats);
  ASSERT_TRUE(out.ok());

  EXPECT_EQ(stats.per_stratum.size(), prog->program().strata.size());
  size_t stratum_firings = 0, stratum_facts = 0;
  for (const StratumStats& s : stats.per_stratum) {
    stratum_firings += s.rule_firings;
    stratum_facts += s.derived_facts;
  }
  EXPECT_EQ(stratum_firings, stats.rule_firings);
  EXPECT_EQ(stratum_facts, stats.derived_facts);
  EXPECT_GT(stats.rule_firings, 0u);
  EXPECT_GT(stats.index_probes + stats.prefix_probes + stats.full_scans, 0u);
  EXPECT_GE(stats.compile_seconds, 0.0);
  EXPECT_GE(stats.run_seconds, 0.0);
  EXPECT_EQ(stats.compile_seconds, prog->compile_seconds());

  // With indexes disabled no probes are counted.
  EvalStats noidx;
  RunOptions without;
  without.use_index = false;
  ASSERT_TRUE(prog->Run(*in, without, &noidx).ok());
  EXPECT_EQ(noidx.index_probes, 0u);
  EXPECT_EQ(noidx.prefix_probes, 0u);
  EXPECT_GT(noidx.full_scans, 0u);
}

TEST(EngineTest, SuffixProbesFireOnSuffixGroundPattern) {
  // `$x ++ b` has no ground argument and no ground prefix: before the
  // last-value index it was a full scan per probe.
  Universe u;
  Program p = MustParse(u,
                        "EndsB($x) <- S($x ++ b).\n"
                        "Chain($x) <- EndsB($x), S($x ++ b).");
  Result<PreparedProgram> prog = Engine::Compile(u, std::move(p));
  ASSERT_TRUE(prog.ok()) << prog.status().ToString();
  Instance in = MustInstance(u, "S(a ++ b). S(a ++ c). S(b). S(c ++ b).");
  EvalStats stats;
  Result<Instance> out = prog->Run(in, {}, &stats);
  ASSERT_TRUE(out.ok());
  RelId ends = *u.FindRel("EndsB");
  EXPECT_EQ(out->Tuples(ends).size(), 3u);  // ab, b(x=eps), cb
  EXPECT_GT(stats.suffix_probes, 0u);

  // Ablation: suffix-indexed and full-scan runs agree.
  RunOptions no_index;
  no_index.use_index = false;
  EvalStats scan_stats;
  Result<Instance> scanned = prog->Run(in, no_index, &scan_stats);
  ASSERT_TRUE(scanned.ok());
  EXPECT_EQ(*out, *scanned);
  EXPECT_EQ(scan_stats.suffix_probes, 0u);
}

TEST(EngineTest, DeltaIndexProbesFireAboveThreshold) {
  Universe u;
  Result<ParsedQuery> q = ParsePaperQuery(u, "reach_ab");
  ASSERT_TRUE(q.ok());
  GraphWorkload gw;
  gw.nodes = 24;
  gw.edges = 48;
  gw.seed = 9;
  Result<Instance> in = GraphToInstance(u, RandomGraph(gw), "R");
  ASSERT_TRUE(in.ok());
  Result<PreparedProgram> prog = Engine::Compile(u, q->program);
  ASSERT_TRUE(prog.ok());

  RunOptions always;
  always.delta_index_threshold = 0;  // index every delta
  EvalStats always_stats;
  Result<Instance> indexed = prog->Run(*in, always, &always_stats);
  ASSERT_TRUE(indexed.ok());
  EXPECT_GT(always_stats.delta_index_probes, 0u);
  EXPECT_LE(always_stats.delta_index_probes, always_stats.delta_scans);

  RunOptions never;
  never.delta_index_threshold = static_cast<size_t>(-1);
  EvalStats never_stats;
  Result<Instance> linear = prog->Run(*in, never, &never_stats);
  ASSERT_TRUE(linear.ok());
  EXPECT_EQ(never_stats.delta_index_probes, 0u);

  // Indexed and linear delta scans derive the same facts, and the default
  // threshold agrees too.
  EXPECT_EQ(*indexed, *linear);
  Result<Instance> default_run = prog->Run(*in);
  ASSERT_TRUE(default_run.ok());
  EXPECT_EQ(*indexed, *default_run);
}

TEST(EngineTest, DeltaIndexThresholdBoundaries) {
  // A chain a0 -> a1 -> ... -> a8 and backward transitive closure: the
  // recursive T scan runs keyed (first-value on the bound middle node),
  // and the first delta round holds exactly `edges` tuples — so the
  // indexed-or-linear decision at RunOptions::delta_index_threshold is
  // observable precisely at the boundary.
  constexpr size_t kEdges = 8;
  Universe u;
  Program p = MustParse(u,
                        "T(@x ++ @y) <- E(@x ++ @y).\n"
                        "T(@x ++ @z) <- E(@x ++ @y), T(@y ++ @z).\n");
  std::string text;
  for (size_t i = 0; i < kEdges; ++i) {
    text += "E(n" + std::to_string(i) + " ++ n" + std::to_string(i + 1) +
            ").\n";
  }
  Instance in = MustInstance(u, text);
  Result<PreparedProgram> prog = Engine::Compile(u, std::move(p));
  ASSERT_TRUE(prog.ok()) << prog.status().ToString();

  auto run_with_threshold = [&](size_t threshold, EvalStats* stats) {
    RunOptions opts;
    opts.delta_index_threshold = threshold;
    Result<Instance> out = prog->Run(in, opts, stats);
    EXPECT_TRUE(out.ok()) << out.status().ToString();
    return std::move(out).value();
  };

  // 0 = every non-empty delta is indexed; every keyed delta scan probes.
  EvalStats zero;
  Instance out_zero = run_with_threshold(0, &zero);
  EXPECT_GT(zero.delta_index_probes, 0u);
  EXPECT_EQ(zero.delta_index_probes, zero.delta_scans);

  // Exactly at the threshold: the first delta round holds kEdges tuples,
  // and a delta of exactly threshold size is indexed (size < threshold is
  // the linear-scan condition). Later rounds shrink below and scan
  // linearly, so exactly that one round probes — once per E tuple.
  EvalStats at;
  Instance out_at = run_with_threshold(kEdges, &at);
  EXPECT_EQ(at.delta_index_probes, kEdges);

  // One above: no delta ever reaches the threshold; all scans linear.
  EvalStats above;
  Instance out_above = run_with_threshold(kEdges + 1, &above);
  EXPECT_EQ(above.delta_index_probes, 0u);
  EXPECT_GT(above.delta_scans, 0u);

  // Huge: never index (the documented SIZE_MAX escape hatch).
  EvalStats huge;
  Instance out_huge = run_with_threshold(static_cast<size_t>(-1), &huge);
  EXPECT_EQ(huge.delta_index_probes, 0u);

  // Results are byte-identical at every boundary, and match the
  // no-index-at-all ablation.
  EXPECT_EQ(out_zero, out_at);
  EXPECT_EQ(out_zero, out_above);
  EXPECT_EQ(out_zero, out_huge);
  RunOptions no_index;
  no_index.use_index = false;
  Result<Instance> scanned = prog->Run(in, no_index);
  ASSERT_TRUE(scanned.ok());
  EXPECT_EQ(out_zero, *scanned);
}

TEST(EngineTest, IndexProbesFireOnJoinWorkload) {
  // Reachability joins R on a bound first atom: the prefix index must
  // answer those scans.
  Universe u;
  Result<ParsedQuery> q = ParsePaperQuery(u, "reach_ab");
  ASSERT_TRUE(q.ok());
  GraphWorkload gw;
  gw.nodes = 16;
  gw.edges = 32;
  gw.seed = 5;
  Result<Instance> in = GraphToInstance(u, RandomGraph(gw), "R");
  ASSERT_TRUE(in.ok());
  Result<PreparedProgram> prog = Engine::Compile(u, q->program);
  ASSERT_TRUE(prog.ok());
  EvalStats stats;
  ASSERT_TRUE(prog->Run(*in, {}, &stats).ok());
  EXPECT_GT(stats.prefix_probes, 0u);
}

TEST(EngineTest, StatsResetBetweenRuns) {
  Universe u;
  Program p = MustParse(u, "S($x) <- R($x).");
  Result<PreparedProgram> prog = Engine::Compile(u, std::move(p));
  ASSERT_TRUE(prog.ok());
  Instance in = MustInstance(u, "R(a). R(b).");
  EvalStats stats;
  ASSERT_TRUE(prog->Run(in, {}, &stats).ok());
  size_t first = stats.derived_facts;
  ASSERT_TRUE(prog->Run(in, {}, &stats).ok());
  EXPECT_EQ(stats.derived_facts, first);  // reset, not accumulated
}

// --- Cancellation -------------------------------------------------------------

TEST(EngineTest, CancellationStopsRun) {
  Universe u;
  // Example 2.3: deliberately nonterminating.
  Program p = MustParse(u, "T(a). T(a ++ $x) <- T($x).");
  Result<PreparedProgram> prog = Engine::Compile(u, std::move(p));
  ASSERT_TRUE(prog.ok());
  RunOptions opts;
  size_t polls = 0;
  opts.cancel = [&polls]() { return ++polls > 3; };
  Result<Instance> out = prog->Run(Instance{}, opts);
  ASSERT_FALSE(out.ok());
  EXPECT_EQ(out.status().code(), StatusCode::kCancelled);
  EXPECT_GT(polls, 3u);
}

TEST(EngineTest, CancelNeverFiringLeavesRunUntouched) {
  Universe u;
  Program p = MustParse(u, "S($x) <- R($x).");
  Result<PreparedProgram> prog = Engine::Compile(u, std::move(p));
  ASSERT_TRUE(prog.ok());
  RunOptions opts;
  opts.cancel = []() { return false; };
  Instance in = MustInstance(u, "R(a).");
  Result<Instance> out = prog->Run(in, opts);
  ASSERT_TRUE(out.ok());
  EXPECT_TRUE(out->Contains(*u.FindRel("S"), {u.PathOfChars("a")}));
}

// --- Budgets through the new API ----------------------------------------------

TEST(EngineTest, BudgetsEnforcedPerRun) {
  Universe u;
  Program p = MustParse(u, "T(a). T(a ++ $x) <- T($x).");
  Result<PreparedProgram> prog = Engine::Compile(u, std::move(p));
  ASSERT_TRUE(prog.ok());
  RunOptions tight;
  tight.max_facts = 100;
  Result<Instance> out = prog->Run(Instance{}, tight);
  ASSERT_FALSE(out.ok());
  EXPECT_EQ(out.status().code(), StatusCode::kResourceExhausted);

  RunOptions tight_rounds;
  tight_rounds.max_iterations = 10;
  out = prog->Run(Instance{}, tight_rounds);
  ASSERT_FALSE(out.ok());
  EXPECT_EQ(out.status().code(), StatusCode::kResourceExhausted);
}

// --- IndexedInstance ----------------------------------------------------------

TEST(IndexedInstanceTest, ProbeAgreesWithScan) {
  Universe u;
  RelId r = *u.InternRel("R", 2);
  Instance base;
  base.Add(r, {u.PathOfChars("a"), u.PathOfChars("x")});
  base.Add(r, {u.PathOfChars("a"), u.PathOfChars("y")});
  base.Add(r, {u.PathOfChars("b"), u.PathOfChars("z")});
  IndexedInstance store(u, base);

  EXPECT_EQ(store.Probe(r, 0, u.PathOfChars("a")).size(), 2u);
  EXPECT_EQ(store.Probe(r, 0, u.PathOfChars("b")).size(), 1u);
  EXPECT_EQ(store.Probe(r, 0, u.PathOfChars("c")).size(), 0u);
  EXPECT_EQ(store.Probe(r, 1, u.PathOfChars("z")).size(), 1u);

  // Incremental maintenance: new facts land in already-built indexes.
  EXPECT_TRUE(store.Add(r, {u.PathOfChars("a"), u.PathOfChars("w")}));
  EXPECT_EQ(store.Probe(r, 0, u.PathOfChars("a")).size(), 3u);
  // Duplicates are ignored.
  EXPECT_FALSE(store.Add(r, {u.PathOfChars("a"), u.PathOfChars("w")}));
  EXPECT_EQ(store.Probe(r, 0, u.PathOfChars("a")).size(), 3u);
}

TEST(IndexedInstanceTest, ProbeFirstBucketsByLeadingValue) {
  Universe u;
  RelId r = *u.InternRel("R", 1);
  Instance base;
  base.Add(r, {u.PathOfChars("ab")});
  base.Add(r, {u.PathOfChars("ac")});
  base.Add(r, {u.PathOfChars("ba")});
  base.Add(r, {kEmptyPath});  // empty path: in no first-value bucket
  IndexedInstance store(u, base);

  Value a = Value::Atom(u.InternAtom("a"));
  Value b = Value::Atom(u.InternAtom("b"));
  Value c = Value::Atom(u.InternAtom("c"));
  EXPECT_EQ(store.ProbeFirst(r, 0, a).size(), 2u);
  EXPECT_EQ(store.ProbeFirst(r, 0, b).size(), 1u);
  EXPECT_EQ(store.ProbeFirst(r, 0, c).size(), 0u);

  EXPECT_TRUE(store.Add(r, {u.PathOfChars("ad")}));
  EXPECT_EQ(store.ProbeFirst(r, 0, a).size(), 3u);
}

TEST(IndexedInstanceTest, ProbeLastBucketsByTrailingValue) {
  Universe u;
  RelId r = *u.InternRel("R", 1);
  Instance base;
  base.Add(r, {u.PathOfChars("ab")});
  base.Add(r, {u.PathOfChars("cb")});
  base.Add(r, {u.PathOfChars("ba")});
  base.Add(r, {u.PathOfChars("b")});
  base.Add(r, {kEmptyPath});  // empty path: in no last-value bucket
  IndexedInstance store(u, base);

  Value a = Value::Atom(u.InternAtom("a"));
  Value b = Value::Atom(u.InternAtom("b"));
  Value c = Value::Atom(u.InternAtom("c"));
  EXPECT_EQ(store.ProbeLast(r, 0, b).size(), 3u);  // ab, cb, b
  EXPECT_EQ(store.ProbeLast(r, 0, a).size(), 1u);  // ba
  EXPECT_EQ(store.ProbeLast(r, 0, c).size(), 0u);

  // Incremental maintenance mirrors the first-value index.
  EXPECT_TRUE(store.Add(r, {u.PathOfChars("db")}));
  EXPECT_EQ(store.ProbeLast(r, 0, b).size(), 4u);
}

TEST(BaseStoreTest, ProbesAgreeAcrossAllThreeFamilies) {
  Universe u;
  RelId r = *u.InternRel("R", 2);
  Instance base;
  base.Add(r, {u.PathOfChars("ab"), u.PathOfChars("x")});
  base.Add(r, {u.PathOfChars("ac"), u.PathOfChars("y")});
  base.Add(r, {u.PathOfChars("cb"), u.PathOfChars("x")});
  BaseStore store(u, std::move(base));

  Value a = Value::Atom(u.InternAtom("a"));
  Value b = Value::Atom(u.InternAtom("b"));
  EXPECT_EQ(store.Probe(r, 0, u.PathOfChars("ab")).size(), 1u);
  EXPECT_EQ(store.Probe(r, 1, u.PathOfChars("x")).size(), 2u);
  EXPECT_EQ(store.ProbeFirst(r, 0, a).size(), 2u);  // ab, ac
  EXPECT_EQ(store.ProbeLast(r, 0, b).size(), 2u);   // ab, cb
  // Absent relations and out-of-range columns return the empty bucket.
  EXPECT_EQ(store.Probe(r + 1, 0, kEmptyPath).size(), 0u);
  EXPECT_EQ(store.Probe(r, 7, kEmptyPath).size(), 0u);
  // One slot per column built (all three families build together).
  EXPECT_EQ(store.NumIndexedColumns(), 2u);
}

// --- Database/Session ---------------------------------------------------------

TEST(DatabaseTest, SessionRunReturnsDerivedOnly) {
  Universe u;
  Program p = MustParse(u,
                        "Reach($x, $y) <- R($x ++ $y).\n"
                        "Reach($x, $z) <- Reach($x, $y), R($y ++ $z).");
  Result<PreparedProgram> prog = Engine::Compile(u, std::move(p));
  ASSERT_TRUE(prog.ok());
  Instance in = MustInstance(u, "R(a ++ b). R(b ++ c).");
  Instance in_copy = in;
  Result<Database> db = Database::Open(u, std::move(in));
  ASSERT_TRUE(db.ok());
  EXPECT_EQ(db->edb().NumFacts(), 2u);

  Session session = db->Snapshot();
  Result<Instance> derived = session.Run(*prog);
  ASSERT_TRUE(derived.ok());
  RelId r = *u.FindRel("R");
  RelId reach = *u.FindRel("Reach");
  // Derived facts only: the EDB relation is not in the result.
  EXPECT_TRUE(derived->Tuples(r).empty());
  // `$x ++ $y` enumerates every split of every reachable path.
  EXPECT_GT(derived->Tuples(reach).size(), 0u);

  // Same derived facts as the input-plus-derived Run on an instance.
  Result<Instance> full = prog->Run(in_copy);
  ASSERT_TRUE(full.ok());
  EXPECT_EQ(full->Project({reach}), derived->Project({reach}));
}

TEST(DatabaseTest, BaseIndexesBuildOncePerColumn) {
  Universe u;
  Program p = MustParse(u,
                        "Reach($x, $y) <- R($x ++ $y).\n"
                        "Reach($x, $z) <- Reach($x, $y), R($y ++ $z).");
  Result<PreparedProgram> prog = Engine::Compile(u, std::move(p));
  ASSERT_TRUE(prog.ok());
  Instance in = MustInstance(u, "R(a ++ b). R(b ++ c). R(c ++ d).");
  Result<Database> db = Database::Open(u, std::move(in));
  ASSERT_TRUE(db.ok());
  EXPECT_EQ(db->NumIndexedColumns(), 0u);  // lazy: nothing probed yet

  Session session = db->Snapshot();
  ASSERT_TRUE(session.Run(*prog).ok());
  size_t after_first = db->NumIndexedColumns();
  EXPECT_GT(after_first, 0u);
  // Re-running probes the already-built indexes; nothing new is built.
  ASSERT_TRUE(session.Run(*prog).ok());
  EXPECT_EQ(db->NumIndexedColumns(), after_first);
}

TEST(DatabaseTest, EagerIndexesBuildAtOpen) {
  Universe u;
  Instance in = MustInstance(u, "R(a ++ b). S(c, d).");
  Database::OpenOptions opts;
  opts.eager_indexes = true;
  Result<Database> db = Database::Open(u, std::move(in), opts);
  ASSERT_TRUE(db.ok());
  EXPECT_EQ(db->NumIndexedColumns(), 3u);  // R/0, S/0, S/1
}

TEST(DatabaseTest, RunsDoNotMutateTheBase) {
  Universe u;
  Program p = MustParse(u, "S($x) <- R($x).");
  Result<PreparedProgram> prog = Engine::Compile(u, std::move(p));
  ASSERT_TRUE(prog.ok());
  Instance in = MustInstance(u, "R(a). R(b).");
  Result<Database> db = Database::Open(u, std::move(in));
  ASSERT_TRUE(db.ok());
  Session session = db->Snapshot();
  for (int i = 0; i < 3; ++i) {
    Result<Instance> derived = session.Run(*prog);
    ASSERT_TRUE(derived.ok());
    EXPECT_EQ(derived->NumFacts(), 2u);
  }
  EXPECT_EQ(db->edb().NumFacts(), 2u);  // base untouched
}

// --- Versioned Database: epochs, Writer, Compact ------------------------------

TEST(EpochTest, AppendPublishesSegmentsAndBumpsEpoch) {
  Universe u;
  Result<Database> db = Database::Open(u, MustInstance(u, "R(a). R(b)."));
  ASSERT_TRUE(db.ok());
  EXPECT_EQ(db->epoch(), 0u);
  EXPECT_EQ(db->NumSegments(), 1u);
  EXPECT_EQ(db->NumFacts(), 2u);

  Result<uint64_t> e1 = db->Append(MustInstance(u, "R(c). S(d, d)."));
  ASSERT_TRUE(e1.ok());
  EXPECT_EQ(*e1, 1u);
  EXPECT_EQ(db->epoch(), 1u);
  EXPECT_EQ(db->NumSegments(), 2u);
  EXPECT_EQ(db->NumFacts(), 4u);
  // edb() materializes the union of all segments.
  Instance edb = db->edb();
  EXPECT_EQ(edb.NumFacts(), 4u);
  EXPECT_TRUE(edb.Contains(*u.FindRel("R"), {u.PathOfChars("c")}));
}

TEST(EpochTest, AppendDedupesAgainstTheCurrentStack) {
  Universe u;
  Result<Database> db = Database::Open(u, MustInstance(u, "R(a). R(b)."));
  ASSERT_TRUE(db.ok());
  // Entirely duplicate: no segment published, no epoch bump.
  Result<uint64_t> e = db->Append(MustInstance(u, "R(a)."));
  ASSERT_TRUE(e.ok());
  EXPECT_EQ(*e, 0u);
  EXPECT_EQ(db->NumSegments(), 1u);
  // Partially duplicate: only the fresh fact lands in the new segment.
  e = db->Append(MustInstance(u, "R(a). R(c)."));
  ASSERT_TRUE(e.ok());
  EXPECT_EQ(*e, 1u);
  EXPECT_EQ(db->NumFacts(), 3u);
  // Multi-segment scans therefore enumerate each fact exactly once: a
  // run over `R($x)` derives one S fact per distinct R fact.
  Program p = MustParse(u, "S($x) <- R($x).");
  Result<PreparedProgram> prog = Engine::Compile(u, std::move(p));
  ASSERT_TRUE(prog.ok());
  Result<Instance> derived = db->Snapshot().Run(*prog);
  ASSERT_TRUE(derived.ok());
  EXPECT_EQ(derived->NumFacts(), 3u);
}

TEST(EpochTest, WriterBatchesIntoOneCommit) {
  Universe u;
  Result<Database> db = Database::Open(u, MustInstance(u, "R(a)."));
  ASSERT_TRUE(db.ok());
  Writer w = db->MakeWriter();
  RelId r = *u.FindRel("R");
  EXPECT_TRUE(w.Add(r, {u.PathOfChars("b")}));
  EXPECT_FALSE(w.Add(r, {u.PathOfChars("b")}));  // staged duplicate
  w.Stage(MustInstance(u, "R(c). R(d)."));
  EXPECT_EQ(w.NumStaged(), 3u);
  Result<uint64_t> epoch = w.Commit();
  ASSERT_TRUE(epoch.ok());
  EXPECT_EQ(*epoch, 1u);
  EXPECT_EQ(db->NumSegments(), 2u);  // one batch = one segment
  EXPECT_EQ(db->NumFacts(), 4u);
  EXPECT_EQ(w.NumStaged(), 0u);  // staging area cleared by Commit
  // An empty commit publishes nothing.
  Result<uint64_t> again = w.Commit();
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(*again, 1u);
  EXPECT_EQ(db->NumSegments(), 2u);
}

// --- Writer / Compact error paths ---------------------------------------------

TEST(EpochTest, CommitOnClosedDatabaseFails) {
  Universe u;
  Result<Database> db = Database::Open(u, MustInstance(u, "R(a)."));
  ASSERT_TRUE(db.ok());
  Writer w = db->MakeWriter();
  w.Stage(MustInstance(u, "R(b)."));
  EXPECT_FALSE(db->closed());
  db->Close();
  EXPECT_TRUE(db->closed());

  // Writers fail fast; the staged facts never publish.
  Result<uint64_t> commit = w.Commit();
  ASSERT_FALSE(commit.ok());
  EXPECT_EQ(commit.status().code(), StatusCode::kFailedPrecondition);
  Result<uint64_t> append = db->Append(MustInstance(u, "R(c)."));
  ASSERT_FALSE(append.ok());
  EXPECT_EQ(append.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(db->epoch(), 0u);
  EXPECT_EQ(db->NumFacts(), 1u);

  // Reads are unaffected: snapshots keep serving the final epoch.
  Program p = MustParse(u, "S($x) <- R($x).");
  Result<PreparedProgram> prog = Engine::Compile(u, std::move(p));
  ASSERT_TRUE(prog.ok());
  Result<Instance> derived = db->Snapshot().Run(*prog);
  ASSERT_TRUE(derived.ok());
  EXPECT_EQ(derived->NumFacts(), 1u);

  // Close is idempotent.
  db->Close();
  EXPECT_TRUE(db->closed());
}

TEST(EpochTest, DoubleCommitPublishesNothingTwice) {
  Universe u;
  Result<Database> db = Database::Open(u, MustInstance(u, "R(a)."));
  ASSERT_TRUE(db.ok());
  Writer w = db->MakeWriter();
  w.Stage(MustInstance(u, "R(b)."));
  Result<uint64_t> first = w.Commit();
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(*first, 1u);
  // The staging area was consumed: an immediate second Commit is an
  // empty batch — no new segment, no epoch bump, not an error.
  Result<uint64_t> second = w.Commit();
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(*second, 1u);
  EXPECT_EQ(db->NumSegments(), 2u);
  EXPECT_EQ(db->NumFacts(), 2u);
  // And a commit whose every staged fact is already present publishes
  // nothing either.
  w.Stage(MustInstance(u, "R(a). R(b)."));
  Result<uint64_t> dup = w.Commit();
  ASSERT_TRUE(dup.ok());
  EXPECT_EQ(*dup, 1u);
  EXPECT_EQ(db->NumSegments(), 2u);
}

TEST(EpochTest, CompactWithNothingToFold) {
  Universe u;
  // A single-segment stack (fresh open) has nothing to fold — even when
  // that one segment is empty.
  Result<Database> empty = Database::Open(u, Instance{});
  ASSERT_TRUE(empty.ok());
  EXPECT_FALSE(*empty->Compact());
  EXPECT_EQ(empty->NumSegments(), 1u);
  EXPECT_EQ(empty->epoch(), 0u);

  Result<Database> db = Database::Open(u, MustInstance(u, "R(a)."));
  ASSERT_TRUE(db.ok());
  EXPECT_FALSE(*db->Compact());
  // After appends there is something to fold — once; the second Compact
  // sees one segment again. A closed database refuses to fold at all.
  ASSERT_TRUE(db->Append(MustInstance(u, "R(b).")).ok());
  EXPECT_TRUE(*db->Compact());
  EXPECT_FALSE(*db->Compact());
  ASSERT_TRUE(db->Append(MustInstance(u, "R(c).")).ok());
  db->Close();
  EXPECT_FALSE(*db->Compact());
  EXPECT_EQ(db->NumSegments(), 2u);
}

TEST(EpochTest, SnapshotIgnoresLaterAppends) {
  Universe u;
  Program p = MustParse(u, "S($x) <- R($x).");
  Result<PreparedProgram> prog = Engine::Compile(u, std::move(p));
  ASSERT_TRUE(prog.ok());
  Result<Database> db = Database::Open(u, MustInstance(u, "R(a)."));
  ASSERT_TRUE(db.ok());
  Session old = db->Snapshot();
  ASSERT_TRUE(db->Append(MustInstance(u, "R(b).")).ok());
  Result<Instance> old_out = old.Run(*prog);
  Result<Instance> new_out = db->Snapshot().Run(*prog);
  ASSERT_TRUE(old_out.ok());
  ASSERT_TRUE(new_out.ok());
  EXPECT_EQ(old_out->NumFacts(), 1u);  // pinned at epoch 0
  EXPECT_EQ(new_out->NumFacts(), 2u);
  EXPECT_EQ(old.NumFacts(), 1u);
  EXPECT_EQ(old.edb().NumFacts(), 1u);
}

TEST(EpochTest, AutoCompactionFoldsBySegmentCount) {
  Universe u;
  Database::OpenOptions opts;
  opts.auto_compact_segments = 2;
  Result<Database> db =
      Database::Open(u, MustInstance(u, "R(a)."), opts);
  ASSERT_TRUE(db.ok());
  ASSERT_TRUE(db->Append(MustInstance(u, "R(b).")).ok());
  EXPECT_EQ(db->NumSegments(), 2u);  // at the limit: no fold yet
  ASSERT_TRUE(db->Append(MustInstance(u, "R(c).")).ok());
  EXPECT_EQ(db->NumSegments(), 1u);  // 3 > 2 folded back to one
  EXPECT_EQ(db->epoch(), 2u);        // compaction never moves the epoch
  EXPECT_EQ(db->NumFacts(), 3u);
}

TEST(EpochTest, AutoCompactionFoldsByTailRatio) {
  Universe u;
  Database::OpenOptions opts;
  opts.auto_compact_tail_ratio = 0.4;
  Result<Database> db =
      Database::Open(u, MustInstance(u, "R(a). R(b). R(c). R(d)."), opts);
  ASSERT_TRUE(db.ok());
  // Tail 1/5 = 0.2 <= 0.4: stays stacked.
  ASSERT_TRUE(db->Append(MustInstance(u, "R(e).")).ok());
  EXPECT_EQ(db->NumSegments(), 2u);
  // Tail 5/9 > 0.4: folds.
  ASSERT_TRUE(db->Append(MustInstance(u, "R(f). R(g). R(h). R(i).")).ok());
  EXPECT_EQ(db->NumSegments(), 1u);
  EXPECT_EQ(db->NumFacts(), 9u);
}

/// `n` facts R(b0) ... R(b<n-1>): a base big enough that small writes
/// stay below the tail-fold fraction.
Instance BaseFacts(Universe& u, int n) {
  std::string text;
  for (int i = 0; i < n; ++i) text += "R(b" + std::to_string(i) + "). ";
  return MustInstance(u, text);
}

TEST(EpochTest, TailFoldKeepsTheBaseSegment) {
  Universe u;
  Database::OpenOptions opts;
  opts.auto_compact_segments = 4;
  Result<Database> db = Database::Open(u, BaseFacts(u, 40), opts);
  ASSERT_TRUE(db.ok());
  const BaseStore* base = &db->base();
  base->BuildAllIndexes();
  size_t indexed = db->NumIndexedColumns();
  ASSERT_GT(indexed, 0u);

  ASSERT_TRUE(db->Append(MustInstance(u, "R(n1).")).ok());
  ASSERT_TRUE(db->Retract(MustInstance(u, "R(b0).")).ok());
  ASSERT_TRUE(db->Append(MustInstance(u, "R(n2). R(n3).")).ok());
  ASSERT_TRUE(db->Retract(MustInstance(u, "R(n1).")).ok());
  // Five segments > 4: the tail folds into one tombstone segment (R(b0))
  // and one fact segment (R(n2), R(n3)); R(n1) came and went. The base
  // keeps its object, its indexes and its statistics.
  EXPECT_EQ(&db->base(), base);
  EXPECT_GE(db->NumIndexedColumns(), indexed);
  EXPECT_EQ(db->NumSegments(), 3u);
  EXPECT_EQ(db->NumTombstones(), 1u);
  EXPECT_EQ(db->epoch(), 4u);
  EXPECT_EQ(db->NumFacts(), 41u);
  std::string want_text = "R(n2). R(n3). ";
  for (int i = 1; i < 40; ++i) want_text += "R(b" + std::to_string(i) + "). ";
  Instance want = MustInstance(u, want_text);
  EXPECT_EQ(db->edb().ToString(u), want.ToString(u));

  // Explicit Compact() still folds everything.
  ASSERT_TRUE(*db->Compact());
  EXPECT_EQ(db->NumSegments(), 1u);
  EXPECT_EQ(db->NumTombstones(), 0u);
  EXPECT_EQ(db->edb().ToString(u), want.ToString(u));
}

TEST(EpochTest, TailReachingTheFractionFoldsFully) {
  Universe u;
  Database::OpenOptions opts;
  opts.auto_compact_segments = 4;
  // A quarter of 28 is 7: the first fold carries 4 net tail facts, the
  // second 7.
  Result<Database> db = Database::Open(u, BaseFacts(u, 28), opts);
  ASSERT_TRUE(db.ok());
  const BaseStore* base = &db->base();
  // Pins the first base so a new one cannot reuse its address.
  Session pin = db->Snapshot();
  for (int i = 1; i <= 4; ++i) {
    std::string fact = "R(n" + std::to_string(i) + ").";
    ASSERT_TRUE(db->Append(MustInstance(u, fact)).ok());
  }
  EXPECT_EQ(&db->base(), base);
  EXPECT_EQ(db->NumSegments(), 2u);  // base + one fact segment
  for (int i = 5; i <= 7; ++i) {
    std::string fact = "R(n" + std::to_string(i) + ").";
    ASSERT_TRUE(db->Append(MustInstance(u, fact)).ok());
  }
  EXPECT_NE(&db->base(), base);
  EXPECT_EQ(db->NumSegments(), 1u);
  EXPECT_EQ(db->base().instance().NumFacts(), 35u);
  EXPECT_EQ(db->NumFacts(), 35u);
}

TEST(EpochTest, AutoFoldLeavesTheUnseenSegmentToTheView) {
  Universe u;
  Database::OpenOptions opts;
  opts.auto_compact_segments = 4;
  Result<Database> db = Database::Open(u, BaseFacts(u, 40), opts);
  ASSERT_TRUE(db.ok());
  Program p = MustParse(u, "S($x) <- R($x).");
  Result<PreparedProgram> prog = Engine::Compile(u, std::move(p));
  ASSERT_TRUE(prog.ok());
  ASSERT_TRUE(db->views().Refresh("s", *prog).ok());
  // Refresh after every write, like the server's eager refresh: each
  // fold then happens while the view is one epoch behind.
  const BaseStore* base = &db->base();
  for (int i = 1; i <= 4; ++i) {
    std::string fact = "R(n" + std::to_string(i) + ").";
    ASSERT_TRUE(db->Append(MustInstance(u, fact)).ok());
    if (i < 4) {
      ASSERT_TRUE(db->views().Refresh("s", *prog).ok());
    }
  }
  // The fold covered the base and the three segments the view had seen;
  // the fourth (unseen) segment stays above the folded tail.
  EXPECT_EQ(&db->base(), base);
  EXPECT_EQ(db->NumSegments(), 3u);
  auto v = db->views().Refresh("s", *prog);
  ASSERT_TRUE(v.ok()) << v.status().ToString();
  ViewManager::Counters c = db->views().counters();
  EXPECT_EQ(c.cold_runs, 1u);
  EXPECT_EQ(c.delta_refreshes, 4u);
  Result<Instance> cold = db->Snapshot().Run(*prog);
  ASSERT_TRUE(cold.ok());
  EXPECT_EQ((*v)->idb().ToString(u), cold->ToString(u));
}

TEST(EpochTest, AutoFoldRangeFollowsTheOldestView) {
  for (bool lag_past_limit : {false, true}) {
    SCOPED_TRACE(lag_past_limit ? "view lags past the limit"
                                : "view lags two epochs");
    Universe u;
    Database::OpenOptions opts;
    opts.auto_compact_segments = 4;
    Result<Database> db = Database::Open(u, BaseFacts(u, 40), opts);
    ASSERT_TRUE(db.ok());
    Result<PreparedProgram> prog =
        Engine::Compile(u, MustParse(u, "S($x) <- R($x)."));
    ASSERT_TRUE(prog.ok());
    ASSERT_TRUE(db->views().Refresh("s", *prog).ok());
    for (int i = 1; i <= 4; ++i) {
      std::string fact = "R(n" + std::to_string(i) + ").";
      ASSERT_TRUE(db->Append(MustInstance(u, fact)).ok());
      if (i == 2 && !lag_past_limit) {
        ASSERT_TRUE(db->views().Refresh("s", *prog).ok());
      }
    }
    // The fourth append folds. A view at epoch 2 has seen the base and
    // two segments: they fold, the two unseen ones stay. A view still at
    // epoch 0 would keep all four appends unfolded, over the limit, so
    // everything folds and the view re-materializes.
    EXPECT_EQ(db->NumSegments(), lag_past_limit ? 2u : 4u);
    auto v = db->views().Refresh("s", *prog);
    ASSERT_TRUE(v.ok()) << v.status().ToString();
    EXPECT_EQ(db->views().counters().cold_runs, lag_past_limit ? 2u : 1u);
    Result<Instance> cold = db->Snapshot().Run(*prog);
    ASSERT_TRUE(cold.ok());
    EXPECT_EQ((*v)->idb().ToString(u), cold->ToString(u));
  }
}

TEST(EpochTest, StatsAreEpochAware) {
  Universe u;
  Result<Database> db = Database::Open(u, MustInstance(u, "R(a). R(b)."));
  ASSERT_TRUE(db.ok());
  RelId r = *u.FindRel("R");
  EXPECT_EQ(db->Stats().EstimateScan(r), 2.0);
  ASSERT_TRUE(db->Append(MustInstance(u, "R(c). R(d).")).ok());
  // Per-segment measurements merge: the new segment's facts count.
  EXPECT_EQ(db->Stats().EstimateScan(r), 4.0);
  // Compaction re-measures the merged store; totals are unchanged.
  ASSERT_TRUE(*db->Compact());
  EXPECT_EQ(db->Stats().EstimateScan(r), 4.0);
}

// --- Stats aging + drift -------------------------------------------------------

TEST(StatsAgingTest, AccumulatorForgetsUnderEpochDecay) {
  Universe u;
  RelId s = *u.InternRel("S", 1);
  Instance big;
  for (int i = 0; i < 16; ++i) {
    big.Add(s, {u.SingletonPath(Value::Atom(u.InternAtom(
                   "v" + std::to_string(i))))});
  }
  StatsAccumulator accum;
  accum.Record(ComputeInstanceStats(u, big));
  EXPECT_EQ(accum.Snapshot().EstimateScan(s), 16.0);
  // Pre-aging, ObserveMax pins the all-time peak: a smaller observation
  // cannot shrink the estimate...
  Instance small;
  small.Add(s, {u.PathOfChars("a")});
  accum.Record(ComputeInstanceStats(u, small));
  EXPECT_EQ(accum.Snapshot().EstimateScan(s), 16.0);
  // ...but epoch aging decays the peak until fresh observations win.
  for (int i = 0; i < 4; ++i) accum.Age(StatsAccumulator::kEpochDecay);
  EXPECT_EQ(accum.Snapshot().EstimateScan(s), 1.0);
  accum.Record(ComputeInstanceStats(u, small));
  EXPECT_EQ(accum.Snapshot().EstimateScan(s), 1.0);
  // Full decay drops the relation entirely.
  for (int i = 0; i < 8; ++i) accum.Age(StatsAccumulator::kEpochDecay);
  EXPECT_FALSE(accum.Snapshot().Knows(s));
}

TEST(StatsAgingTest, DatabaseDefersEpochDecayUntilRecompute) {
  Universe u;
  Program p = MustParse(u, "S($x) <- R($x).");
  Result<PreparedProgram> prog = Engine::Compile(u, std::move(p));
  ASSERT_TRUE(prog.ok());
  Result<Database> db =
      Database::Open(u, MustInstance(u, "R(a). R(b). R(c). R(d)."));
  ASSERT_TRUE(db.ok());
  RelId s = *u.FindRel("S");
  RunOptions opts;
  opts.collect_derived_stats = true;
  ASSERT_TRUE(db->Snapshot().Run(*prog, opts).ok());
  EXPECT_EQ(db->Stats().EstimateScan(s), 4.0);
  // Appends note epoch bumps but do not decay the remembered derived
  // measurements by themselves: until something re-derives there is no
  // fresh evidence the derived shape drifted (a maintained view serving
  // across appends must not erode its own planning statistics).
  ASSERT_TRUE(db->Append(MustInstance(u, "T(x).")).ok());
  ASSERT_TRUE(db->Append(MustInstance(u, "T(y).")).ok());
  EXPECT_EQ(db->Stats().EstimateScan(s), 4.0);
  // The next full run applies both deferred halvings: 4 * 0.5^2 = 1.
  // (No collect_derived_stats, so nothing is recorded back on top.)
  ASSERT_TRUE(db->Snapshot().Run(*prog).ok());
  EXPECT_EQ(db->Stats().EstimateScan(s), 1.0);
}

TEST(StatsDriftTest, MeasuresRelativeTupleChange) {
  Universe u;
  StoreStats before =
      ComputeInstanceStats(u, MustInstance(u, "R(a). R(b). R(c). R(d)."));
  EXPECT_EQ(StatsDrift(before, before), 0.0);
  StoreStats grown = ComputeInstanceStats(
      u, MustInstance(u, "R(a). R(b). R(c). R(d). R(e). R(f). R(g). R(h)."));
  EXPECT_DOUBLE_EQ(StatsDrift(before, grown), 0.5);
  EXPECT_DOUBLE_EQ(StatsDrift(grown, before), 0.5);  // symmetric
  // A relation appearing from nothing is full drift.
  StoreStats with_s = before;
  with_s.MergeFrom(ComputeInstanceStats(u, MustInstance(u, "S(a, b).")));
  EXPECT_EQ(StatsDrift(before, with_s), 1.0);
}

// --- Instance satellite: move union + shared empty set --------------------------

TEST(InstanceTest, MoveUnionSplicesTuples) {
  Universe u;
  Instance a = MustInstance(u, "R(a). R(b).");
  Instance b = MustInstance(u, "R(b). R(c). S(d).");
  EXPECT_EQ(a.UnionWith(std::move(b)), 2u);  // R(c) and S(d) are new
  EXPECT_EQ(a.NumFacts(), 4u);
  EXPECT_TRUE(a.Contains(*u.FindRel("S"), {u.PathOfChars("d")}));
  EXPECT_TRUE(b.Empty());  // NOLINT(bugprone-use-after-move): documented
}

TEST(InstanceTest, AbsentRelationsShareTheEmptySet) {
  Universe u;
  Instance i;
  RelId r = *u.InternRel("R", 1);
  RelId s = *u.InternRel("S", 1);
  EXPECT_EQ(&i.Tuples(r), &EmptyTupleSet());
  EXPECT_EQ(&i.Tuples(r), &i.Tuples(s));
}

}  // namespace
}  // namespace seqdl
