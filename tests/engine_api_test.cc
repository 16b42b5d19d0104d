// Tests for the compile-once/run-many engine API (engine.h): index-on
// and index-off runs agree under naive and semi-naive iteration across
// the workload generators, plus stats reporting, cancellation, the
// indexed instance store, and the Database/Session API (database.h).
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <map>
#include <random>
#include <set>
#include <span>
#include <string>
#include <vector>

#include "src/engine/database.h"
#include "src/engine/engine.h"
#include "src/engine/index.h"
#include "src/engine/index_family.h"
#include "src/engine/instance.h"
#include "src/queries/queries.h"
#include "src/syntax/parser.h"
#include "src/term/universe.h"
#include "src/view/view.h"
#include "src/workload/generators.h"
#include "tests/test_support.h"

namespace seqdl {
namespace {

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

// A prefix or suffix probe reads its key value off the bound variable and
// the constant: it interns neither the ground prefix `$x ++ b` nor the
// ground suffix `b ++ $x`, so the Universe, which never shrinks, grows by
// the answers alone.
TEST(EngineTest, PrefixAndSuffixProbeKeysInternNoPaths) {
  struct Case {
    const char* rule;
    const char* fact;  // R's fact for key k<i>; <i> stands for i
    bool suffix;
  };
  const Case cases[] = {
      {"T($y) <- K($x), R($x ++ b ++ $y).", "R(k<i> ++ b ++ v<i> ++ w).",
       false},
      {"T($y) <- K($x), R($y ++ b ++ $x).", "R(w ++ v<i> ++ b ++ k<i>).",
       true},
  };
  constexpr int kKeys = 50;
  for (const Case& c : cases) {
    SCOPED_TRACE(c.rule);
    Universe u;
    Result<PreparedProgram> prog =
        Engine::Compile(u, MustParse(u, c.rule));
    ASSERT_TRUE(prog.ok()) << prog.status().ToString();
    std::string facts;
    for (int i = 0; i < kKeys; ++i) {
      std::string n = std::to_string(i);
      std::string fact = c.fact;
      for (size_t at; (at = fact.find("<i>")) != std::string::npos;) {
        fact.replace(at, 3, n);
      }
      facts += "K(k" + n + "). " + fact + "\n";
    }
    Instance in = MustInstance(u, facts);
    size_t before = u.num_paths();
    EvalStats stats;
    Result<Instance> out = prog->Run(in, {}, &stats);
    ASSERT_TRUE(out.ok()) << out.status().ToString();
    size_t answers = out->Tuples(*u.FindRel("T")).size();
    EXPECT_EQ(answers, static_cast<size_t>(kKeys));
    EXPECT_GT(c.suffix ? stats.suffix_probes : stats.prefix_probes, 0u);
    EXPECT_EQ(u.num_paths() - before, answers);
  }
}

TEST(EngineTest, RecursiveRoundsScanOnlyTheirDelta) {
  // Chain closure over n0 -> n1 -> ... -> n<edges>, planned without
  // statistics, so the recursive rule's cold plan scans E first. Every
  // delta round restricts T through its delta-first variant instead:
  // one scan of the round's new T facts, each keying a last-value probe
  // into E, and no full scan of E. Only round 0 scans fully (once per
  // rule); round k derives the paths of length k + 1, so the chain takes
  // one delta round per edge, the last deriving nothing.
  for (size_t edges : {size_t{8}, size_t{16}}) {
    SCOPED_TRACE(edges);
    Universe u;
    Program p = MustParse(u,
                          "T(@x ++ @y) <- E(@x ++ @y).\n"
                          "T(@x ++ @z) <- E(@x ++ @y), T(@y ++ @z).\n");
    std::string text;
    for (size_t i = 0; i < edges; ++i) {
      text += "E(";
      text += Numbered("n", i);
      text += " ++ ";
      text += Numbered("n", i + 1);
      text += ").\n";
    }
    Instance in = MustInstance(u, text);
    Result<PreparedProgram> prog = Engine::Compile(u, std::move(p));
    ASSERT_TRUE(prog.ok()) << prog.status().ToString();

    EvalStats stats;
    Result<Instance> out = prog->Run(in, {}, &stats);
    ASSERT_TRUE(out.ok()) << out.status().ToString();
    EXPECT_EQ(stats.full_scans, 2u);
    EXPECT_EQ(stats.rounds, edges);
    EXPECT_EQ(stats.delta_scans, stats.rounds);
    EXPECT_EQ(out->Tuples(*u.FindRel("T")).size(), edges * (edges + 1) / 2);

    RunOptions naive;
    naive.seminaive = false;
    Result<Instance> naive_out = prog->Run(in, naive);
    ASSERT_TRUE(naive_out.ok()) << naive_out.status().ToString();
    EXPECT_EQ(*out, *naive_out);
    RunOptions no_index;
    no_index.use_index = false;
    Result<Instance> scanned = prog->Run(in, no_index);
    ASSERT_TRUE(scanned.ok()) << scanned.status().ToString();
    EXPECT_EQ(*out, *scanned);
  }
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

// --- IndexedStore -------------------------------------------------------------

TEST(IndexedStoreTest, ProbeAgreesWithScan) {
  Universe u;
  RelId r = *u.InternRel("R", 2);
  Instance base;
  base.Add(r, {u.PathOfChars("a"), u.PathOfChars("x")});
  base.Add(r, {u.PathOfChars("a"), u.PathOfChars("y")});
  base.Add(r, {u.PathOfChars("b"), u.PathOfChars("z")});
  IndexedStore store(u, base);

  EXPECT_EQ(store.Probe(r, 0, IndexFamily::kWhole, u.PathOfChars("a")).size(),
            2u);
  EXPECT_EQ(store.Probe(r, 0, IndexFamily::kWhole, u.PathOfChars("b")).size(),
            1u);
  EXPECT_EQ(store.Probe(r, 0, IndexFamily::kWhole, u.PathOfChars("c")).size(),
            0u);
  EXPECT_EQ(store.Probe(r, 1, IndexFamily::kWhole, u.PathOfChars("z")).size(),
            1u);

  // Incremental maintenance: new facts land in already-built indexes.
  EXPECT_TRUE(store.Add(r, Tuple{u.PathOfChars("a"), u.PathOfChars("w")}));
  EXPECT_EQ(store.Probe(r, 0, IndexFamily::kWhole, u.PathOfChars("a")).size(),
            3u);
  // Duplicates are ignored.
  EXPECT_FALSE(store.Add(r, Tuple{u.PathOfChars("a"), u.PathOfChars("w")}));
  EXPECT_EQ(store.Probe(r, 0, IndexFamily::kWhole, u.PathOfChars("a")).size(),
            3u);
}

TEST(IndexedStoreTest, FirstValueProbeBucketsByLeadingValue) {
  Universe u;
  RelId r = *u.InternRel("R", 1);
  Instance base;
  base.Add(r, {u.PathOfChars("ab")});
  base.Add(r, {u.PathOfChars("ac")});
  base.Add(r, {u.PathOfChars("ba")});
  base.Add(r, {kEmptyPath});  // empty path: in no first-value bucket
  IndexedStore store(u, base);

  Value a = Value::Atom(u.InternAtom("a"));
  Value b = Value::Atom(u.InternAtom("b"));
  Value c = Value::Atom(u.InternAtom("c"));
  EXPECT_EQ(store.Probe(r, 0, IndexFamily::kFirst, a.bits()).size(), 2u);
  EXPECT_EQ(store.Probe(r, 0, IndexFamily::kFirst, b.bits()).size(), 1u);
  EXPECT_EQ(store.Probe(r, 0, IndexFamily::kFirst, c.bits()).size(), 0u);

  EXPECT_TRUE(store.Add(r, Tuple{u.PathOfChars("ad")}));
  EXPECT_EQ(store.Probe(r, 0, IndexFamily::kFirst, a.bits()).size(), 3u);
}

TEST(IndexedStoreTest, LastValueProbeBucketsByTrailingValue) {
  Universe u;
  RelId r = *u.InternRel("R", 1);
  Instance base;
  base.Add(r, {u.PathOfChars("ab")});
  base.Add(r, {u.PathOfChars("cb")});
  base.Add(r, {u.PathOfChars("ba")});
  base.Add(r, {u.PathOfChars("b")});
  base.Add(r, {kEmptyPath});  // empty path: in no last-value bucket
  IndexedStore store(u, base);

  Value a = Value::Atom(u.InternAtom("a"));
  Value b = Value::Atom(u.InternAtom("b"));
  Value c = Value::Atom(u.InternAtom("c"));
  EXPECT_EQ(store.Probe(r, 0, IndexFamily::kLast, b.bits()).size(),
            3u);  // ab, cb, b
  EXPECT_EQ(store.Probe(r, 0, IndexFamily::kLast, a.bits()).size(), 1u);  // ba
  EXPECT_EQ(store.Probe(r, 0, IndexFamily::kLast, c.bits()).size(), 0u);

  // Incremental maintenance mirrors the first-value index.
  EXPECT_TRUE(store.Add(r, Tuple{u.PathOfChars("db")}));
  EXPECT_EQ(store.Probe(r, 0, IndexFamily::kLast, b.bits()).size(), 4u);
}

TEST(IndexedStoreTest, ProbesAgreeAcrossAllThreeFamilies) {
  Universe u;
  RelId r = *u.InternRel("R", 2);
  Instance base;
  base.Add(r, {u.PathOfChars("ab"), u.PathOfChars("x")});
  base.Add(r, {u.PathOfChars("ac"), u.PathOfChars("y")});
  base.Add(r, {u.PathOfChars("cb"), u.PathOfChars("x")});
  const IndexedStore store(u, std::move(base));

  Value a = Value::Atom(u.InternAtom("a"));
  Value b = Value::Atom(u.InternAtom("b"));
  EXPECT_EQ(store.Probe(r, 0, IndexFamily::kWhole, u.PathOfChars("ab")).size(),
            1u);
  EXPECT_EQ(store.Probe(r, 1, IndexFamily::kWhole, u.PathOfChars("x")).size(),
            2u);
  EXPECT_EQ(store.Probe(r, 0, IndexFamily::kFirst, a.bits()).size(),
            2u);  // ab, ac
  EXPECT_EQ(store.Probe(r, 0, IndexFamily::kLast, b.bits()).size(),
            2u);  // ab, cb
  // Absent relations and out-of-range columns return the empty bucket.
  EXPECT_EQ(store.Probe(r + 1, 0, IndexFamily::kWhole, kEmptyPath).size(), 0u);
  EXPECT_EQ(store.Probe(r, 7, IndexFamily::kWhole, kEmptyPath).size(), 0u);
  // A probe builds only the family it asks for: the four probes above
  // built four (column, family) indexes.
  EXPECT_EQ(store.NumIndexedFamilies(), 4u);
}

// --- Index families -----------------------------------------------------------

// Whether `t` belongs in the (col, family) bucket of `key`, read off the
// path itself: the whole-value key is the PathId, the first-/last-value
// key the bits of a non-empty path's first/last value.
bool FiledUnder(const Universe& u, TupleRef t, uint32_t col,
                IndexFamily family, uint32_t key) {
  if (col >= t.size()) return false;
  std::span<const Value> path = u.GetPath(t[col]);
  switch (family) {
    case IndexFamily::kWhole:
      return t[col] == key;
    case IndexFamily::kFirst:
      return !path.empty() && path.front().bits() == key;
    case IndexFamily::kLast:
      return !path.empty() && path.back().bits() == key;
    case IndexFamily::kNone:
      break;
  }
  return false;
}

// The keys a (col, family) probe of `tuples` should try: every key some
// tuple files under, plus `absent`, which none does.
std::set<uint32_t> ProbeKeys(const Universe& u, const TupleSet& tuples,
                             uint32_t col, IndexFamily family,
                             uint32_t absent) {
  std::set<uint32_t> keys{absent};
  for (TupleRef t : tuples) {
    std::span<const Value> path = u.GetPath(t[col]);
    if (family == IndexFamily::kWhole) keys.insert(t[col]);
    if (path.empty()) continue;
    if (family == IndexFamily::kFirst) keys.insert(path.front().bits());
    if (family == IndexFamily::kLast) keys.insert(path.back().bits());
  }
  return keys;
}

// A random path of 0-4 values over three atoms; a value is a packed path
// of 0-2 atoms one time in three.
PathId RandomPath(Universe& u, std::mt19937& rng) {
  const Value atoms[] = {Value::Atom(u.InternAtom("a")),
                         Value::Atom(u.InternAtom("b")),
                         Value::Atom(u.InternAtom("c"))};
  std::vector<Value> values(rng() % 5);
  for (Value& v : values) {
    if (rng() % 3 != 0) {
      v = atoms[rng() % 3];
      continue;
    }
    std::vector<Value> inner(rng() % 3);
    for (Value& w : inner) w = atoms[rng() % 3];
    v = Value::Packed(u.InternPath(inner));
  }
  return u.InternPath(values);
}

Tuple RandomTuple(Universe& u, std::mt19937& rng, uint32_t arity) {
  Tuple t;
  for (uint32_t i = 0; i < arity; ++i) t.push_back(RandomPath(u, rng));
  return t;
}

// An IndexedStore answers each (col, family, key) probe with exactly the
// tuples a linear filter keeps, in each shape the engine uses: built over
// a table that has had rows removed and probed read-only (a published
// segment), filled fact by fact before its first probe (a round's delta),
// and across interleaved adds and removes with each family first built at
// a different point (a run's overlay). A removal swap-removes: the last
// row takes the removed row's number, so each round removes the first
// row, then the row that took its number, besides random ones.
TEST(IndexFamilyTest, EveryStoreAnswersLikeAScan) {
  for (uint32_t seed = 1; seed <= 30; ++seed) {
    Universe u;
    std::mt19937 rng(seed);
    uint32_t arity = 1 + seed % 3;
    RelId rel = *u.InternRel("R", arity);
    Instance start;
    size_t n = rng() % 25;
    for (size_t i = 0; i < n; ++i) start.Add(rel, RandomTuple(u, rng, arity));
    for (int i = 0; i < 2 && !start.Tuples(rel).empty(); ++i) {
      EXPECT_TRUE(start.Remove(rel, start.Tuples(rel).Row(0)));
    }
    // No tuple holds atom z, so neither it nor the path `z` is a key.
    Value z = Value::Atom(u.InternAtom("z"));
    std::vector<Value> just_z{z};
    const PathId z_path = u.InternPath(just_z);

    auto check = [&](auto&& probe, const TupleSet& tuples, IndexFamily family,
                     const char* store) {
      for (uint32_t col = 0; col < arity; ++col) {
        uint32_t absent = family == IndexFamily::kWhole ? z_path : z.bits();
        for (uint32_t key : ProbeKeys(u, tuples, col, family, absent)) {
          std::multiset<Tuple> got;
          for (TupleRef t : probe(col, key)) got.emplace(t.begin(), t.end());
          std::multiset<Tuple> want;
          for (TupleRef t : tuples) {
            if (FiledUnder(u, t, col, family, key)) {
              want.emplace(t.begin(), t.end());
            }
          }
          EXPECT_EQ(got, want) << store << " seed " << seed << " col " << col
                               << " family " << static_cast<int>(family)
                               << " key " << key;
        }
      }
    };

    const IndexedStore segment(u, start);
    IndexedStore delta(u, Instance{});
    for (TupleRef t : start.Tuples(rel)) delta.Add(rel, t);
    for (IndexFamily family : kIndexFamilies) {
      check([&](uint32_t col, uint32_t key) {
        return segment.Probe(rel, col, family, key);
      }, segment.Tuples(rel), family, "segment");
      check([&](uint32_t col, uint32_t key) {
        return delta.Probe(rel, col, family, key);
      }, delta.Tuples(rel), family, "delta");
    }

    // Round r probes the first r families, then adds and removes a few
    // facts, so each family is first built after a different number of
    // writes and is then probed again after more.
    IndexedStore store(u, start);
    const size_t families = std::size(kIndexFamilies);
    for (size_t round = 0; round <= families + 1; ++round) {
      for (size_t f = 0; f < std::min(round, families); ++f) {
        IndexFamily family = kIndexFamilies[f];
        check([&](uint32_t col, uint32_t key) {
          return store.Probe(rel, col, family, key);
        }, store.Tuples(rel), family, "overlay");
      }
      for (int i = 0; i < 4; ++i) store.Add(rel, RandomTuple(u, rng, arity));
      // In row order: the first row (the last one moves into its number),
      // random middle rows, and the last row, which has moved by then.
      std::vector<Tuple> victims;
      const TupleSet& tuples = store.Tuples(rel);
      for (uint32_t row = 0; row < tuples.size(); ++row) {
        if (row == 0 || row + 1 == tuples.size() || rng() % 4 == 0) {
          victims.emplace_back(tuples.Row(row).begin(), tuples.Row(row).end());
        }
      }
      for (TupleRef t : victims) EXPECT_TRUE(store.Remove(rel, t));
    }
  }
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

TEST(DatabaseTest, BaseIndexesBuildOncePerFamily) {
  Universe u;
  Program p = MustParse(u,
                        "Reach($x, $y) <- R($x ++ $y).\n"
                        "Reach($x, $z) <- Reach($x, $y), R($y ++ $z).");
  Result<PreparedProgram> prog = Engine::Compile(u, std::move(p));
  ASSERT_TRUE(prog.ok());
  Instance in = MustInstance(u, "R(a ++ b). R(b ++ c). R(c ++ d).");
  Result<Database> db = Database::Open(u, std::move(in));
  ASSERT_TRUE(db.ok());
  EXPECT_EQ(db->NumIndexedFamilies(), 0u);  // lazy: nothing probed yet

  Session session = db->Snapshot();
  ASSERT_TRUE(session.Run(*prog).ok());
  size_t after_first = db->NumIndexedFamilies();
  EXPECT_GT(after_first, 0u);
  // Re-running probes the already-built indexes; nothing new is built.
  ASSERT_TRUE(session.Run(*prog).ok());
  EXPECT_EQ(db->NumIndexedFamilies(), after_first);
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

// --- Versioned Database: epochs, Compact --------------------------------------

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

// --- Commit / Compact error paths ---------------------------------------------

TEST(EpochTest, CommitOnClosedDatabaseFails) {
  Universe u;
  Result<Database> db = Database::Open(u, MustInstance(u, "R(a)."));
  ASSERT_TRUE(db.ok());
  EXPECT_FALSE(db->closed());
  db->Close();
  EXPECT_TRUE(db->closed());

  // Appends and retractions fail fast, naming the verb that failed; their
  // facts never publish.
  Result<uint64_t> append = db->Append(MustInstance(u, "R(b). R(c)."));
  ASSERT_FALSE(append.ok());
  EXPECT_EQ(append.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(append.status().message(),
            "database is closed: no further appends");
  Result<uint64_t> retract = db->Retract(MustInstance(u, "R(a)."));
  ASSERT_FALSE(retract.ok());
  EXPECT_EQ(retract.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(retract.status().message(),
            "database is closed: no further retractions");
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
  Result<uint64_t> first = db->Append(MustInstance(u, "R(b)."));
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(*first, 1u);
  // An empty batch publishes nothing: no new segment, no epoch bump, not
  // an error.
  size_t appended = 7;
  Result<uint64_t> empty = db->Append(Instance{}, &appended);
  ASSERT_TRUE(empty.ok());
  EXPECT_EQ(*empty, 1u);
  EXPECT_EQ(appended, 0u);
  EXPECT_EQ(db->NumSegments(), 2u);
  EXPECT_EQ(db->NumFacts(), 2u);
  // And a batch whose every fact is already present publishes nothing
  // either.
  Result<uint64_t> dup = db->Append(MustInstance(u, "R(a). R(b)."), &appended);
  ASSERT_TRUE(dup.ok());
  EXPECT_EQ(*dup, 1u);
  EXPECT_EQ(appended, 0u);
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
  const IndexedStore* base = &db->base();
  base->Probe(*u.FindRel("R"), 0, IndexFamily::kWhole, kEmptyPath);
  size_t indexed = db->NumIndexedFamilies();
  ASSERT_GT(indexed, 0u);

  ASSERT_TRUE(db->Append(MustInstance(u, "R(n1).")).ok());
  ASSERT_TRUE(db->Retract(MustInstance(u, "R(b0).")).ok());
  ASSERT_TRUE(db->Append(MustInstance(u, "R(n2). R(n3).")).ok());
  ASSERT_TRUE(db->Retract(MustInstance(u, "R(n1).")).ok());
  // Five segments > 4: the tail folds into one tombstone segment (R(b0))
  // and one fact segment (R(n2), R(n3)); R(n1) came and went. The base
  // keeps its object, its indexes and its statistics.
  EXPECT_EQ(&db->base(), base);
  EXPECT_GE(db->NumIndexedFamilies(), indexed);
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
  const IndexedStore* base = &db->base();
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
  const IndexedStore* base = &db->base();
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

// --- Stats drift -------------------------------------------------------------

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
