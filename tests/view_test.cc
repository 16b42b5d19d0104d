// Tests for the materialized-view subsystem (view/view.h): cold
// materialization, epoch hits, semi-naive delta refresh after appends,
// EDB promotion of derived facts, negation maintained in place with
// downstream retraction cascades, support counting, and invalidation.
// The cross-cutting guarantee — a maintained view is byte-identical to
// a cold fixpoint at every epoch, over random programs and append
// schedules — lives in tests/differential_test.cc.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/engine/database.h"
#include "src/engine/engine.h"
#include "src/engine/instance.h"
#include "src/syntax/parser.h"
#include "src/term/universe.h"
#include "src/view/view.h"
#include "src/workload/generators.h"
#include "tests/test_support.h"

namespace seqdl {
namespace {

PreparedProgram MustCompile(Universe& u, const std::string& text) {
  Result<PreparedProgram> prog = Engine::Compile(u, MustParse(u, text));
  EXPECT_TRUE(prog.ok()) << prog.status().ToString();
  return std::move(prog).value();
}

/// What a cold fixpoint at the database's current epoch derives —
/// the reference every maintained view must match byte-for-byte.
std::string ColdRendered(Universe& u, const Database& db,
                         const PreparedProgram& prog) {
  Result<Instance> derived = db.Snapshot().Run(prog);
  EXPECT_TRUE(derived.ok()) << derived.status().ToString();
  return derived->ToString(u);
}

constexpr char kReach[] =
    "R($x, $y) <- E($x, $y).\n"
    "R($x, $z) <- R($x, $y), E($y, $z).\n";

TEST(ViewTest, ColdRunThenEpochHit) {
  Universe u;
  Result<Database> db = Database::Open(u, MustInstance(u, "E(a, b)."));
  ASSERT_TRUE(db.ok());
  PreparedProgram prog = MustCompile(u, kReach);

  auto v1 = db->views().Refresh("reach", prog);
  ASSERT_TRUE(v1.ok()) << v1.status().ToString();
  EXPECT_EQ((*v1)->epoch(), 0u);
  EXPECT_EQ((*v1)->idb().ToString(u), ColdRendered(u, *db, prog));
  EXPECT_GT((*v1)->ApproxBytes(), 0u);

  // Unchanged epoch: the stored snapshot comes back, same object.
  auto v2 = db->views().Refresh("reach", prog);
  ASSERT_TRUE(v2.ok());
  EXPECT_EQ(v1->get(), v2->get());

  ViewManager::Counters c = db->views().counters();
  EXPECT_EQ(c.cold_runs, 1u);
  EXPECT_EQ(c.hits, 1u);
  EXPECT_EQ(c.delta_refreshes, 0u);
  EXPECT_EQ(db->views().NumViews(), 1u);
}

TEST(ViewTest, DeltaRefreshMatchesColdRun) {
  Universe u;
  Result<Database> db = Database::Open(u, MustInstance(u, "E(a, b). E(b, c)."));
  ASSERT_TRUE(db.ok());
  PreparedProgram prog = MustCompile(u, kReach);
  ASSERT_TRUE(db->views().Refresh("reach", prog).ok());

  // An append moves the epoch; Refresh delta-evaluates just the new edge
  // against the stored IDB instead of re-running the fixpoint.
  ASSERT_TRUE(db->Append(MustInstance(u, "E(c, d).")).ok());
  EvalStats stats;
  auto v = db->views().Refresh("reach", prog, {}, &stats);
  ASSERT_TRUE(v.ok()) << v.status().ToString();
  EXPECT_EQ((*v)->epoch(), 1u);
  EXPECT_EQ((*v)->idb().ToString(u), ColdRendered(u, *db, prog));
  // Only the 3 tuples reaching the new node were derived; the delta pass
  // was seeded from exactly the appended fact.
  EXPECT_EQ(stats.delta_seed_facts, 1u);
  EXPECT_EQ(stats.derived_facts, 3u);
  EXPECT_EQ(stats.negated_gained_seeds, 0u);
  EXPECT_EQ(stats.negated_lost_seeds, 0u);

  ViewManager::Counters c = db->views().counters();
  EXPECT_EQ(c.cold_runs, 1u);
  EXPECT_EQ(c.delta_refreshes, 1u);
  EXPECT_EQ(c.strata_recomputed, 0u);
}

TEST(ViewTest, RefreshAcrossCompaction) {
  Universe u;
  Result<Database> db = Database::Open(u, MustInstance(u, "E(a, b)."));
  ASSERT_TRUE(db.ok());
  PreparedProgram prog = MustCompile(u, kReach);
  ASSERT_TRUE(db->views().Refresh("reach", prog).ok());

  // Compaction folds the stack under an unchanged epoch; the merged
  // segment keeps the newest folded publish stamp. A view older than
  // that stamp would see already-counted facts again as delta, so the
  // fold raises the shrink floor and the view re-materializes cold.
  ASSERT_TRUE(db->Append(MustInstance(u, "E(b, c).")).ok());
  ASSERT_TRUE(*db->Compact());
  auto v = db->views().Refresh("reach", prog);
  ASSERT_TRUE(v.ok());
  EXPECT_EQ((*v)->idb().ToString(u), ColdRendered(u, *db, prog));
  EXPECT_EQ(db->views().counters().cold_runs, 2u);

  // A view refreshed at the compacted epoch is a plain hit afterwards.
  auto again = db->views().Refresh("reach", prog);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(v->get(), again->get());
}

TEST(ViewTest, AppendPromotingDerivedFactToEdb) {
  Universe u;
  Result<Database> db = Database::Open(u, MustInstance(u, "E(a, b)."));
  ASSERT_TRUE(db.ok());
  PreparedProgram prog = MustCompile(u, kReach);
  ASSERT_TRUE(db->views().Refresh("reach", prog).ok());
  RelId r = *u.FindRel("R");

  // Appending a fact the view had *derived* promotes it to EDB. Derived
  // results exclude EDB facts (Session::Run contract), so the refreshed
  // view must drop it — exactly what a cold run at the new epoch does.
  ASSERT_TRUE(db->Append(MustInstance(u, "R(a, b).")).ok());
  auto v = db->views().Refresh("reach", prog);
  ASSERT_TRUE(v.ok());
  EXPECT_FALSE((*v)->idb().Contains(r, {u.PathOfChars("a"),
                                        u.PathOfChars("b")}));
  EXPECT_EQ((*v)->idb().ToString(u), ColdRendered(u, *db, prog));
}

TEST(ViewTest, NegatedInputGainMaintainsStrataAndCascades) {
  Universe u;
  // Stratum 1: A and A2 read through negation over EDB N. Stratum 2
  // (forced by !A2): B feeds from A *positively*.
  Result<Database> db =
      Database::Open(u, MustInstance(u, "R(a). R(b). M(b)."));
  ASSERT_TRUE(db.ok());
  PreparedProgram prog = MustCompile(u,
                                     "A($x) <- R($x), !N($x).\n"
                                     "A2($x) <- M($x), !N($x).\n"
                                     "---\n"
                                     "B($x) <- A($x), !A2($x).\n");
  ASSERT_TRUE(db->views().Refresh("ab", prog).ok());
  RelId a = *u.FindRel("A");
  RelId b = *u.FindRel("B");
  EXPECT_TRUE(db->views().Lookup("ab")->idb().Contains(
      b, {u.PathOfChars("a")}));

  // Appending into the negated input can only *retract* derived facts:
  // the gained N(a) seeds the deletion phase of A's stratum, which kills
  // the firing of A(a) that used N(a)'s absence. That loss cascades into
  // B's stratum as a *positive* shrink, which DRed deletion handles the
  // same way: B(a) is deleted by support counting. Both strata are
  // maintained in place; none is recomputed.
  ASSERT_TRUE(db->Append(MustInstance(u, "N(a).")).ok());
  EvalStats stats;
  auto v = db->views().Refresh("ab", prog, {}, &stats);
  ASSERT_TRUE(v.ok());
  EXPECT_FALSE((*v)->idb().Contains(a, {u.PathOfChars("a")}));
  EXPECT_FALSE((*v)->idb().Contains(b, {u.PathOfChars("a")}));
  EXPECT_TRUE((*v)->idb().Contains(a, {u.PathOfChars("b")}));
  EXPECT_EQ((*v)->idb().ToString(u), ColdRendered(u, *db, prog));
  EXPECT_EQ(stats.strata_delta_maintained, 2u);
  EXPECT_EQ(stats.negated_gained_seeds, 1u);
  EXPECT_EQ(stats.negated_lost_seeds, 0u);
  EXPECT_GE(stats.dred_over_deleted, 1u);
  EXPECT_EQ(db->views().counters().strata_recomputed, 0u);
}

TEST(ViewTest, SupportCountsCoverEveryViewTuple) {
  Universe u;
  // R(a,b) is derived twice at the diamond join: via b and via c.
  Result<Database> db = Database::Open(
      u, MustInstance(u, "E(a, b). E(a, c). E(b, d). E(c, d)."));
  ASSERT_TRUE(db.ok());
  PreparedProgram prog = MustCompile(u, kReach);
  auto v = db->views().Refresh("reach", prog);
  ASSERT_TRUE(v.ok());
  RelId r = *u.FindRel("R");

  const SharedSupport& support = (*v)->support();
  auto rel_it = support.find(r);
  ASSERT_NE(rel_it, support.end());
  for (TupleRef t : (*v)->idb().Tuples(r)) {
    EXPECT_GE(rel_it->second->Get(t), 1u);
  }
  // The diamond apex: two derivation events for R(a, d).
  const Tuple apex{u.PathOfChars("a"), u.PathOfChars("d")};
  EXPECT_EQ(rel_it->second->Get(apex), 2u);

  // Delta refreshes keep the invariant: counts carry forward for
  // maintained strata plus fresh derivation events.
  ASSERT_TRUE(db->Append(MustInstance(u, "E(d, e).")).ok());
  v = db->views().Refresh("reach", prog);
  ASSERT_TRUE(v.ok());
  rel_it = (*v)->support().find(r);
  ASSERT_NE(rel_it, (*v)->support().end());
  for (TupleRef t : (*v)->idb().Tuples(r)) {
    EXPECT_GE(rel_it->second->Get(t), 1u);
  }
  // The carried diamond count survives the refresh untouched.
  EXPECT_EQ(rel_it->second->Get(apex), 2u);

  // A refresh that derives nothing new for R shares the stored map
  // instead of rebuilding it (copy-on-write across snapshots).
  auto before = rel_it->second;
  ASSERT_TRUE(db->Append(MustInstance(u, "Z(q).")).ok());
  v = db->views().Refresh("reach", prog);
  ASSERT_TRUE(v.ok());
  rel_it = (*v)->support().find(r);
  ASSERT_NE(rel_it, (*v)->support().end());
  EXPECT_EQ(rel_it->second.get(), before.get());
}

/// The bytes a snapshot's tables hold: every IDB relation's rows and
/// slots, and every support table's rows, slots and counts.
size_t TableBytes(const ViewSnapshot& v) {
  size_t bytes = 0;
  for (RelId rel : v.idb().Relations()) bytes += v.idb().Tuples(rel).Bytes();
  for (const auto& [rel, counts] : v.support()) bytes += counts->Bytes();
  return bytes;
}

// The server cache's byte budget counts what a view stores: after a
// cold run, a delta refresh and a DRed refresh alike.
TEST(ViewTest, AccountedBytesAreTheTablesBytes) {
  Universe u;
  Result<Database> db =
      Database::Open(u, MustInstance(u, "E(a, b). E(b, c). E(c, d)."));
  ASSERT_TRUE(db.ok());
  PreparedProgram prog = MustCompile(u, kReach);
  auto v = db->views().Refresh("reach", prog);
  ASSERT_TRUE(v.ok());
  EXPECT_GT(TableBytes(**v), 0u);
  EXPECT_EQ((*v)->ApproxBytes(), TableBytes(**v));

  ASSERT_TRUE(db->Append(MustInstance(u, "E(d, e). E(e, f).")).ok());
  v = db->views().Refresh("reach", prog);
  ASSERT_TRUE(v.ok());
  EXPECT_EQ((*v)->ApproxBytes(), TableBytes(**v));

  ASSERT_TRUE(db->Retract(MustInstance(u, "E(b, c).")).ok());
  v = db->views().Refresh("reach", prog);
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(db->views().counters().dred_refreshes, 1u);
  EXPECT_EQ((*v)->ApproxBytes(), TableBytes(**v));
}

/// Support counts must match a cold run's exactly — an overcount keeps a
/// dead tuple alive through a later retraction.
void ExpectSameSupport(const SharedSupport& got, const SharedSupport& want) {
  ASSERT_EQ(got.size(), want.size());
  for (const auto& [rel, counts] : want) {
    auto it = got.find(rel);
    ASSERT_NE(it, got.end());
    EXPECT_EQ(*it->second, *counts);
  }
}

TEST(ViewTest, AutoFoldUnderLaggingViewKeepsSupportExact) {
  Universe u;
  Database::OpenOptions opts;
  opts.auto_compact_segments = 2;
  Result<Database> db = Database::Open(u, MustInstance(u, "R(a, x)."), opts);
  ASSERT_TRUE(db.ok());
  PreparedProgram prog = MustCompile(u, "P($k) <- R($k, $v).");
  ASSERT_TRUE(db->views().Refresh("p", prog).ok());
  ASSERT_TRUE(db->Append(MustInstance(u, "R(a, y).")).ok());
  ASSERT_TRUE(db->views().Refresh("p", prog).ok());

  // The third segment folds while the view is one epoch behind.
  ASSERT_TRUE(db->Append(MustInstance(u, "R(b, x).")).ok());
  EXPECT_EQ(db->NumSegments(), 2u);  // the newest segment stayed out
  auto v = db->views().Refresh("p", prog);
  ASSERT_TRUE(v.ok()) << v.status().ToString();
  EXPECT_EQ(db->views().counters().cold_runs, 1u);

  Result<Database> cold = Database::Open(u, db->edb());
  ASSERT_TRUE(cold.ok());
  auto want = cold->views().Refresh("p", prog);
  ASSERT_TRUE(want.ok());
  EXPECT_EQ((*v)->idb().ToString(u), (*want)->idb().ToString(u));
  ExpectSameSupport((*v)->support(), (*want)->support());
  RelId p = *u.FindRel("P");
  EXPECT_EQ((*v)->support().at(p)->Get(Tuple{u.PathOfChars("a")}), 2u);
}

// The keyed process-mining program of the durable_ingest benchmark: a
// log is good when every co in it is eventually followed by an rp.
constexpr char kKeyedCompliance[] =
    "HasRp($k, $v) <- Log($k, $u ++ co ++ $v), $v = $s ++ rp ++ $t.\n---\n"
    "Bad($k) <- Log($k, $x), $x = $u ++ co ++ $v, !HasRp($k, $v).\n---\n"
    "Good($k) <- Log($k, $x), !Bad($k).\n";

// Logs arrive and leave one at a time, each write refreshed at once, as
// durable_ingest drives the program: HasRp and Bad change by a few
// facts, which seed the negated passes of the strata above them. Every
// refresh maintains all three strata and matches a cold run, support
// counts included (the program is non-recursive, so they are exact).
TEST(ViewTest, KeyedComplianceMaintainedThroughLogChurn) {
  Universe u;
  EventLogWorkload w;
  w.count = 40;
  w.len = 8;
  w.activities = 2;
  w.seed = 7;
  Result<Instance> logs = RandomEventLogs(u, w);
  ASSERT_TRUE(logs.ok()) << logs.status().ToString();
  RelId log = *u.InternRel("Log", 2);
  std::vector<Instance> keyed;
  for (TupleRef t : logs->Tuples(*u.FindRel(w.rel))) {
    Instance one;
    one.Add(log, {u.PathOfChars(Numbered("c", keyed.size())), t[0]});
    keyed.push_back(std::move(one));
  }
  constexpr size_t kLive = 20;
  Instance initial;
  for (size_t i = 0; i < kLive; ++i) initial.UnionWith(keyed[i]);
  Result<Database> db = Database::Open(u, initial);
  ASSERT_TRUE(db.ok());
  PreparedProgram prog = MustCompile(u, kKeyedCompliance);
  ASSERT_TRUE(db->views().Refresh("mine", prog).ok());

  size_t gained = 0, lost = 0;
  auto refresh_and_check = [&](const std::string& phase) {
    EvalStats stats;
    auto v = db->views().Refresh("mine", prog, {}, &stats);
    ASSERT_TRUE(v.ok()) << phase << ": " << v.status().ToString();
    EXPECT_EQ(stats.strata_delta_maintained, 3u) << phase;
    gained += stats.negated_gained_seeds;
    lost += stats.negated_lost_seeds;
    Result<Database> cold = Database::Open(u, db->edb());
    ASSERT_TRUE(cold.ok());
    auto want = cold->views().Refresh("mine", prog);
    ASSERT_TRUE(want.ok());
    EXPECT_EQ((*v)->idb().ToString(u), (*want)->idb().ToString(u)) << phase;
    ExpectSameSupport((*v)->support(), (*want)->support());
  };
  for (size_t i = kLive; i < keyed.size(); ++i) {
    ASSERT_TRUE(db->Append(keyed[i]).ok());
    refresh_and_check("append " + std::to_string(i));
    ASSERT_TRUE(db->Retract(keyed[i - kLive]).ok());
    refresh_and_check("retract " + std::to_string(i - kLive));
  }
  EXPECT_GT(gained, 0u);
  EXPECT_GT(lost, 0u);
  ViewManager::Counters c = db->views().counters();
  EXPECT_EQ(c.cold_runs, 1u);
  EXPECT_EQ(c.strata_recomputed, 0u);
}

TEST(ViewTest, InvalidateForcesColdRun) {
  Universe u;
  Result<Database> db = Database::Open(u, MustInstance(u, "E(a, b)."));
  ASSERT_TRUE(db.ok());
  PreparedProgram prog = MustCompile(u, kReach);
  ASSERT_TRUE(db->views().Refresh("reach", prog).ok());
  EXPECT_EQ(db->views().NumViews(), 1u);

  db->views().Invalidate("reach");
  EXPECT_EQ(db->views().NumViews(), 0u);
  EXPECT_EQ(db->views().Lookup("reach"), nullptr);
  ASSERT_TRUE(db->views().Refresh("reach", prog).ok());
  EXPECT_EQ(db->views().counters().cold_runs, 2u);

  db->views().Clear();
  EXPECT_EQ(db->views().NumViews(), 0u);
}

TEST(ViewTest, ViewsSurviveDatabaseMove) {
  Universe u;
  Result<Database> db = Database::Open(u, MustInstance(u, "E(a, b)."));
  ASSERT_TRUE(db.ok());
  PreparedProgram prog = MustCompile(u, kReach);
  ASSERT_TRUE(db->views().Refresh("reach", prog).ok());

  // ViewManager lives in the heap-stable DbState: moving the Database
  // moves ownership, not the manager — the stored snapshot is still hot.
  Database moved = std::move(*db);
  auto v = moved.views().Refresh("reach", prog);
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(moved.views().counters().hits, 1u);
}

}  // namespace
}  // namespace seqdl
