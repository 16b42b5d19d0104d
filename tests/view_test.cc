// Tests for the materialized-view subsystem (view/view.h): cold
// materialization, epoch hits, semi-naive delta refresh after appends,
// EDB promotion of derived facts, negation-forced stratum recomputation
// with downstream retraction cascades, support counting, and
// invalidation. The cross-cutting guarantee — a maintained view is
// byte-identical to a cold fixpoint at every epoch, over random programs
// and append schedules — lives in tests/differential_test.cc.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <utility>

#include "src/engine/database.h"
#include "src/engine/engine.h"
#include "src/engine/instance.h"
#include "src/syntax/parser.h"
#include "src/term/universe.h"
#include "src/view/view.h"
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
  EXPECT_EQ(stats.strata_recomputed, 0u);

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

TEST(ViewTest, NegationForcesStratumRecomputeAndCascade) {
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

  // Appending into the negated input can only *retract* derived facts —
  // the one case delta evaluation cannot patch. The stratum of A
  // recomputes and A(a) disappears. That loss cascades into B's stratum
  // as a *positive* shrink, which DRed deletion handles in place: B's
  // negated input A2 did not change, so the stratum stays maintained and
  // B(a) is deleted by support counting, not by a recompute.
  ASSERT_TRUE(db->Append(MustInstance(u, "N(a).")).ok());
  EvalStats stats;
  auto v = db->views().Refresh("ab", prog, {}, &stats);
  ASSERT_TRUE(v.ok());
  EXPECT_FALSE((*v)->idb().Contains(a, {u.PathOfChars("a")}));
  EXPECT_FALSE((*v)->idb().Contains(b, {u.PathOfChars("a")}));
  EXPECT_TRUE((*v)->idb().Contains(a, {u.PathOfChars("b")}));
  EXPECT_EQ((*v)->idb().ToString(u), ColdRendered(u, *db, prog));
  EXPECT_EQ(stats.strata_recomputed, 1u);
  EXPECT_EQ(stats.strata_delta_maintained, 1u);
  EXPECT_GE(stats.dred_over_deleted, 1u);
  EXPECT_EQ(db->views().counters().strata_recomputed, 1u);
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
