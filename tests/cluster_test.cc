// The cluster subsystem: partitioner routing (hash stability, affinity,
// broadcast, balance), shard-list parsing, the SD2xx shard-locality
// analysis, and a coordinator scatter-gathering over real loopback shard
// servers — transparent and residual evaluation, append/retract routing,
// the epoch-vector result cache, structured failure on killed/hung/
// mismatched shards, and the wire front end (a coordinator looks like a
// server to clients).
//
// DifferentialTest.ClusterScatterGatherMatchesSingleNode is the byte-
// level acceptance check: for random programs of both locality classes,
// coordinator output must equal a single-node run over the same total
// EDB across append/retract epochs and per-shard compaction. Iteration
// count wired to SEQDL_DIFFTEST_ITERS like the other differentials.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstdint>
#include <cstdlib>
#include <map>
#include <memory>
#include <random>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "src/analysis/diagnostics.h"
#include "src/analysis/locality.h"
#include "src/cluster/coordinator.h"
#include "src/cluster/partitioner.h"
#include "src/engine/database.h"
#include "src/engine/instance.h"
#include "src/server/client.h"
#include "src/server/protocol.h"
#include "src/server/server.h"
#include "src/server/service.h"
#include "src/syntax/parser.h"
#include "src/term/universe.h"

namespace seqdl {
namespace {

// --- Partitioner --------------------------------------------------------------

TEST(PartitionerTest, HashKeyIsStableAcrossRunsAndPlatforms) {
  // Golden FNV-1a 64 values: the routing hash decides where every fact
  // *persistently* lives, so any drift (a seed, a different prime, a
  // platform-dependent char signedness bug) silently reshuffles the
  // cluster. These values are the published FNV-1a constants — computed
  // independently, not with this implementation.
  EXPECT_EQ(Partitioner::HashKey(""), 14695981039346656037ULL);
  EXPECT_EQ(Partitioner::HashKey("a"), 12638187200555641996ULL);
  EXPECT_EQ(Partitioner::HashKey("b"), 12638190499090526629ULL);
  EXPECT_EQ(Partitioner::HashKey("n0"), 626981145683744371ULL);
  EXPECT_EQ(Partitioner::HashKey("needle"), 7377580679817058ULL);
}

TEST(PartitionerTest, RoutingIsKeyedByFirstValueAcrossRelations) {
  Universe u;
  Result<Instance> in = ParseInstance(
      u, "E(a, b). E(a, c). E(b, a). F(a, x). F(b, y). G(a).");
  ASSERT_TRUE(in.ok()) << in.status().ToString();
  Partitioner p(4);

  // All facts keyed `a` co-locate — across relations and regardless of
  // trailing columns. That cross-relation agreement is what makes a join
  // keyed on the partition column shard-local.
  std::map<std::string, std::set<uint32_t>> shards_by_key;
  for (RelId rel : in->Relations()) {
    for (const Tuple& t : in->Tuples(rel)) {
      ASSERT_FALSE(t.empty());
      shards_by_key[u.FormatPath(t[0])].insert(p.ShardOf(u, rel, t));
    }
  }
  ASSERT_EQ(shards_by_key.count("a"), 1u);
  EXPECT_EQ(shards_by_key["a"].size(), 1u);
  EXPECT_EQ(shards_by_key["b"].size(), 1u);

  // A second partitioner with the same shard count routes identically.
  Partitioner q(4);
  for (RelId rel : in->Relations()) {
    for (const Tuple& t : in->Tuples(rel)) {
      EXPECT_EQ(p.ShardOf(u, rel, t), q.ShardOf(u, rel, t));
    }
  }
}

TEST(PartitionerTest, PinnedRelationRoutesToItsShard) {
  Universe u;
  Result<Instance> in =
      ParseInstance(u, "dim(a, x). dim(b, y). dim(c, z). E(a, b).");
  ASSERT_TRUE(in.ok());

  PartitionerOptions opts;
  opts.pinned["dim"] = 2;
  Partitioner p(4, opts);
  Result<RelId> dim = u.FindRel("dim");
  ASSERT_TRUE(dim.ok());
  for (const Tuple& t : in->Tuples(*dim)) {
    EXPECT_EQ(p.ShardOf(u, *dim, t), 2u);
  }

  // Pin indices wrap modulo the shard count.
  PartitionerOptions wrap;
  wrap.pinned["dim"] = 7;
  Partitioner w(4, wrap);
  for (const Tuple& t : in->Tuples(*dim)) {
    EXPECT_EQ(w.ShardOf(u, *dim, t), 3u);
  }
}

TEST(PartitionerTest, BroadcastReplicatesIntoEveryPartition) {
  Universe u;
  Result<Instance> in =
      ParseInstance(u, "dim(a). dim(b). E(a, b). E(b, c). E(c, d).");
  ASSERT_TRUE(in.ok());
  PartitionerOptions opts;
  opts.broadcast.insert("dim");
  Partitioner p(3, opts);

  Result<RelId> dim = u.FindRel("dim");
  ASSERT_TRUE(dim.ok());
  EXPECT_TRUE(p.IsBroadcast(u, *dim));
  // ShardOf reports the primary copy (0) so appends are counted once.
  for (const Tuple& t : in->Tuples(*dim)) {
    EXPECT_EQ(p.ShardOf(u, *dim, t), 0u);
  }

  std::vector<Instance> parts = p.Split(u, *in);
  ASSERT_EQ(parts.size(), 3u);
  Result<RelId> e = u.FindRel("E");
  ASSERT_TRUE(e.ok());
  size_t partitioned_total = 0;
  for (const Instance& part : parts) {
    // Every partition carries the full broadcast relation.
    EXPECT_EQ(part.Tuples(*dim).size(), in->Tuples(*dim).size());
    partitioned_total += part.Tuples(*e).size();
  }
  // Partitioned facts land in exactly one part each.
  EXPECT_EQ(partitioned_total, in->Tuples(*e).size());
}

TEST(PartitionerTest, SplitPreservesEveryFact) {
  Universe u;
  std::string text;
  for (int i = 0; i < 50; ++i) {
    text += "E(k" + std::to_string(i) + ", v" + std::to_string(i % 7) + ").\n";
    if (i % 3 == 0) text += "F(k" + std::to_string(i) + ").\n";
  }
  Result<Instance> in = ParseInstance(u, text);
  ASSERT_TRUE(in.ok());

  Partitioner p(4);
  std::vector<Instance> parts = p.Split(u, *in);
  Instance merged;
  size_t total = 0;
  for (Instance& part : parts) {
    total += part.NumFacts();
    merged.UnionWith(std::move(part));
  }
  // Disjoint (no double placement) and lossless.
  EXPECT_EQ(total, in->NumFacts());
  EXPECT_EQ(merged.ToString(u), in->ToString(u));
}

TEST(PartitionerTest, SkewedKeysStaySpread) {
  // 400 distinct keys all in one relation (maximal relation skew): the
  // value hash must still spread them — every shard gets at least 10%
  // of an even share... generously, at least 40 of the expected 100.
  Universe u;
  std::string text;
  for (int i = 0; i < 400; ++i) {
    text += "K(s" + std::to_string(i) + ").\n";
  }
  Result<Instance> in = ParseInstance(u, text);
  ASSERT_TRUE(in.ok());
  Partitioner p(4);
  std::vector<Instance> parts = p.Split(u, *in);
  for (size_t i = 0; i < parts.size(); ++i) {
    EXPECT_GE(parts[i].NumFacts(), 40u) << "shard " << i;
    EXPECT_LE(parts[i].NumFacts(), 200u) << "shard " << i;
  }
}

// --- Shard-list parsing -------------------------------------------------------

TEST(ClusterTest, ParseShardListAcceptsHostPortPairs) {
  Result<std::vector<ShardAddress>> shards =
      ParseShardList("127.0.0.1:4001,localhost:65535");
  ASSERT_TRUE(shards.ok()) << shards.status().ToString();
  ASSERT_EQ(shards->size(), 2u);
  EXPECT_EQ((*shards)[0].host, "127.0.0.1");
  EXPECT_EQ((*shards)[0].port, 4001u);
  EXPECT_EQ((*shards)[0].ToString(), "127.0.0.1:4001");
  EXPECT_EQ((*shards)[1].host, "localhost");
  EXPECT_EQ((*shards)[1].port, 65535u);
}

TEST(ClusterTest, ParseShardListRejectsMalformedSpecs) {
  for (const char* bad : {"", "127.0.0.1", "host:", "host:0", "host:70000",
                          "host:12ab", "host:4001,"}) {
    Result<std::vector<ShardAddress>> shards = ParseShardList(bad);
    EXPECT_FALSE(shards.ok()) << "accepted '" << bad << "'";
    if (!shards.ok()) {
      EXPECT_EQ(shards.status().code(), StatusCode::kInvalidArgument) << bad;
    }
  }
}

// --- Shard-locality analysis --------------------------------------------------

Program MustParse(Universe& u, const std::string& text) {
  Result<Program> p = ParseProgram(u, text);
  EXPECT_TRUE(p.ok()) << p.status().ToString();
  return p.ok() ? std::move(*p) : Program{};
}

TEST(LocalityTest, KeyedJoinIsTransparent) {
  Universe u;
  Program p = MustParse(u,
                        "S($x) <- E($x, $y).\n"
                        "T($x, $y) <- E($x, $y), F($x, $y).\n");
  DiagnosticList diags;
  LocalityReport report = AnalyzeLocality(u, p, {}, &diags);
  EXPECT_EQ(report.cls, LocalityClass::kTransparent);
  EXPECT_EQ(report.violations, 0u);
  EXPECT_TRUE(diags.HasCode("SD200"));
  // Heads keep the partition key in the first argument, so the derived
  // relations stay co-partitioned too.
  Result<RelId> s = u.FindRel("S");
  Result<RelId> t = u.FindRel("T");
  ASSERT_TRUE(s.ok() && t.ok());
  EXPECT_EQ(report.co_partitioned.count(*s), 1u);
  EXPECT_EQ(report.co_partitioned.count(*t), 1u);
}

TEST(LocalityTest, UnkeyedJoinIsResidual) {
  Universe u;
  Program p = MustParse(u, "J($x, $z) <- E($x, $y), F($y, $z).\n");
  DiagnosticList diags;
  LocalityReport report = AnalyzeLocality(u, p, {}, &diags);
  EXPECT_EQ(report.cls, LocalityClass::kResidual);
  EXPECT_EQ(report.violations, 1u);
  EXPECT_TRUE(diags.HasCode("SD201"));
  EXPECT_FALSE(diags.HasCode("SD200"));
}

TEST(LocalityTest, BroadcastRelationMakesTheJoinLocal) {
  Universe u;
  Program p = MustParse(u, "J($x, $z) <- E($x, $y), D($y, $z).\n");
  Result<RelId> d = u.FindRel("D");
  ASSERT_TRUE(d.ok());
  LocalityOptions opts;
  opts.broadcast.insert(*d);
  DiagnosticList diags;
  LocalityReport report = AnalyzeLocality(u, p, opts, &diags);
  EXPECT_EQ(report.cls, LocalityClass::kTransparent);
  EXPECT_TRUE(diags.HasCode("SD200"));
  // Broadcast relations are replicated, never co-partitioned.
  EXPECT_EQ(report.co_partitioned.count(*d), 0u);
}

TEST(LocalityTest, UnanchoredNegationIsResidual) {
  Universe u;
  Program p = MustParse(u, "S($x) <- B($x), !E($x).\n");
  Result<RelId> b = u.FindRel("B");
  ASSERT_TRUE(b.ok());
  LocalityOptions opts;
  opts.broadcast.insert(*b);  // the only positive literal is replicated
  DiagnosticList diags;
  LocalityReport report = AnalyzeLocality(u, p, opts, &diags);
  EXPECT_EQ(report.cls, LocalityClass::kResidual);
  EXPECT_TRUE(diags.HasCode("SD202"));
}

TEST(LocalityTest, CoPartitionedNegationIsTransparent) {
  // H inherits the partition key ($x flows head-first-arg to head-first-
  // arg), so a shard's local "no H($x)" is the global answer for the
  // keys it owns.
  Universe u;
  Program p = MustParse(u,
                        "H($x) <- E($x, $y).\n"
                        "---\n"
                        "N($x) <- F($x, $y), !H($x).\n");
  DiagnosticList diags;
  LocalityReport report = AnalyzeLocality(u, p, {}, &diags);
  EXPECT_EQ(report.cls, LocalityClass::kTransparent);
  EXPECT_TRUE(diags.HasCode("SD200"));
}

TEST(LocalityTest, DerivedRelationLosingTheKeyIsResidual) {
  // H($y) <- E($x, $y) drops the partition key: H's facts live wherever
  // their *E* key hashed, so joining H on $x is not shard-local.
  Universe u;
  Program join = MustParse(u,
                           "H($y) <- E($x, $y).\n"
                           "J($x) <- F($x, $y), H($x).\n");
  DiagnosticList jdiags;
  LocalityReport jreport = AnalyzeLocality(u, join, {}, &jdiags);
  EXPECT_EQ(jreport.cls, LocalityClass::kResidual);
  EXPECT_TRUE(jdiags.HasCode("SD203"));
  Result<RelId> h = u.FindRel("H");
  ASSERT_TRUE(h.ok());
  EXPECT_EQ(jreport.co_partitioned.count(*h), 0u);

  // The same shape under negation reports SD202 (it is the negation
  // that is unsound locally).
  Universe u2;
  Program neg = MustParse(u2,
                          "H($y) <- E($x, $y).\n"
                          "---\n"
                          "N($x) <- F($x, $y), !H($x).\n");
  DiagnosticList ndiags;
  LocalityReport nreport = AnalyzeLocality(u2, neg, {}, &ndiags);
  EXPECT_EQ(nreport.cls, LocalityClass::kResidual);
  EXPECT_TRUE(ndiags.HasCode("SD202"));
}

// --- Live loopback clusters ---------------------------------------------------

/// Universe + Database + DatabaseService + Server with matched
/// lifetimes — one shard of a test cluster.
struct TestShard {
  std::unique_ptr<Universe> u;
  std::unique_ptr<DatabaseService> service;
  std::unique_ptr<Server> server;

  static TestShard Start(const std::string& edb_text = "",
                         ServiceOptions sopts = {}, ServerOptions opts = {}) {
    TestShard t;
    t.u = std::make_unique<Universe>();
    Result<Instance> edb = ParseInstance(*t.u, edb_text);
    EXPECT_TRUE(edb.ok()) << edb.status().ToString();
    Result<Database> db = Database::Open(*t.u, std::move(*edb));
    EXPECT_TRUE(db.ok()) << db.status().ToString();
    t.service = std::make_unique<DatabaseService>(*t.u, std::move(*db),
                                                  std::move(sopts));
    Result<std::unique_ptr<Server>> server = Server::Start(*t.service, opts);
    EXPECT_TRUE(server.ok()) << server.status().ToString();
    t.server = std::move(*server);
    return t;
  }

  uint16_t port() const { return server->port(); }
};

/// N empty loopback shards behind one Coordinator. Declared shards-first
/// so the coordinator (and its client connections) tears down before the
/// servers do.
struct TestCluster {
  std::vector<TestShard> shards;
  std::unique_ptr<Universe> u;
  std::unique_ptr<Coordinator> coord;

  static TestCluster Start(size_t n, CoordinatorOptions copts = {},
                           ServiceOptions sopts = {}) {
    TestCluster t;
    std::vector<ShardAddress> addrs;
    for (size_t i = 0; i < n; ++i) {
      ServerOptions opts;
      opts.threads = 2;
      t.shards.push_back(TestShard::Start("", sopts, opts));
      addrs.push_back({"127.0.0.1", t.shards.back().port()});
    }
    t.u = std::make_unique<Universe>();
    t.coord = std::make_unique<Coordinator>(*t.u, std::move(addrs), copts);
    return t;
  }

  Result<protocol::AppendReply> Append(const std::string& facts) {
    protocol::AppendRequest req;
    req.facts = facts;
    return coord->Append(req);
  }

  Result<protocol::RunReply> Run(const std::string& program,
                                 const std::string& output_rel = "") {
    protocol::RunRequest req;
    req.program = program;
    req.output_rel = output_rel;
    return coord->Run(req);
  }
};

/// The reference: the same program over the same total EDB on one node,
/// through the same DatabaseService rendering path a server uses.
std::string SingleNodeRendered(const std::string& edb_text,
                               const std::string& program,
                               const std::string& output_rel = "") {
  Universe u;
  Result<Instance> edb = ParseInstance(u, edb_text);
  EXPECT_TRUE(edb.ok()) << edb.status().ToString();
  Result<Database> db = Database::Open(u, std::move(*edb));
  EXPECT_TRUE(db.ok()) << db.status().ToString();
  ServiceOptions sopts;
  sopts.result_cache_entries = 0;
  DatabaseService service(u, std::move(*db), sopts);
  protocol::RunRequest req;
  req.program = program;
  req.output_rel = output_rel;
  Result<protocol::RunReply> r = service.Run(req);
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  return r.ok() ? r->rendered : std::string();
}

constexpr char kKeyedJoin[] = "T($x) <- E($x, $y), F($x, $z).\n";
constexpr char kReachProgram[] =
    "R($x, $y) <- E($x, $y).\n"
    "R($x, $z) <- R($x, $y), E($y, $z).\n";

TEST(ClusterTest, TransparentJoinMatchesSingleNode) {
  // Keys a..d spread over 3 shards; the join keys on the partition
  // column, so every shard answers its slice and the union is exact.
  const std::string edb =
      "E(a, b). E(b, c). E(c, d). F(a, x). F(b, y). F(d, z).";
  TestCluster t = TestCluster::Start(3);
  Result<protocol::AppendReply> appended = t.Append(edb);
  ASSERT_TRUE(appended.ok()) << appended.status().ToString();
  EXPECT_EQ(appended->appended, 6u);

  Result<protocol::RunReply> run = t.Run(kKeyedJoin);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  EXPECT_FALSE(run->result_cached);
  EXPECT_EQ(run->rendered, SingleNodeRendered(edb, kKeyedJoin));

  // The facts really are spread: no single shard holds the whole EDB.
  uint64_t max_shard_facts = 0;
  for (TestShard& shard : t.shards) {
    max_shard_facts = std::max(max_shard_facts, shard.service->Info().facts);
  }
  EXPECT_LT(max_shard_facts, 6u);
}

TEST(ClusterTest, ResidualReachabilityMatchesSingleNode) {
  // A chain crossing shard boundaries: the per-shard union would miss
  // every multi-hop path, so this is exact only because the coordinator
  // gathers and finishes the evaluation itself.
  std::string edb;
  for (int i = 0; i < 7; ++i) {
    edb += "E(n" + std::to_string(i) + ", n" + std::to_string(i + 1) + ").\n";
  }
  TestCluster t = TestCluster::Start(2);
  ASSERT_TRUE(t.Append(edb).ok());

  Result<protocol::RunReply> run = t.Run(kReachProgram);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  EXPECT_EQ(run->rendered, SingleNodeRendered(edb, kReachProgram));
  // 7 edges -> 28 reachable pairs; a per-shard union would have found
  // far fewer. Projection goes through the same residual path.
  Result<protocol::RunReply> projected = t.Run(kReachProgram, "R");
  ASSERT_TRUE(projected.ok());
  EXPECT_EQ(projected->rendered, SingleNodeRendered(edb, kReachProgram, "R"));

  // Unknown output relation: the same structured error a server gives.
  Result<protocol::RunReply> bad = t.Run(kReachProgram, "Nope");
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kNotFound);
}

TEST(ClusterTest, QuotedAtomsRouteAndMergeLikeASingleNode) {
  // Routed batches and shard answers travel as renderings, so atoms that
  // are no bare identifier must come back as the same facts: an unquoted
  // "x,y" would parse as two arguments, "p q" not at all.
  const std::string edb =
      "F(a, \"x,y\"). F(b, \"p q\"). F(c, \"\"). F(\"p q\", <\"a·b\">).\n"
      "F(\"x,y\", \"not\"). F(\"\", eps). F(é, 日本). F(\"<a>\", \"eps\"·é).\n"
      "E(a, \"p q\"). E(\"p q\", \"x,y\"). E(\"x,y\", \"\"). E(\"\", é).\n"
      "E(é, \"<a>\").\n";
  TestCluster t = TestCluster::Start(2);
  Result<protocol::AppendReply> appended = t.Append(edb);
  ASSERT_TRUE(appended.ok()) << appended.status().ToString();
  EXPECT_EQ(appended->appended, 13u);
  // Both shards got a share.
  for (TestShard& shard : t.shards) {
    EXPECT_GT(shard.service->Info().facts, 0u);
  }

  const std::string copy = "C($x, $y) <- F($x, $y).\n";
  Result<protocol::RunReply> run = t.Run(copy);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  EXPECT_EQ(run->rendered, SingleNodeRendered(edb, copy));
  EXPECT_NE(run->rendered.find("C(a, \"x,y\")."), std::string::npos);

  run = t.Run(kKeyedJoin);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  EXPECT_EQ(run->rendered, SingleNodeRendered(edb, kKeyedJoin));

  run = t.Run(kReachProgram, "R");
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  EXPECT_EQ(run->rendered, SingleNodeRendered(edb, kReachProgram, "R"));
  EXPECT_NE(run->rendered.find("R(a, é)."), std::string::npos);

  // Relation names quote by the same rule: a routed batch, a shard's
  // answer and the residual path's dump program all carry them.
  const std::string quoted_edb =
      "\"my rel\"(a, \"p q\"). \"my rel\"(\"p q\", b). \"my rel\"(b, c).\n"
      "\"not\"(b).\n";
  appended = t.Append(quoted_edb);
  ASSERT_TRUE(appended.ok()) << appended.status().ToString();
  EXPECT_EQ(appended->appended, 4u);
  const std::string all = edb + quoted_edb;
  const std::string quoted_copy = "\"out rel\"($x) <- \"my rel\"($x, $y).\n";
  run = t.Run(quoted_copy);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  EXPECT_EQ(run->rendered, SingleNodeRendered(all, quoted_copy));
  EXPECT_NE(run->rendered.find("\"out rel\"(\"p q\")."), std::string::npos);
  const std::string quoted_reach =
      "\"my reach\"($x, $y) <- \"my rel\"($x, $y).\n"
      "\"my reach\"($x, $z) <- \"my reach\"($x, $y), \"my rel\"($y, $z).\n"
      "---\n"
      "\"x,y\"($x) <- \"my reach\"(a, $x), !\"not\"($x).\n";
  run = t.Run(quoted_reach);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  EXPECT_EQ(run->rendered, SingleNodeRendered(all, quoted_reach));
  EXPECT_NE(run->rendered.find("\"my reach\"(a, c)."), std::string::npos);
  EXPECT_NE(run->rendered.find("\"x,y\"(c)."), std::string::npos);
  // The residual path gathered "my rel" through a quoted alias.
  for (TestShard& shard : t.shards) {
    Result<RelId> alias = shard.u->FindRel("__gather_my rel");
    ASSERT_TRUE(alias.ok()) << alias.status().ToString();
    EXPECT_EQ(shard.u->RelText(*alias), "\"__gather_my rel\"");
  }
}

TEST(ClusterTest, BroadcastJoinMatchesSingleNode) {
  const std::string edb =
      "E(a, b). E(b, c). E(c, d). D(b, u). D(c, v). D(d, w).";
  const std::string program = "J($x, $z) <- E($x, $y), D($y, $z).\n";
  CoordinatorOptions copts;
  copts.partition.broadcast.insert("D");
  TestCluster t = TestCluster::Start(2, copts);

  Result<protocol::AppendReply> appended = t.Append(edb);
  ASSERT_TRUE(appended.ok()) << appended.status().ToString();
  // Broadcast facts are counted once even though every shard stores
  // them.
  EXPECT_EQ(appended->appended, 6u);
  uint64_t stored = 0;
  for (TestShard& shard : t.shards) stored += shard.service->Info().facts;
  EXPECT_GT(stored, 6u);

  Result<protocol::RunReply> run = t.Run(program);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  EXPECT_EQ(run->rendered, SingleNodeRendered(edb, program));
}

TEST(ClusterTest, RetractionsRouteAndRecount) {
  const std::string edb = "E(a, b). E(b, c). E(c, d). E(d, e).";
  TestCluster t = TestCluster::Start(2);
  ASSERT_TRUE(t.Append(edb).ok());

  protocol::RetractRequest req;
  req.facts = "E(b, c). E(d, e). E(zz, zz).";  // last one was never there
  Result<protocol::RetractReply> retracted = t.coord->Retract(req);
  ASSERT_TRUE(retracted.ok()) << retracted.status().ToString();
  EXPECT_EQ(retracted->retracted, 2u);

  Result<protocol::RunReply> run = t.Run(kReachProgram);
  ASSERT_TRUE(run.ok());
  EXPECT_EQ(run->rendered,
            SingleNodeRendered("E(a, b). E(c, d).", kReachProgram));

  Result<protocol::DbInfo> info = t.coord->Info();
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info->facts, 2u);
}

TEST(ClusterTest, ResultCacheServesUnchangedEpochVector) {
  CoordinatorOptions copts;
  copts.result_cache_entries = 8;
  TestCluster t = TestCluster::Start(2, copts);
  ASSERT_TRUE(t.Append("E(a, b). E(b, c). F(a, x).").ok());

  Result<protocol::RunReply> first = t.Run(kKeyedJoin);
  ASSERT_TRUE(first.ok());
  EXPECT_FALSE(first->result_cached);
  Result<protocol::RunReply> second = t.Run(kKeyedJoin);
  ASSERT_TRUE(second.ok());
  EXPECT_TRUE(second->result_cached);
  EXPECT_EQ(second->rendered, first->rendered);

  // An append through the coordinator moves a shard epoch: miss, then
  // hit again at the new epoch vector.
  ASSERT_TRUE(t.Append("F(b, y).").ok());
  Result<protocol::RunReply> third = t.Run(kKeyedJoin);
  ASSERT_TRUE(third.ok());
  EXPECT_FALSE(third->result_cached);
  EXPECT_NE(third->rendered, first->rendered);

  // Per-shard compaction folds segments without changing epochs or
  // facts: cached results stay valid.
  Result<protocol::CompactReply> compacted = t.coord->Compact();
  ASSERT_TRUE(compacted.ok());
  Result<protocol::RunReply> fourth = t.Run(kKeyedJoin);
  ASSERT_TRUE(fourth.ok());
  EXPECT_TRUE(fourth->result_cached);
  EXPECT_EQ(fourth->rendered, third->rendered);
}

TEST(ClusterTest, PinnedRelationForcesResidualEvaluation) {
  // Pinning E to shard 0 breaks hash co-location, so even the keyed-join
  // shape must be evaluated residually — and still exactly.
  CoordinatorOptions copts;
  copts.partition.pinned["E"] = 0;
  TestCluster t = TestCluster::Start(2, copts);
  const std::string edb = "E(a, b). E(b, c). F(a, x). F(b, y).";
  ASSERT_TRUE(t.Append(edb).ok());
  // All E facts landed on shard 0 regardless of key.
  Result<RelId> e = t.shards[1].u->FindRel("E");
  EXPECT_FALSE(e.ok() && !t.shards[1].service->db().edb().Tuples(*e).empty());

  Result<protocol::RunReply> run = t.Run(kKeyedJoin);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  EXPECT_EQ(run->rendered, SingleNodeRendered(edb, kKeyedJoin));
}

TEST(ClusterTest, KilledShardYieldsStructuredErrorNamingTheShard) {
  CoordinatorOptions copts;
  copts.connect_timeout_ms = 2000;
  copts.io_timeout_ms = 2000;
  // The coordinator result cache legitimately answers a repeated program
  // without shard traffic while the epoch vector is unchanged — which
  // would mask the kill. Off, so the second Run must hit the shards.
  copts.result_cache_entries = 0;
  TestCluster t = TestCluster::Start(2, copts);
  ASSERT_TRUE(t.Append("E(a, b). E(b, c).").ok());
  ASSERT_TRUE(t.Run(kReachProgram).ok());

  const uint16_t killed_port = t.shards[1].port();
  t.shards[1].server->Shutdown();

  // Not a hang, not a wrong answer: a structured error naming the shard.
  Result<protocol::RunReply> run = t.Run(kReachProgram);
  ASSERT_FALSE(run.ok());
  EXPECT_TRUE(run.status().code() == StatusCode::kUnavailable ||
              run.status().code() == StatusCode::kDeadlineExceeded)
      << run.status().ToString();
  EXPECT_NE(run.status().message().find(
                "shard 127.0.0.1:" + std::to_string(killed_port)),
            std::string::npos)
      << run.status().ToString();

  // Still structured on the reconnect attempt.
  Result<protocol::DbInfo> info = t.coord->Info();
  ASSERT_FALSE(info.ok());
  EXPECT_EQ(info.status().code(), StatusCode::kUnavailable)
      << info.status().ToString();
}

TEST(ClusterTest, RestartedShardHealsThroughLazyReconnect) {
  CoordinatorOptions copts;
  copts.connect_timeout_ms = 2000;
  copts.io_timeout_ms = 2000;
  copts.result_cache_entries = 0;  // force shard traffic on every Run
  TestCluster t = TestCluster::Start(1, copts);
  ASSERT_TRUE(t.Append("E(a, b). E(b, c).").ok());
  Result<protocol::RunReply> before = t.Run(kReachProgram);
  ASSERT_TRUE(before.ok());

  const uint16_t port = t.shards[0].port();
  t.shards[0].server->Shutdown();
  ASSERT_FALSE(t.Run(kReachProgram).ok());

  // Restart a shard on the same port with the same partition; the next
  // coordinator request reconnects without any intervention.
  ServerOptions opts;
  opts.port = port;
  opts.threads = 2;
  t.shards[0] = TestShard::Start("E(a, b). E(b, c).", {}, opts);
  ASSERT_EQ(t.shards[0].port(), port);
  Result<protocol::RunReply> after = t.Run(kReachProgram);
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  EXPECT_EQ(after->rendered, before->rendered);
}

TEST(ClusterTest, CompileBroadcastsAndReportsLocality) {
  TestCluster t = TestCluster::Start(2);
  protocol::CompileRequest req;
  req.program = kKeyedJoin;
  Result<protocol::CompileReply> compiled = t.coord->Compile(req);
  ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
  bool has_sd200 = false;
  for (const protocol::WireDiagnostic& d : compiled->diagnostics) {
    has_sd200 = has_sd200 || d.code == "SD200";
  }
  EXPECT_TRUE(has_sd200);
  // Every shard's program cache was warmed.
  for (TestShard& shard : t.shards) {
    EXPECT_EQ(shard.service->NumCachedPrograms(), 1u);
  }

  req.program = kReachProgram;
  compiled = t.coord->Compile(req);
  ASSERT_TRUE(compiled.ok());
  bool has_sd201 = false;
  for (const protocol::WireDiagnostic& d : compiled->diagnostics) {
    has_sd201 = has_sd201 || d.code == "SD201";
  }
  EXPECT_TRUE(has_sd201);
}

// --- The wire front end -------------------------------------------------------

TEST(ClusterTest, CoordinatorLooksLikeAServerOnTheWire) {
  TestCluster t = TestCluster::Start(2);
  BackendHandler<Coordinator> handler(*t.coord, /*forward_shutdown=*/true);
  ServerOptions fopts;
  fopts.threads = 2;
  Result<std::unique_ptr<Server>> front = Server::Start(handler, fopts);
  ASSERT_TRUE(front.ok()) << front.status().ToString();

  Result<Client> client = Client::Connect("127.0.0.1", (*front)->port());
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  Result<protocol::HelloReply> hello = client->Hello();
  ASSERT_TRUE(hello.ok()) << hello.status().ToString();
  EXPECT_EQ(hello->wire_version, protocol::kWireVersion);

  const std::string edb = "E(a, b). E(b, c). E(c, d).";
  Result<protocol::AppendReply> appended = client->Append(edb);
  ASSERT_TRUE(appended.ok()) << appended.status().ToString();
  EXPECT_EQ(appended->appended, 3u);

  Result<protocol::RunReply> run = client->Run(kReachProgram);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  EXPECT_EQ(run->rendered, SingleNodeRendered(edb, kReachProgram));

  Result<protocol::StatsReply> stats = client->Stats();
  ASSERT_TRUE(stats.ok());
  EXPECT_NE(stats->rendered.find("-- shard 127.0.0.1:"), std::string::npos);

  // One client `shutdown` takes the whole cluster down: the coordinator
  // forwards it to every shard, then drains its own front end.
  ASSERT_TRUE(client->Shutdown().ok());
  (*front)->Wait();
  for (TestShard& shard : t.shards) {
    shard.server->Wait();
    EXPECT_TRUE(shard.server->ShuttingDown());
  }
}

TEST(ClusterTest, ShutdownWithoutForwardingLeavesShardsServing) {
  TestCluster t = TestCluster::Start(2);
  BackendHandler<Coordinator> handler(*t.coord, /*forward_shutdown=*/false);
  Result<std::unique_ptr<Server>> front = Server::Start(handler);
  ASSERT_TRUE(front.ok()) << front.status().ToString();
  Result<Client> client = Client::Connect("127.0.0.1", (*front)->port());
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  ASSERT_TRUE(client->Shutdown().ok());
  (*front)->Wait();
  for (TestShard& shard : t.shards) {
    EXPECT_FALSE(shard.server->ShuttingDown());
  }
  EXPECT_TRUE(t.coord->Info().ok());
}

// --- Misbehaving shards at the byte level -------------------------------------

/// A fake shard: accepts one connection and either replies to the first
/// frame with a wrong-version kHello reply or swallows bytes forever.
struct FakeShard {
  enum class Mode { kWrongVersion, kNeverReplies };

  int listen_fd = -1;
  uint16_t port = 0;
  std::thread thread;

  static FakeShard Start(Mode mode) {
    FakeShard f;
    f.listen_fd = ::socket(AF_INET, SOCK_STREAM, 0);
    EXPECT_GE(f.listen_fd, 0);
    int one = 1;
    ::setsockopt(f.listen_fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = 0;
    EXPECT_EQ(::bind(f.listen_fd, reinterpret_cast<sockaddr*>(&addr),
                     sizeof(addr)),
              0);
    EXPECT_EQ(::listen(f.listen_fd, 4), 0);
    socklen_t len = sizeof(addr);
    EXPECT_EQ(::getsockname(f.listen_fd, reinterpret_cast<sockaddr*>(&addr),
                            &len),
              0);
    f.port = ntohs(addr.sin_port);
    f.thread = std::thread([fd = f.listen_fd, mode] {
      int c = ::accept(fd, nullptr, nullptr);
      if (c < 0) return;
      char buf[4096];
      ssize_t n = ::recv(c, buf, sizeof(buf), 0);
      if (mode == Mode::kWrongVersion && n > 0) {
        protocol::HelloReply hello;
        hello.wire_version = 99;
        std::string frame = protocol::EncodeHelloReply(hello);
        (void)::send(c, frame.data(), frame.size(), 0);
      }
      // Swallow everything until the client hangs up (never reply
      // again).
      while (::recv(c, buf, sizeof(buf), 0) > 0) {
      }
      ::close(c);
    });
    return f;
  }

  FakeShard() = default;
  FakeShard(FakeShard&&) = default;
  ~FakeShard() {
    if (listen_fd >= 0) {
      ::shutdown(listen_fd, SHUT_RDWR);  // wakes a blocked accept
      ::close(listen_fd);
    }
    if (thread.joinable()) thread.join();
  }
};

TEST(ClusterTest, MismatchedShardWireVersionIsStructured) {
  FakeShard fake = FakeShard::Start(FakeShard::Mode::kWrongVersion);
  Universe u;
  CoordinatorOptions copts;
  copts.connect_timeout_ms = 2000;
  copts.io_timeout_ms = 2000;
  Coordinator coord(u, {{"127.0.0.1", fake.port}}, copts);
  Result<protocol::DbInfo> info = coord.Info();
  ASSERT_FALSE(info.ok());
  EXPECT_EQ(info.status().code(), StatusCode::kFailedPrecondition)
      << info.status().ToString();
  EXPECT_NE(info.status().message().find("shard 127.0.0.1:" +
                                         std::to_string(fake.port)),
            std::string::npos)
      << info.status().ToString();
  EXPECT_NE(info.status().message().find("wire version mismatch"),
            std::string::npos)
      << info.status().ToString();
}

TEST(ClusterTest, HungShardSurfacesDeadlineExceeded) {
  FakeShard fake = FakeShard::Start(FakeShard::Mode::kNeverReplies);

  // Straight through the client: the deadline fires instead of blocking.
  ClientOptions copts;
  copts.connect_timeout_ms = 1000;
  copts.io_timeout_ms = 200;
  Result<Client> client = Client::Connect("127.0.0.1", fake.port, copts);
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  Result<protocol::DbInfo> epoch = client->Epoch();
  ASSERT_FALSE(epoch.ok());
  EXPECT_EQ(epoch.status().code(), StatusCode::kDeadlineExceeded)
      << epoch.status().ToString();
  client->Close();

  // Through a coordinator: same code, now naming the shard.
  FakeShard fake2 = FakeShard::Start(FakeShard::Mode::kNeverReplies);
  Universe u;
  CoordinatorOptions opts;
  opts.connect_timeout_ms = 1000;
  opts.io_timeout_ms = 200;
  Coordinator coord(u, {{"127.0.0.1", fake2.port}}, opts);
  Result<protocol::DbInfo> info = coord.Info();
  ASSERT_FALSE(info.ok());
  EXPECT_EQ(info.status().code(), StatusCode::kDeadlineExceeded)
      << info.status().ToString();
  EXPECT_NE(info.status().message().find("shard 127.0.0.1:" +
                                         std::to_string(fake2.port)),
            std::string::npos)
      << info.status().ToString();
}

// --- The cluster differential -------------------------------------------------

size_t Iterations() {
  const char* env = std::getenv("SEQDL_DIFFTEST_ITERS");
  if (env != nullptr) {
    long v = std::strtol(env, nullptr, 10);
    if (v > 0) return static_cast<size_t>(v);
  }
  // Each seed stands up a whole loopback cluster, so the default is
  // smaller than the in-process differentials'; CI's nightly difftest
  // raises it through the environment.
  return 60;
}

struct ClusterCase {
  std::string program;
  std::string output_rel;
  bool residual = false;  ///< template class, for coverage accounting
  PartitionerOptions partition;
  std::vector<std::string> facts;   ///< initial EDB, one fact per entry
  std::vector<std::string> append;  ///< second-epoch batch
};

/// Random cases cycling through program templates of both locality
/// classes (including broadcast joins and a pinned relation forcing
/// residual evaluation), with random EDBs over a small atom pool so
/// shard overlap and cross-shard joins actually happen.
ClusterCase MakeClusterCase(uint64_t seed) {
  std::mt19937 rng(static_cast<uint32_t>(seed * 2654435761ULL + 17));
  static const char* kAtoms[] = {"a", "b", "c", "d", "e", "x", "y", "z"};
  auto atom = [&rng] { return std::string(kAtoms[rng() % 8]); };
  auto add_facts = [&](std::vector<std::string>* out, const char* rel,
                       size_t lo, size_t hi) {
    size_t n = lo + rng() % (hi - lo + 1);
    for (size_t i = 0; i < n; ++i) {
      out->push_back(std::string(rel) + "(" + atom() + ", " + atom() + ").\n");
    }
  };

  ClusterCase c;
  bool wants_d = false;
  switch (seed % 9) {
    case 0:
      c.program = "S($x, $y) <- E($x, $y).\n";
      c.output_rel = "S";
      break;
    case 1:
      c.program = "T($x) <- E($x, $y), F($x, $z).\n";
      c.output_rel = "T";
      break;
    case 2:
      c.program =
          "S($x) <- E($x, $y).\n"
          "T($x, $y) <- E($x, $y), F($x, $y).\n";
      c.output_rel = "T";
      break;
    case 3:
      c.program = "J($x, $z) <- E($x, $y), D($y, $z).\n";
      c.output_rel = "J";
      c.partition.broadcast.insert("D");
      wants_d = true;
      break;
    case 4:
      c.program =
          "H($x) <- E($x, $y).\n"
          "---\n"
          "N($x) <- F($x, $y), !H($x).\n";
      c.output_rel = "N";
      break;
    case 5:
      c.program =
          "R($x, $y) <- E($x, $y).\n"
          "R($x, $z) <- R($x, $y), E($y, $z).\n";
      c.output_rel = "R";
      c.residual = true;
      break;
    case 6:
      c.program = "J($x, $z) <- E($x, $y), F($y, $z).\n";
      c.output_rel = "J";
      c.residual = true;
      break;
    case 7:
      c.program =
          "H($y) <- E($x, $y).\n"
          "---\n"
          "N($x) <- F($x, $y), !H($x).\n";
      c.output_rel = "N";
      c.residual = true;
      break;
    default:
      // A transparent shape made residual by pinning: co-location is
      // broken on purpose, correctness must survive.
      c.program = "T($x) <- E($x, $y), F($x, $z).\n";
      c.output_rel = "T";
      c.partition.pinned["E"] = 0;
      c.residual = true;
      break;
  }
  // Two of three runs ask for all derived facts; one projects.
  if (rng() % 3 != 0) c.output_rel.clear();

  add_facts(&c.facts, "E", 6, 14);
  add_facts(&c.facts, "F", 4, 10);
  if (wants_d) add_facts(&c.facts, "D", 2, 5);
  add_facts(&c.append, "E", 2, 6);
  add_facts(&c.append, "F", 1, 4);
  return c;
}

std::string Join(const std::vector<std::string>& lines) {
  std::string out;
  for (const std::string& l : lines) out += l;
  return out;
}

// The acceptance differential: coordinator scatter-gather output must be
// byte-identical to a single-node run over the same total EDB — for both
// locality classes, across an append epoch, a retraction epoch, and
// per-shard compaction. All caches are off (coordinator and shards), so
// every comparison is a real evaluation.
TEST(DifferentialTest, ClusterScatterGatherMatchesSingleNode) {
  size_t iterations = Iterations();
  size_t transparent_seeds = 0, residual_seeds = 0;
  for (uint64_t seed = 1; seed <= iterations; ++seed) {
    ClusterCase c = MakeClusterCase(seed);
    SCOPED_TRACE("seed " + std::to_string(seed) + "\n" + c.program +
                 Join(c.facts));
    (c.residual ? residual_seeds : transparent_seeds)++;

    // The single-node reference: one service over the whole EDB.
    Universe ref_u;
    Result<Instance> ref_edb = ParseInstance(ref_u, Join(c.facts));
    ASSERT_TRUE(ref_edb.ok()) << ref_edb.status().ToString();
    Result<Database> ref_db = Database::Open(ref_u, std::move(*ref_edb));
    ASSERT_TRUE(ref_db.ok()) << ref_db.status().ToString();
    ServiceOptions ref_sopts;
    ref_sopts.result_cache_entries = 0;
    DatabaseService ref(ref_u, std::move(*ref_db), ref_sopts);

    // The cluster under test: 2 or 3 empty shards, seeded through the
    // coordinator's routing.
    CoordinatorOptions copts;
    copts.result_cache_entries = 0;
    copts.partition = c.partition;
    ServiceOptions shard_sopts;
    shard_sopts.result_cache_entries = 0;
    TestCluster cluster =
        TestCluster::Start(2 + seed % 2, copts, shard_sopts);
    Result<protocol::AppendReply> seeded = cluster.Append(Join(c.facts));
    ASSERT_TRUE(seeded.ok()) << seeded.status().ToString();

    auto check = [&](const char* phase) {
      protocol::RunRequest req;
      req.program = c.program;
      req.output_rel = c.output_rel;
      Result<protocol::RunReply> want = ref.Run(req);
      ASSERT_TRUE(want.ok()) << phase << ": " << want.status().ToString();
      Result<protocol::RunReply> got = cluster.coord->Run(req);
      ASSERT_TRUE(got.ok()) << phase << ": " << got.status().ToString();
      EXPECT_EQ(want->rendered, got->rendered) << phase;
    };
    check("epoch 0 (seeded)");

    // Append epoch: both sides ingest the same batch (and must count it
    // identically — the routed split plus the primary broadcast copy).
    protocol::AppendRequest append;
    append.facts = Join(c.append);
    Result<protocol::AppendReply> ref_appended = ref.Append(append);
    ASSERT_TRUE(ref_appended.ok());
    Result<protocol::AppendReply> got_appended = cluster.Append(append.facts);
    ASSERT_TRUE(got_appended.ok()) << got_appended.status().ToString();
    EXPECT_EQ(got_appended->appended, ref_appended->appended);
    check("epoch 1 (append)");

    // Retraction epoch: a random third of everything ever appended
    // (victim choice drawn from a schedule RNG separate from the case
    // generator's, so it cannot perturb what the seed denotes).
    std::mt19937 sched(static_cast<uint32_t>(seed * 7919 + 13));
    std::vector<std::string> victims;
    for (const std::vector<std::string>* batch : {&c.facts, &c.append}) {
      for (const std::string& fact : *batch) {
        if (sched() % 3 == 0) victims.push_back(fact);
      }
    }
    if (!victims.empty()) {
      protocol::RetractRequest retract;
      retract.facts = Join(victims);
      Result<protocol::RetractReply> ref_r = ref.Retract(retract);
      ASSERT_TRUE(ref_r.ok());
      Result<protocol::RetractReply> got_r = cluster.coord->Retract(retract);
      ASSERT_TRUE(got_r.ok()) << got_r.status().ToString();
      EXPECT_EQ(got_r->retracted, ref_r->retracted);
      check("epoch 2 (retract)");
    }

    // Per-shard compaction folds every shard's segment stack (tombstones
    // included); same facts, same answers.
    ASSERT_TRUE(ref.Compact().ok());
    Result<protocol::CompactReply> compacted = cluster.coord->Compact();
    ASSERT_TRUE(compacted.ok()) << compacted.status().ToString();
    check("post-compaction");
  }
  if (iterations >= 9) {
    // The template cycle guarantees both evaluation paths ran.
    EXPECT_GT(transparent_seeds, 0u);
    EXPECT_GT(residual_seeds, 0u);
  }
}

}  // namespace
}  // namespace seqdl
