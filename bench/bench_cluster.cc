// Scatter-gather throughput of the cluster coordinator (src/cluster/)
// over 1 / 2 / 4 loopback shards, same total EDB at every size.
//
//   * BM_TransparentJoin/N  — a keyed two-way join, classified
//     distribution-transparent by the locality pass: every shard
//     evaluates the unmodified program over its partition in parallel
//     and the coordinator unions the rendered answers. This is the
//     shape that should scale: the join work is split N ways while the
//     coordinator only pays merge + render. Acceptance: items/s at
//     /4 >= 2x items/s at /1.
//   * BM_ResidualReach/N    — transitive closure, classified residual:
//     the coordinator gathers the program's EDB relations from every
//     shard and runs the fixpoint itself. Shards contribute only
//     storage, so this does NOT scale with N — it is the documented
//     cost of the always-correct fallback, and the contrast against
//     BM_TransparentJoin is the point of measuring it.
//   * BM_SingleNodeJoin     — the same join against one DatabaseService
//     over a direct client connection (no coordinator): what the /1
//     cluster number gives up to the extra hop.
//   * BM_ShardSliceJoin     — the same join sent directly to one shard
//     of the 4-shard cluster: the per-shard work slice. The ratio
//     BM_SingleNodeJoin / BM_ShardSliceJoin is how evenly the
//     partitioner divided the join, independent of host core count.
//   * BM_ScatterInfo/N      — a body-less scatter round trip: the
//     coordination floor (thread spawn + N wire round trips + merge).
//
// Every cache is off — coordinator result cache, shard result caches,
// maintained views — so each iteration pays a full evaluation; that is
// the quantity that can scale with shard count. Run with
// --benchmark_format=json for machine-readable output (the `--json`
// mode referenced by docs/cluster.md).
//
// Reading the acceptance number (transparent join at 4 shards >= 2x the
// 1-shard throughput): the loopback shards share the host, so the
// wall-clock BM_TransparentJoin/4 only beats /1 when the host has >= 4
// cores to run the four shard evaluations concurrently. On a 1-core CI
// runner the scatter serializes and /4 degenerates to the sum of the
// slices; there, read BM_SingleNodeJoin vs BM_ShardSliceJoin instead —
// the work-per-shard division that multi-core hosts turn into
// wall-clock speedup.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "src/cluster/coordinator.h"
#include "src/engine/database.h"
#include "src/engine/instance.h"
#include "src/server/client.h"
#include "src/server/server.h"
#include "src/server/service.h"
#include "src/term/universe.h"

namespace seqdl {
namespace {

constexpr char kKeyedJoin[] = "T($x) <- E($x, $y), F($x, $z).\n";
constexpr char kReach[] =
    "R($x, $y) <- E($x, $y).\n"
    "R($x, $z) <- R($x, $y), E($y, $z).\n";

/// Join workload: 256 keys, 6 E-facts and 6 F-facts per key. The join
/// touches 36 pairs per key before dedup to T($x), so evaluation cost is
/// proportional to the number of keys a node holds — exactly the axis
/// sharding divides.
std::string JoinEdb() {
  std::string out;
  for (int k = 0; k < 256; ++k) {
    std::string key = "k";
    key += std::to_string(k);
    for (int i = 0; i < 6; ++i) {
      out += "E(" + key + ", a" + std::to_string(i) + ").\n";
      out += "F(" + key + ", b" + std::to_string(i) + ").\n";
    }
  }
  return out;
}

/// Reach workload: a 96-node chain; the closure is ~4.6k tuples. Edge
/// facts scatter across shards, so every rule application crosses shard
/// boundaries and the program is residual.
std::string ChainEdb() {
  std::string out;
  for (int i = 0; i + 1 < 96; ++i) {
    out += "E(n" + std::to_string(i) + ", n" + std::to_string(i + 1) +
           ").\n";
  }
  return out;
}

struct Shard {
  std::unique_ptr<Universe> u;
  std::unique_ptr<DatabaseService> service;
  std::unique_ptr<Server> server;
};

/// N loopback shards + a coordinator, EDB routed through the
/// coordinator's partitioner. Leaked on purpose: fixtures are shared
/// across benchmark repetitions.
struct BenchCluster {
  std::vector<std::unique_ptr<Shard>> shards;
  std::unique_ptr<Universe> u;
  std::unique_ptr<Coordinator> coord;

  static BenchCluster* Make(size_t n, const std::string& edb) {
    auto* c = new BenchCluster();
    std::vector<ShardAddress> addrs;
    for (size_t i = 0; i < n; ++i) {
      auto shard = std::make_unique<Shard>();
      shard->u = std::make_unique<Universe>();
      Result<Database> db = Database::Open(*shard->u, Instance());
      if (!db.ok()) std::abort();
      ServiceOptions sopts;
      sopts.result_cache_entries = 0;  // full evaluation per request
      shard->service = std::make_unique<DatabaseService>(
          *shard->u, std::move(*db), std::move(sopts));
      ServerOptions opts;
      opts.threads = 2;
      Result<std::unique_ptr<Server>> server =
          Server::Start(*shard->service, opts);
      if (!server.ok()) std::abort();
      shard->server = std::move(*server);
      addrs.push_back({"127.0.0.1", shard->server->port()});
      c->shards.push_back(std::move(shard));
    }
    c->u = std::make_unique<Universe>();
    CoordinatorOptions copts;
    copts.result_cache_entries = 0;  // measure scatter-gather, not cache
    c->coord = std::make_unique<Coordinator>(*c->u, std::move(addrs),
                                             std::move(copts));
    protocol::AppendRequest req;
    req.facts = edb;
    Result<protocol::AppendReply> seeded = c->coord->Append(req);
    if (!seeded.ok()) std::abort();
    return c;
  }
};

BenchCluster* JoinCluster(size_t n) {
  static BenchCluster* c1 = BenchCluster::Make(1, JoinEdb());
  static BenchCluster* c2 = BenchCluster::Make(2, JoinEdb());
  static BenchCluster* c4 = BenchCluster::Make(4, JoinEdb());
  return n == 1 ? c1 : n == 2 ? c2 : c4;
}

BenchCluster* ReachCluster(size_t n) {
  static BenchCluster* c1 = BenchCluster::Make(1, ChainEdb());
  static BenchCluster* c2 = BenchCluster::Make(2, ChainEdb());
  static BenchCluster* c4 = BenchCluster::Make(4, ChainEdb());
  return n == 1 ? c1 : n == 2 ? c2 : c4;
}

void RunCoordinator(benchmark::State& state, BenchCluster* c,
                    const char* program) {
  protocol::RunRequest req;
  req.program = program;
  for (auto _ : state) {
    Result<protocol::RunReply> run = c->coord->Run(req);
    if (!run.ok()) {
      state.SkipWithError(run.status().ToString().c_str());
      return;
    }
    benchmark::DoNotOptimize(run->rendered);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}

void BM_TransparentJoin(benchmark::State& state) {
  RunCoordinator(state, JoinCluster(static_cast<size_t>(state.range(0))),
                 kKeyedJoin);
}
BENCHMARK(BM_TransparentJoin)->Arg(1)->Arg(2)->Arg(4)->UseRealTime();

void BM_ResidualReach(benchmark::State& state) {
  RunCoordinator(state, ReachCluster(static_cast<size_t>(state.range(0))),
                 kReach);
}
BENCHMARK(BM_ResidualReach)->Arg(1)->Arg(2)->Arg(4)->UseRealTime();

void BM_ScatterInfo(benchmark::State& state) {
  BenchCluster* c = JoinCluster(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    Result<protocol::DbInfo> info = c->coord->Info();
    if (!info.ok()) {
      state.SkipWithError(info.status().ToString().c_str());
      return;
    }
    benchmark::DoNotOptimize(info);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_ScatterInfo)->Arg(1)->Arg(2)->Arg(4)->UseRealTime();

void BM_ShardSliceJoin(benchmark::State& state) {
  BenchCluster* c = JoinCluster(4);
  Result<Client> client =
      Client::Connect("127.0.0.1", c->shards[0]->server->port());
  if (!client.ok()) {
    state.SkipWithError(client.status().ToString().c_str());
    return;
  }
  for (auto _ : state) {
    Result<protocol::RunReply> run = client->Run(kKeyedJoin);
    if (!run.ok()) {
      state.SkipWithError(run.status().ToString().c_str());
      return;
    }
    benchmark::DoNotOptimize(run->rendered);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_ShardSliceJoin)->UseRealTime();

void BM_SingleNodeJoin(benchmark::State& state) {
  static Shard* s = [] {
    auto* shard = new Shard();
    shard->u = std::make_unique<Universe>();
    Result<Instance> edb = ParseInstance(*shard->u, JoinEdb());
    if (!edb.ok()) std::abort();
    Result<Database> db = Database::Open(*shard->u, std::move(*edb));
    if (!db.ok()) std::abort();
    ServiceOptions sopts;
    sopts.result_cache_entries = 0;
    shard->service = std::make_unique<DatabaseService>(
        *shard->u, std::move(*db), std::move(sopts));
    Result<std::unique_ptr<Server>> server =
        Server::Start(*shard->service, {});
    if (!server.ok()) std::abort();
    shard->server = std::move(*server);
    return shard;
  }();
  Result<Client> client = Client::Connect("127.0.0.1", s->server->port());
  if (!client.ok()) {
    state.SkipWithError(client.status().ToString().c_str());
    return;
  }
  for (auto _ : state) {
    Result<protocol::RunReply> run = client->Run(kKeyedJoin);
    if (!run.ok()) {
      state.SkipWithError(run.status().ToString().c_str());
      return;
    }
    benchmark::DoNotOptimize(run->rendered);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_SingleNodeJoin)->UseRealTime();

}  // namespace
}  // namespace seqdl

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  std::fprintf(stderr,
               "-- acceptance: BM_TransparentJoin/4 items_per_second >= 2x "
               "BM_TransparentJoin/1 (hosts with >= 4 cores); on fewer "
               "cores read BM_SingleNodeJoin vs BM_ShardSliceJoin\n");
  return 0;
}
