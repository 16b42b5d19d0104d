// Load generator for the TCP front end (src/server/): loopback
// round-trip throughput of the wire protocol against a live server.
//
//   * BM_EpochRoundTrip       — the protocol floor: a body-less request
//     and a fixed-size reply; pure framing + dispatch + socket cost.
//   * BM_SmallQueryRoundTrip  — `run` of a tiny program over a small
//     pre-indexed EDB, steady state: after the first evaluation at an
//     epoch, identical queries are answered from the service's
//     epoch-keyed result cache (deterministic evaluation over an
//     immutable snapshot makes the rendered output a pure function of
//     program x epoch), so this measures what a production point-query
//     workload pays per round trip. The acceptance target is >= 100k
//     aggregate round-trips/s at 8 client threads.
//   * BM_SmallQueryUncached   — the same query with the cache disabled:
//     every round trip pays parse + compile + snapshot pin + fixpoint +
//     render, the cold/analytical cost.
//   * BM_RunVsInProcess       — the same query through DatabaseService
//     without sockets, to separate engine cost from wire cost.
//   * BM_AppendRoundTrip      — small ingest batches: epoch publishes
//     per second over the wire (single client; appends serialize on the
//     database's writer lock by design).
//   * BM_DeltaAppendQuery /
//     BM_FullAppendQuery      — an append followed by a re-serve of a
//     recursive query over a 128-node chain. With maintained views
//     (the default) the append delta-refreshes the materialized view
//     and the re-serve replays it; with the cache disabled every
//     re-serve pays the whole fixpoint again. The acceptance bar:
//     delta >= 5x the full re-run. Every append adds a source that
//     reaches all 128 nodes, so the answer grows by 128 facts per
//     iteration: both run a fixed 64 iterations, ending at about 16k
//     facts, so their times compare the same states.
//   * BM_CachedQueryUnderGenerativeLoad — admission control as an
//     isolation mechanism: one adversarial client hammers a generative
//     (non-terminating) program at a server running
//     --admission=budget while the other 7 threads serve cached point
//     queries. Every adversarial run fails fast at the enforced caps
//     (kResourceExhausted) instead of monopolizing a worker, so the
//     cached-query items/s should stay within the same order of
//     magnitude as BM_SmallQueryRoundTrip/threads:8 — compare the two
//     counters. With --admission=off the same workload would pin
//     workers until the 5M-fact global cap.
//
// Threaded benches share one server and open one connection per client
// thread (the client is not thread-safe; connections are cheap). The
// aggregate items/s counter is what the ISSUE acceptance reads.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <memory>
#include <string>

#include "src/engine/database.h"
#include "src/engine/instance.h"
#include "src/server/client.h"
#include "src/server/server.h"
#include "src/server/service.h"
#include "src/term/universe.h"

namespace seqdl {
namespace {

constexpr char kPointQuery[] = "S($x) <- R($x).\n";

/// A small EDB: 64 single-atom facts — representative of a point query
/// against an already-indexed store, not of a heavy analytical run.
std::string SmallEdb() {
  std::string out;
  for (int i = 0; i < 64; ++i) {
    out += "R(v" + std::to_string(i) + ").\n";
  }
  return out;
}

/// Universe + service + server with matched lifetimes for the uncached
/// bench (leaked on purpose: benchmark threads may outlive main's
/// scope).
struct TestUncachedServer {
  std::unique_ptr<Universe> u;
  std::unique_ptr<DatabaseService> service;
  std::unique_ptr<Server> server;
};

/// One shared server for every benchmark thread; per-thread clients.
struct BenchServer {
  std::unique_ptr<Universe> u;
  std::unique_ptr<DatabaseService> service;
  std::unique_ptr<Server> server;

  static BenchServer* Get() {
    static BenchServer* instance = [] {
      auto* s = new BenchServer();
      s->u = std::make_unique<Universe>();
      Result<Instance> edb = ParseInstance(*s->u, SmallEdb());
      if (!edb.ok()) std::abort();
      Result<Database> db = Database::Open(*s->u, std::move(*edb));
      if (!db.ok()) std::abort();
      s->service =
          std::make_unique<DatabaseService>(*s->u, std::move(*db));
      ServerOptions opts;
      opts.threads = 16;  // never the bottleneck for <= 8 client threads
      Result<std::unique_ptr<Server>> server =
          Server::Start(*s->service, opts);
      if (!server.ok()) std::abort();
      s->server = std::move(*server);
      // Warm the program cache: steady-state round trips measure the
      // cached-plan path, not compilation.
      Result<Client> warm = Client::Connect("127.0.0.1", s->server->port());
      if (!warm.ok() || !warm->Compile(kPointQuery).ok()) std::abort();
      return s;
    }();
    return instance;
  }
};

void BM_EpochRoundTrip(benchmark::State& state) {
  BenchServer* bs = BenchServer::Get();
  Result<Client> client = Client::Connect("127.0.0.1", bs->server->port());
  if (!client.ok()) {
    state.SkipWithError(client.status().ToString().c_str());
    return;
  }
  for (auto _ : state) {
    Result<protocol::DbInfo> info = client->Epoch();
    if (!info.ok()) {
      state.SkipWithError(info.status().ToString().c_str());
      return;
    }
    benchmark::DoNotOptimize(info);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_EpochRoundTrip)->Threads(1)->Threads(8)->UseRealTime();

void BM_SmallQueryRoundTrip(benchmark::State& state) {
  BenchServer* bs = BenchServer::Get();
  Result<Client> client = Client::Connect("127.0.0.1", bs->server->port());
  if (!client.ok()) {
    state.SkipWithError(client.status().ToString().c_str());
    return;
  }
  for (auto _ : state) {
    Result<protocol::RunReply> run = client->Run(kPointQuery);
    if (!run.ok()) {
      state.SkipWithError(run.status().ToString().c_str());
      return;
    }
    benchmark::DoNotOptimize(run->rendered);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_SmallQueryRoundTrip)
    ->Threads(1)
    ->Threads(2)
    ->Threads(4)
    ->Threads(8)
    ->UseRealTime();

void BM_SmallQueryUncached(benchmark::State& state) {
  // A private server with the result cache off: every request is a full
  // evaluation. Static so the 1- and 8-thread variants share it (the
  // fixture must outlive every benchmark thread).
  static TestUncachedServer* us = [] {
    auto* s = new TestUncachedServer();
    s->u = std::make_unique<Universe>();
    Result<Instance> edb = ParseInstance(*s->u, SmallEdb());
    if (!edb.ok()) std::abort();
    Result<Database> db = Database::Open(*s->u, std::move(*edb));
    if (!db.ok()) std::abort();
    ServiceOptions sopts;
    sopts.result_cache_entries = 0;
    s->service = std::make_unique<DatabaseService>(*s->u, std::move(*db),
                                                   std::move(sopts));
    ServerOptions opts;
    opts.threads = 16;
    Result<std::unique_ptr<Server>> server = Server::Start(*s->service, opts);
    if (!server.ok()) std::abort();
    s->server = std::move(*server);
    return s;
  }();
  Result<Client> client = Client::Connect("127.0.0.1", us->server->port());
  if (!client.ok()) {
    state.SkipWithError(client.status().ToString().c_str());
    return;
  }
  for (auto _ : state) {
    Result<protocol::RunReply> run = client->Run(kPointQuery);
    if (!run.ok()) {
      state.SkipWithError(run.status().ToString().c_str());
      return;
    }
    benchmark::DoNotOptimize(run->rendered);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_SmallQueryUncached)->Threads(1)->Threads(8)->UseRealTime();

void BM_RunVsInProcess(benchmark::State& state) {
  BenchServer* bs = BenchServer::Get();
  protocol::RunRequest req;
  req.program = kPointQuery;
  for (auto _ : state) {
    Result<protocol::RunReply> run = bs->service->Run(req);
    if (!run.ok()) {
      state.SkipWithError(run.status().ToString().c_str());
      return;
    }
    benchmark::DoNotOptimize(run->rendered);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_RunVsInProcess)->Threads(1)->Threads(8)->UseRealTime();

void BM_AppendRoundTrip(benchmark::State& state) {
  // A private server: appends mutate the epoch counter, and racing the
  // query benches would skew both.
  Universe u;
  Result<Instance> edb = ParseInstance(u, SmallEdb());
  if (!edb.ok()) {
    state.SkipWithError("edb setup failed");
    return;
  }
  Database::OpenOptions dbopts;
  dbopts.auto_compact_segments = 8;  // keep the stack shallow, LSM-style
  Result<Database> db = Database::Open(u, std::move(*edb), dbopts);
  if (!db.ok()) {
    state.SkipWithError(db.status().ToString().c_str());
    return;
  }
  DatabaseService service(u, std::move(*db));
  Result<std::unique_ptr<Server>> server = Server::Start(service, {});
  if (!server.ok()) {
    state.SkipWithError(server.status().ToString().c_str());
    return;
  }
  Result<Client> client = Client::Connect("127.0.0.1", (*server)->port());
  if (!client.ok()) {
    state.SkipWithError(client.status().ToString().c_str());
    return;
  }
  size_t next = 1000;
  for (auto _ : state) {
    // Each batch is one fresh fact: an epoch bump per round trip.
    Result<protocol::AppendReply> reply =
        client->Append("R(w" + std::to_string(next++) + ").");
    if (!reply.ok()) {
      state.SkipWithError(reply.status().ToString().c_str());
      return;
    }
    benchmark::DoNotOptimize(reply);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_AppendRoundTrip);

constexpr char kReachQuery[] =
    "R($x, $y) <- E($x, $y).\n"
    "R($x, $z) <- R($x, $y), E($y, $z).\n";

/// A 128-node chain: the reachability fixpoint derives ~n^2/2 tuples,
/// making a full re-run expensive while a single appended edge only
/// derives the fresh source's reachable set.
std::string ChainEdb() {
  std::string out;
  for (int i = 0; i + 1 < 128; ++i) {
    out += "E(v" + std::to_string(i) + ", v" + std::to_string(i + 1) +
           ").\n";
  }
  return out;
}

// One append + one re-serve per iteration. `maintained` toggles the
// service between the maintained-view cache (append delta-refreshes the
// view, the run replays it) and the uncached evaluate-every-time path.
void RunDeltaAppendServer(benchmark::State& state, bool maintained) {
  Universe u;
  Result<Instance> edb = ParseInstance(u, ChainEdb());
  if (!edb.ok()) {
    state.SkipWithError("edb setup failed");
    return;
  }
  Database::OpenOptions dbopts;
  dbopts.auto_compact_segments = 8;
  Result<Database> db = Database::Open(u, std::move(*edb), dbopts);
  if (!db.ok()) {
    state.SkipWithError(db.status().ToString().c_str());
    return;
  }
  ServiceOptions sopts;
  if (!maintained) sopts.result_cache_entries = 0;
  DatabaseService service(u, std::move(*db), std::move(sopts));
  Result<std::unique_ptr<Server>> server = Server::Start(service, {});
  if (!server.ok()) {
    state.SkipWithError(server.status().ToString().c_str());
    return;
  }
  Result<Client> client = Client::Connect("127.0.0.1", (*server)->port());
  if (!client.ok()) {
    state.SkipWithError(client.status().ToString().c_str());
    return;
  }
  // Warm-up: compile the program and materialize the view (or build the
  // indexes) before the timed loop.
  if (!client->Run(kReachQuery).ok()) {
    state.SkipWithError("warm-up run failed");
    return;
  }
  size_t next = 0;
  for (auto _ : state) {
    Result<protocol::AppendReply> append =
        client->Append("E(z" + std::to_string(next++) + ", v0).");
    if (!append.ok()) {
      state.SkipWithError(append.status().ToString().c_str());
      return;
    }
    Result<protocol::RunReply> run = client->Run(kReachQuery);
    if (!run.ok()) {
      state.SkipWithError(run.status().ToString().c_str());
      return;
    }
    benchmark::DoNotOptimize(run->rendered);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}

void BM_DeltaAppendQuery(benchmark::State& state) {
  RunDeltaAppendServer(state, /*maintained=*/true);
}
BENCHMARK(BM_DeltaAppendQuery)->Iterations(64);

constexpr char kGenerativeQuery[] =
    "G($x) <- seed($x).\nG($x ++ $x) <- G($x).\n";

void BM_CachedQueryUnderGenerativeLoad(benchmark::State& state) {
  // A private server under --admission=budget with tight caps: the
  // adversary's doubling fixpoint dies at the path-length cap within a
  // few rounds. Static so every benchmark thread shares it.
  static TestUncachedServer* gs = [] {
    auto* s = new TestUncachedServer();
    s->u = std::make_unique<Universe>();
    Result<Instance> edb = ParseInstance(*s->u, SmallEdb() + "seed(a).\n");
    if (!edb.ok()) std::abort();
    Result<Database> db = Database::Open(*s->u, std::move(*edb));
    if (!db.ok()) std::abort();
    ServiceOptions sopts;
    sopts.admission = AdmissionPolicy::kBudget;
    sopts.generative_budget.max_facts = 512;
    sopts.generative_budget.max_iterations = 64;
    sopts.generative_budget.max_path_length = 256;
    s->service = std::make_unique<DatabaseService>(*s->u, std::move(*db),
                                                   std::move(sopts));
    ServerOptions opts;
    opts.threads = 16;
    Result<std::unique_ptr<Server>> server = Server::Start(*s->service, opts);
    if (!server.ok()) std::abort();
    s->server = std::move(*server);
    Result<Client> warm = Client::Connect("127.0.0.1", s->server->port());
    if (!warm.ok() || !warm->Compile(kPointQuery).ok()) std::abort();
    return s;
  }();
  Result<Client> client = Client::Connect("127.0.0.1", gs->server->port());
  if (!client.ok()) {
    state.SkipWithError(client.status().ToString().c_str());
    return;
  }
  const bool adversary = state.threads() > 1 && state.thread_index() == 0;
  for (auto _ : state) {
    if (adversary) {
      // Must come back kResourceExhausted quickly — budget enforcement
      // is the whole point. A success here means the policy is off.
      Result<protocol::RunReply> run = client->Run(kGenerativeQuery);
      if (run.ok()) {
        state.SkipWithError("generative run unexpectedly succeeded");
        return;
      }
    } else {
      Result<protocol::RunReply> run = client->Run(kPointQuery);
      if (!run.ok()) {
        state.SkipWithError(run.status().ToString().c_str());
        return;
      }
      benchmark::DoNotOptimize(run->rendered);
    }
  }
  // Only the cached-query threads count: items/s is the throughput the
  // well-behaved clients kept while the adversary hammered the server.
  if (!adversary) {
    state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
  }
}
BENCHMARK(BM_CachedQueryUnderGenerativeLoad)->Threads(8)->UseRealTime();

void BM_FullAppendQuery(benchmark::State& state) {
  RunDeltaAppendServer(state, /*maintained=*/false);
}
BENCHMARK(BM_FullAppendQuery)->Iterations(64);

}  // namespace
}  // namespace seqdl

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  std::fprintf(stderr,
               "-- items_per_second on BM_SmallQueryRoundTrip/threads:8 is "
               "the aggregate round-trips/s acceptance number\n");
  return 0;
}
