// Retraction maintenance: a reachability view kept current through
// tombstone epochs by counting DRed (delete/re-derive) versus re-running
// the full fixpoint after every retraction, and a stratified-negation
// view (keyed process mining) kept current through log churn. Prints a
// comparison table per workload (with a byte-identity check against the
// cold run — the differential harness's invariant, verified here on the
// bench workloads too), then benchmarks one maintenance cycle of each.
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <vector>

#include "src/engine/database.h"
#include "src/engine/engine.h"
#include "src/engine/instance.h"
#include "src/syntax/parser.h"
#include "src/term/universe.h"
#include "src/view/view.h"
#include "src/workload/generators.h"

namespace seqdl {
namespace {

// Transitive closure over edges encoded as length-2 paths (the graph
// workload's encoding, same as the corpus reach_ab query).
constexpr const char* kReach =
    "T(@x ++ @y) <- E(@x ++ @y).\n"
    "T(@x ++ @z) <- T(@x ++ @y), E(@y ++ @z).\n";

struct RetractWorkload {
  Result<Program> program;
  Instance base;
  /// Rotating victim batches: round r retracts victims[r % size] and
  /// re-appends it afterwards, so the database cycles through identical
  /// states and every round does the same amount of work.
  std::vector<Instance> victims;

  /// `nodes` nodes partitioned into disjoint 32-node chains. Retracting
  /// an edge severs one chain's closure and nothing else — the regime
  /// incremental maintenance is for: DRed's deletion cascade and
  /// re-derivation stay local to one component while the full fixpoint
  /// rebuilds every component from scratch. (A single well-connected
  /// graph is DRed's worst case instead: one retraction invalidates a
  /// constant fraction of the closure, and over-delete + rescue can
  /// cost more than the fixpoint it replaces.)
  RetractWorkload(Universe& u, size_t nodes, size_t batches)
      : program(ParseProgram(u, kReach)) {
    if (!program.ok()) return;
    constexpr size_t kChainLen = 32;
    RelId e = *u.FindRel("E");
    auto edge = [&](size_t from, size_t to) {
      std::string from_name = "n";
      from_name += std::to_string(from);
      std::string to_name = "n";
      to_name += std::to_string(to);
      std::vector<Value> path = {Value::Atom(u.InternAtom(from_name)),
                                 Value::Atom(u.InternAtom(to_name))};
      return Tuple{u.InternPath(path)};
    };
    size_t chains = nodes / kChainLen;
    victims.assign(batches, Instance{});
    for (size_t c = 0; c < chains; ++c) {
      for (size_t i = 0; i + 1 < kChainLen; ++i) {
        size_t from = c * kChainLen + i;
        Tuple t = edge(from, from + 1);
        // Each batch severs one chain at its midpoint; rotating the
        // chain across batches keeps successive rounds independent.
        if (i == kChainLen / 2 && c < batches) {
          victims[c].Add(e, t);
        }
        base.Add(e, std::move(t));
      }
    }
  }
};

void PrintRetractMaintenance() {
  std::printf("=== Retraction: DRed refresh vs full recompute ===\n");
  std::printf("%-8s %-9s %-12s %-12s %-10s %s\n", "nodes", "retracts",
              "full(ms)", "dred(ms)", "speedup", "identical");
  for (size_t nodes : {2048u, 4096u}) {
    constexpr size_t kRounds = 8;
    Universe u;
    RetractWorkload w(u, nodes, kRounds);
    if (!w.program.ok() || w.victims.empty()) std::abort();
    Result<PreparedProgram> prog = Engine::Compile(u, *w.program);
    if (!prog.ok()) std::abort();

    // Two databases fed the identical retract/re-append stream: one
    // maintains a view through the tombstone epochs, the other re-runs
    // the fixpoint at each one.
    Result<Database> incr = Database::Open(u, w.base);
    Result<Database> full = Database::Open(u, w.base);
    if (!incr.ok() || !full.ok()) std::abort();
    if (!incr->views().Refresh("bench", *prog).ok()) std::abort();
    if (!full->Snapshot().Run(*prog).ok()) std::abort();  // index build

    double dred_ms = 0, full_ms = 0;
    bool identical = true;
    for (size_t r = 0; r < kRounds; ++r) {
      const Instance& batch = w.victims[r % w.victims.size()];
      if (!incr->Retract(batch).ok() || !full->Retract(batch).ok()) {
        std::abort();
      }

      auto t0 = std::chrono::steady_clock::now();
      auto view = incr->views().Refresh("bench", *prog);
      auto t1 = std::chrono::steady_clock::now();
      Result<Instance> rerun = full->Snapshot().Run(*prog);
      auto t2 = std::chrono::steady_clock::now();
      if (!view.ok() || !rerun.ok()) std::abort();

      dred_ms += std::chrono::duration<double, std::milli>(t1 - t0).count();
      full_ms += std::chrono::duration<double, std::milli>(t2 - t1).count();
      identical &= (*view)->idb().ToString(u) == rerun->ToString(u);

      // Restore the pre-retraction state (untimed) and fold the
      // tombstones so the stacks stay comparable across rounds.
      if (!incr->Append(batch).ok() || !full->Append(batch).ok()) {
        std::abort();
      }
      if (!incr->views().Refresh("bench", *prog).ok()) std::abort();
      incr->Compact();
      full->Compact();
      if (incr->NumTombstones() != 0) std::abort();
    }
    char speedup[32];
    std::snprintf(speedup, sizeof(speedup), "%.1fx", full_ms / dred_ms);
    std::printf("%-8zu %-9zu %-12.3f %-12.3f %-10s %s\n", nodes, kRounds,
                full_ms, dred_ms, speedup,
                identical ? "yes" : "NO — MISMATCH");
  }
  std::printf("\n");
}

// One iteration = one full retract/re-append maintenance cycle: publish
// the tombstone epoch, bring the result current (DRed refresh or full
// rerun), flip the batch back, bring it current again, compact. Both
// variants perform identical writes; only the maintenance path differs.
void RunRetractCycle(benchmark::State& state, bool maintained) {
  size_t nodes = static_cast<size_t>(state.range(0));
  Universe u;
  RetractWorkload w(u, nodes, /*batches=*/8);
  if (!w.program.ok() || w.victims.empty()) {
    state.SkipWithError("workload setup failed");
    return;
  }
  Result<PreparedProgram> prog = Engine::Compile(u, *w.program);
  if (!prog.ok()) {
    state.SkipWithError(prog.status().ToString().c_str());
    return;
  }
  Result<Database> db = Database::Open(u, w.base);
  if (!db.ok()) {
    state.SkipWithError(db.status().ToString().c_str());
    return;
  }
  if (maintained) {
    if (!db->views().Refresh("bench", *prog).ok()) {
      state.SkipWithError("cold materialization failed");
      return;
    }
  } else {
    if (!db->Snapshot().Run(*prog).ok()) {
      state.SkipWithError("initial run failed");
      return;
    }
  }

  size_t round = 0;
  auto serve = [&]() -> bool {
    if (maintained) return db->views().Refresh("bench", *prog).ok();
    return db->Snapshot().Run(*prog).ok();
  };
  for (auto _ : state) {
    const Instance& batch = w.victims[round++ % w.victims.size()];
    bool ok = db->Retract(batch).ok() && serve() &&
              db->Append(batch).ok() && serve();
    db->Compact();
    if (!ok) {
      state.SkipWithError("maintenance cycle failed");
      return;
    }
  }
}

void BM_RetractDRedRefresh(benchmark::State& state) {
  RunRetractCycle(state, /*maintained=*/true);
}
BENCHMARK(BM_RetractDRedRefresh)->Arg(256)->Arg(1024);

void BM_RetractFullRecompute(benchmark::State& state) {
  RunRetractCycle(state, /*maintained=*/false);
}
BENCHMARK(BM_RetractFullRecompute)->Arg(256)->Arg(1024);

// Keyed process mining, as the durable_ingest benchmark serves it: a log
// is good when every co in it is eventually followed by an rp. Bad
// negates HasRp and Good negates Bad, so a log's arrival or departure
// changes a negated input of two strata.
constexpr const char* kKeyedCompliance =
    "HasRp($k, $v) <- Log($k, $u ++ co ++ $v), $v = $s ++ rp ++ $t.\n---\n"
    "Bad($k) <- Log($k, $x), $x = $u ++ co ++ $v, !HasRp($k, $v).\n---\n"
    "Good($k) <- Log($k, $x), !Bad($k).\n";

struct NegationWorkload {
  Result<Program> program;
  /// The standing logs, one Log(key, events) fact each.
  Instance base;
  /// Logs that come and go: cycle r appends churn[r % size] and then
  /// retracts it, so every cycle starts from the same facts.
  std::vector<Instance> churn;

  NegationWorkload(Universe& u, size_t logs, size_t churned)
      : program(ParseProgram(u, kKeyedCompliance)) {
    if (!program.ok()) return;
    EventLogWorkload w;
    w.count = logs + churned;
    w.rel = "Trace";
    Result<Instance> traces = RandomEventLogs(u, w);
    if (!traces.ok()) return;
    RelId log = *u.FindRel("Log");
    size_t n = 0;
    for (TupleRef t : traces->Tuples(*u.FindRel("Trace"))) {
      char key[16];
      std::snprintf(key, sizeof(key), "c%07zu", n);
      Tuple fact = {u.InternPath(std::vector<Value>{
                        Value::Atom(u.InternAtom(key))}),
                    t[0]};
      if (n++ < logs) {
        base.Add(log, fact);
      } else {
        churn.emplace_back().Add(log, fact);
      }
    }
  }
};

void PrintNegationMaintenance() {
  std::printf("=== Negation: keyed compliance view refresh vs cold run ===\n");
  std::printf("%-8s %-9s %-12s %-12s %-10s %s\n", "logs", "writes",
              "cold(ms)", "refresh(ms)", "speedup", "identical");
  constexpr size_t kLogs = 200, kCycles = 16;
  Universe u;
  NegationWorkload w(u, kLogs, kCycles);
  if (!w.program.ok() || w.churn.size() != kCycles) std::abort();
  Result<PreparedProgram> prog = Engine::Compile(u, *w.program);
  if (!prog.ok()) std::abort();
  Result<Database> db = Database::Open(u, w.base);
  if (!db.ok() || !db->views().Refresh("bench", *prog).ok()) std::abort();

  double refresh_ms = 0, cold_ms = 0;
  bool identical = true;
  auto refresh_and_compare = [&] {
    auto t0 = std::chrono::steady_clock::now();
    auto view = db->views().Refresh("bench", *prog);
    auto t1 = std::chrono::steady_clock::now();
    Result<Instance> cold = db->Snapshot().Run(*prog);
    auto t2 = std::chrono::steady_clock::now();
    if (!view.ok() || !cold.ok()) std::abort();
    refresh_ms += std::chrono::duration<double, std::milli>(t1 - t0).count();
    cold_ms += std::chrono::duration<double, std::milli>(t2 - t1).count();
    identical &= (*view)->idb().ToString(u) == cold->ToString(u);
  };
  for (const Instance& log : w.churn) {
    if (!db->Append(log).ok()) std::abort();
    refresh_and_compare();
    if (!db->Retract(log).ok()) std::abort();
    refresh_and_compare();
  }
  char speedup[32];
  std::snprintf(speedup, sizeof(speedup), "%.1fx", cold_ms / refresh_ms);
  std::printf("%-8zu %-9zu %-12.3f %-12.3f %-10s %s\n", kLogs, 2 * kCycles,
              cold_ms, refresh_ms, speedup,
              identical ? "yes" : "NO — MISMATCH");
  std::printf("\n");
}

// One iteration = one log's arrival and departure: append it and
// refresh the view, then retract it and refresh again. The fold that
// keeps the segment stack short runs untimed.
void BM_NegationViewRefresh(benchmark::State& state) {
  Universe u;
  NegationWorkload w(u, static_cast<size_t>(state.range(0)), /*churned=*/8);
  if (!w.program.ok() || w.churn.empty()) {
    state.SkipWithError("workload setup failed");
    return;
  }
  Result<PreparedProgram> prog = Engine::Compile(u, *w.program);
  if (!prog.ok()) {
    state.SkipWithError(prog.status().ToString().c_str());
    return;
  }
  Result<Database> db = Database::Open(u, w.base);
  if (!db.ok() || !db->views().Refresh("bench", *prog).ok()) {
    state.SkipWithError("cold materialization failed");
    return;
  }
  size_t cycle = 0;
  for (auto _ : state) {
    const Instance& log = w.churn[cycle++ % w.churn.size()];
    bool ok = db->Append(log).ok();
    auto arrived = db->views().Refresh("bench", *prog);
    ok = ok && arrived.ok() && db->Retract(log).ok();
    auto left = db->views().Refresh("bench", *prog);
    benchmark::DoNotOptimize(arrived);
    benchmark::DoNotOptimize(left);
    if (!ok || !left.ok()) {
      state.SkipWithError("maintenance cycle failed");
      break;
    }
    state.PauseTiming();
    db->Compact();
    state.ResumeTiming();
  }
}
BENCHMARK(BM_NegationViewRefresh)->Arg(200);

}  // namespace
}  // namespace seqdl

int main(int argc, char** argv) {
  seqdl::PrintRetractMaintenance();
  seqdl::PrintNegationMaintenance();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
