// Theorem 4.15: the doubling encoding. Benchmarks the double/undouble
// round-trip programs and the full delimiter-based packing simulation for
// a recursive program.
#include <benchmark/benchmark.h>

#include <cstdio>

#include "src/engine/engine.h"
#include "src/queries/queries.h"
#include "src/syntax/parser.h"
#include "src/transform/doubling.h"
#include "src/workload/generators.h"

namespace seqdl {
namespace {

void PrintRoundTrip() {
  std::printf("=== Theorem 4.15: doubling encoding ===\n");
  std::printf("%-8s %-14s %-18s\n", "strlen", "doubled len", "round trip ok");
  for (size_t len : {2u, 8u, 32u}) {
    Universe u;
    RelId r = *u.InternRel("R", 1);
    RelId rd = u.FreshRel("Rdbl", 1);
    RelId back = u.FreshRel("Back", 1);
    Program p;
    p.strata.emplace_back();
    p.strata.back().rules = DoubleRelationRules(u, r, rd);
    p.strata.emplace_back();
    p.strata.back().rules = UndoubleRelationRules(u, rd, back);
    StringWorkload w;
    w.count = 4;
    w.min_len = len;
    w.max_len = len;
    w.seed = 9;
    Result<Instance> in = RandomStrings(u, w);
    Result<PreparedProgram> prog = Engine::Compile(u, p);
    if (!prog.ok()) std::abort();
    Result<Instance> out = prog->Run(*in);
    if (!out.ok()) {
      std::printf("%-8zu error: %s\n", len, out.status().ToString().c_str());
      continue;
    }
    bool ok = out->Tuples(back) == out->Tuples(r);
    size_t dlen = 0;
    for (const Tuple& t : out->Tuples(rd)) {
      dlen = std::max(dlen, u.PathLength(t[0]));
    }
    std::printf("%-8zu %-14zu %-18s\n", len, dlen, ok ? "yes" : "NO");
  }
  std::printf("\n");
}

void BM_DoubleUndoubleRoundTrip(benchmark::State& state) {
  size_t len = static_cast<size_t>(state.range(0));
  Universe u;
  RelId r = *u.InternRel("R", 1);
  RelId rd = u.FreshRel("Rdbl", 1);
  RelId back = u.FreshRel("Back", 1);
  Program p;
  p.strata.emplace_back();
  p.strata.back().rules = DoubleRelationRules(u, r, rd);
  p.strata.emplace_back();
  p.strata.back().rules = UndoubleRelationRules(u, rd, back);
  StringWorkload w;
  w.count = 4;
  w.min_len = len;
  w.max_len = len;
  w.seed = 9;
  Result<Instance> in = RandomStrings(u, w);
  Result<PreparedProgram> prog = Engine::Compile(u, p);
  if (!prog.ok()) {
    state.SkipWithError(prog.status().ToString().c_str());
    return;
  }
  for (auto _ : state) {
    Result<Instance> out = prog->Run(*in);
    if (!out.ok()) state.SkipWithError(out.status().ToString().c_str());
    benchmark::DoNotOptimize(out);
  }
}
BENCHMARK(BM_DoubleUndoubleRoundTrip)->Arg(4)->Arg(16)->Arg(64);

void BM_RecursivePackingSimulated(benchmark::State& state) {
  size_t len = static_cast<size_t>(state.range(0));
  Universe u;
  Result<Program> p = ParseProgram(u,
                                   "T(<$x>) <- R($x).\n"
                                   "T(<$x>) <- T(<$x ++ @a>).\n"
                                   "S($x) <- T(<$x>).\n");
  if (!p.ok()) std::abort();
  Result<Program> sim = EliminatePackingViaDoubling(u, *p, *u.FindRel("S"));
  if (!sim.ok()) std::abort();
  StringWorkload w;
  w.count = 4;
  w.min_len = len;
  w.max_len = len;
  w.seed = 2;
  Result<Instance> in = RandomStrings(u, w);
  Result<PreparedProgram> prog = Engine::Compile(u, *sim);
  if (!prog.ok()) {
    state.SkipWithError(prog.status().ToString().c_str());
    return;
  }
  for (auto _ : state) {
    Result<Instance> out = prog->Run(*in);
    if (!out.ok()) state.SkipWithError(out.status().ToString().c_str());
    benchmark::DoNotOptimize(out);
  }
}
BENCHMARK(BM_RecursivePackingSimulated)->Arg(2)->Arg(4)->Arg(8);

void BM_RecursivePackingOriginal(benchmark::State& state) {
  size_t len = static_cast<size_t>(state.range(0));
  Universe u;
  Result<Program> p = ParseProgram(u,
                                   "T(<$x>) <- R($x).\n"
                                   "T(<$x>) <- T(<$x ++ @a>).\n"
                                   "S($x) <- T(<$x>).\n");
  if (!p.ok()) std::abort();
  StringWorkload w;
  w.count = 4;
  w.min_len = len;
  w.max_len = len;
  w.seed = 2;
  Result<Instance> in = RandomStrings(u, w);
  Result<PreparedProgram> prog = Engine::Compile(u, *p);
  if (!prog.ok()) {
    state.SkipWithError(prog.status().ToString().c_str());
    return;
  }
  for (auto _ : state) {
    Result<Instance> out = prog->Run(*in);
    if (!out.ok()) state.SkipWithError(out.status().ToString().c_str());
    benchmark::DoNotOptimize(out);
  }
}
BENCHMARK(BM_RecursivePackingOriginal)->Arg(2)->Arg(4)->Arg(8);

}  // namespace
}  // namespace seqdl

int main(int argc, char** argv) {
  seqdl::PrintRoundTrip();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
