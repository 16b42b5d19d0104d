// Example 4.6 / Lemma 4.5 / Theorem 4.7: equation elimination. Compares the
// marked-pair query (negated equations in a recursive stratum) against its
// equation-free rewriting, and the only-a's query against its Example 4.4
// rewriting.
#include <benchmark/benchmark.h>

#include <cstdio>

#include "src/engine/engine.h"
#include "src/queries/queries.h"
#include "src/transform/equation_elim.h"
#include "src/workload/generators.h"

namespace seqdl {
namespace {

Instance MakeStrings(Universe& u, size_t count, size_t len, size_t alphabet) {
  StringWorkload w;
  w.count = count;
  w.min_len = len;
  w.max_len = len;
  w.alphabet = alphabet;
  w.seed = 17;
  Result<Instance> in = RandomStrings(u, w);
  if (!in.ok()) std::abort();
  return std::move(in).value();
}

void PrintSummary() {
  std::printf("=== Lemma 4.5 / Theorem 4.7: equation elimination ===\n");
  for (const char* id : {"ex31_only_as_e", "ex46_marked"}) {
    Universe u;
    Result<ParsedQuery> q = ParsePaperQuery(u, id);
    if (!q.ok()) std::abort();
    Result<Program> without = EliminateEquations(u, q->program);
    if (!without.ok()) {
      std::printf("%s: %s\n", id, without.status().ToString().c_str());
      continue;
    }
    Result<PreparedProgram> with_prog = Engine::Compile(u, q->program);
    Result<PreparedProgram> without_prog = Engine::Compile(u, *without);
    if (!with_prog.ok() || !without_prog.ok()) std::abort();
    Instance in = MakeStrings(u, 8, 6, 2);
    Result<Instance> o1 = with_prog->Run(in);
    Result<Instance> o2 = without_prog->Run(in);
    bool agree = o1.ok() && o2.ok() &&
                 o1->Project({q->output}) == o2->Project({q->output});
    std::printf("%-18s rules %zu -> %zu, outputs agree: %s\n", id,
                q->program.NumRules(), without->NumRules(),
                agree ? "yes" : "NO");
  }
  std::printf("\n");
}

void BM_MarkedPairsWithEquations(benchmark::State& state) {
  size_t len = static_cast<size_t>(state.range(0));
  Universe u;
  Result<ParsedQuery> q = ParsePaperQuery(u, "ex46_marked");
  Instance in = MakeStrings(u, 8, len, 2);
  Result<PreparedProgram> prog = Engine::Compile(u, q->program);
  if (!prog.ok()) {
    state.SkipWithError(prog.status().ToString().c_str());
    return;
  }
  for (auto _ : state) {
    Result<Instance> out = prog->Run(in);
    if (!out.ok()) state.SkipWithError(out.status().ToString().c_str());
    benchmark::DoNotOptimize(out);
  }
}
BENCHMARK(BM_MarkedPairsWithEquations)->Arg(4)->Arg(6)->Arg(8);

void BM_MarkedPairsEquationFree(benchmark::State& state) {
  size_t len = static_cast<size_t>(state.range(0));
  Universe u;
  Result<ParsedQuery> q = ParsePaperQuery(u, "ex46_marked");
  Result<Program> without = EliminateEquations(u, q->program);
  Instance in = MakeStrings(u, 8, len, 2);
  Result<PreparedProgram> prog = Engine::Compile(u, *without);
  if (!prog.ok()) {
    state.SkipWithError(prog.status().ToString().c_str());
    return;
  }
  for (auto _ : state) {
    Result<Instance> out = prog->Run(in);
    if (!out.ok()) state.SkipWithError(out.status().ToString().c_str());
    benchmark::DoNotOptimize(out);
  }
}
BENCHMARK(BM_MarkedPairsEquationFree)->Arg(4)->Arg(6)->Arg(8);

void BM_OnlyAsWithEquation(benchmark::State& state) {
  size_t len = static_cast<size_t>(state.range(0));
  Universe u;
  Result<ParsedQuery> q = ParsePaperQuery(u, "ex31_only_as_e");
  Instance in = MakeStrings(u, 16, len, 1);  // all-a strings
  Result<PreparedProgram> prog = Engine::Compile(u, q->program);
  if (!prog.ok()) {
    state.SkipWithError(prog.status().ToString().c_str());
    return;
  }
  for (auto _ : state) {
    Result<Instance> out = prog->Run(in);
    if (!out.ok()) state.SkipWithError(out.status().ToString().c_str());
    benchmark::DoNotOptimize(out);
  }
}
BENCHMARK(BM_OnlyAsWithEquation)->Arg(8)->Arg(32)->Arg(128);

void BM_OnlyAsPaperRewriting(benchmark::State& state) {
  size_t len = static_cast<size_t>(state.range(0));
  Universe u;
  Result<ParsedQuery> q = ParsePaperQuery(u, "ex44_only_as_noeq");
  Instance in = MakeStrings(u, 16, len, 1);
  Result<PreparedProgram> prog = Engine::Compile(u, q->program);
  if (!prog.ok()) {
    state.SkipWithError(prog.status().ToString().c_str());
    return;
  }
  for (auto _ : state) {
    Result<Instance> out = prog->Run(in);
    if (!out.ok()) state.SkipWithError(out.status().ToString().c_str());
    benchmark::DoNotOptimize(out);
  }
}
BENCHMARK(BM_OnlyAsPaperRewriting)->Arg(8)->Arg(32)->Arg(128);

void BM_EliminationItself(benchmark::State& state) {
  for (auto _ : state) {
    Universe u;
    Result<ParsedQuery> q = ParsePaperQuery(u, "ex46_marked");
    Result<Program> without = EliminateEquations(u, q->program);
    if (!without.ok()) {
      state.SkipWithError(without.status().ToString().c_str());
    }
    benchmark::DoNotOptimize(without);
  }
}
BENCHMARK(BM_EliminationItself);

}  // namespace
}  // namespace seqdl

int main(int argc, char** argv) {
  seqdl::PrintSummary();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
