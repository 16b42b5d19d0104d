// Theorem 4.16: folding intermediate predicates away using equations.
// Measures the rule blow-up and the runtime effect of folding on chains of
// intermediate predicates.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <string>

#include "src/engine/engine.h"
#include "src/syntax/parser.h"
#include "src/term/universe.h"
#include "src/transform/fold_intermediates.h"
#include "src/workload/generators.h"

namespace seqdl {
namespace {

// A chain T0 <- R, T1 <- T0, ..., S <- T_{k-1} with 2 rules per level.
std::string ChainProgram(size_t levels) {
  std::string text =
      "T0($x) <- R(a ++ $x).\n"
      "T0($x) <- R(b ++ $x).\n";
  for (size_t i = 1; i < levels; ++i) {
    std::string prev = "T";
    prev += std::to_string(i - 1);
    std::string cur = "T";
    cur += std::to_string(i);
    text += cur + "($x) <- " + prev + "($x ++ a).\n";
    text += cur + "($x) <- " + prev + "($x ++ b).\n";
  }
  text += "S($x) <- T" + std::to_string(levels - 1) + "($x).\n";
  return text;
}

void PrintFoldGrowth() {
  std::printf("=== Theorem 4.16: folding away intermediate predicates ===\n");
  std::printf("%-8s %-14s %-14s %-14s\n", "levels", "input rules",
              "folded rules", "agree");
  for (size_t levels : {1u, 2u, 3u, 4u, 5u}) {
    Universe u;
    Result<Program> p = ParseProgram(u, ChainProgram(levels));
    if (!p.ok()) std::abort();
    Result<Program> q = FoldIntermediates(u, *p, *u.FindRel("S"));
    if (!q.ok()) {
      std::printf("%-8zu error: %s\n", levels,
                  q.status().ToString().c_str());
      continue;
    }
    StringWorkload w;
    w.count = 6;
    w.min_len = levels + 1;
    w.max_len = levels + 3;
    w.seed = 3;
    Result<Instance> in = RandomStrings(u, w);
    RelId s = *u.FindRel("S");
    Result<PreparedProgram> chained = Engine::Compile(u, *p);
    Result<PreparedProgram> folded = Engine::Compile(u, *q);
    if (!chained.ok() || !folded.ok()) std::abort();
    Result<Instance> o1 = chained->Run(*in);
    Result<Instance> o2 = folded->Run(*in);
    std::printf("%-8zu %-14zu %-14zu %-14s\n", levels, p->NumRules(),
                q->NumRules(),
                (o1.ok() && o2.ok() && o1->Project({s}) == o2->Project({s}))
                    ? "yes"
                    : "NO");
  }
  std::printf("\n");
}

void BM_EvalChained(benchmark::State& state) {
  size_t levels = static_cast<size_t>(state.range(0));
  Universe u;
  Result<Program> p = ParseProgram(u, ChainProgram(levels));
  StringWorkload w;
  w.count = 10;
  w.min_len = levels + 1;
  w.max_len = levels + 4;
  w.seed = 3;
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
BENCHMARK(BM_EvalChained)->Arg(1)->Arg(3)->Arg(5);

void BM_EvalFolded(benchmark::State& state) {
  size_t levels = static_cast<size_t>(state.range(0));
  Universe u;
  Result<Program> p = ParseProgram(u, ChainProgram(levels));
  Result<Program> q = FoldIntermediates(u, *p, *u.FindRel("S"));
  StringWorkload w;
  w.count = 10;
  w.min_len = levels + 1;
  w.max_len = levels + 4;
  w.seed = 3;
  Result<Instance> in = RandomStrings(u, w);
  Result<PreparedProgram> prog = Engine::Compile(u, *q);
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
BENCHMARK(BM_EvalFolded)->Arg(1)->Arg(3)->Arg(5);

void BM_FoldingItself(benchmark::State& state) {
  size_t levels = static_cast<size_t>(state.range(0));
  std::string text = ChainProgram(levels);
  for (auto _ : state) {
    Universe u;
    Result<Program> p = ParseProgram(u, text);
    Result<Program> q = FoldIntermediates(u, *p, *u.FindRel("S"));
    if (!q.ok()) state.SkipWithError(q.status().ToString().c_str());
    benchmark::DoNotOptimize(q);
  }
}
BENCHMARK(BM_FoldingItself)->Arg(2)->Arg(4)->Arg(6);

}  // namespace
}  // namespace seqdl

int main(int argc, char** argv) {
  seqdl::PrintFoldGrowth();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
