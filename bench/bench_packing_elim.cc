// Lemmas 4.10-4.13: the nonrecursive packing-elimination pipeline itself —
// purification (associative unification), packing-structure splitting, and
// head rewriting — benchmarked on programs of growing packing complexity.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <string>

#include "src/analysis/packing_structure.h"
#include "src/syntax/parser.h"
#include "src/term/universe.h"
#include "src/transform/packing_elim.h"

namespace seqdl {
namespace {

// A pipeline of `depth` strata, each wrapping the previous stratum's
// output one packing level deeper, then unwrapping at the end.
std::string NestedPipelineProgram(size_t depth) {
  std::string text = "T0(<$x>) <- R($x).\n";
  for (size_t d = 1; d < depth; ++d) {
    text += "T";
    text += std::to_string(d);
    text += "(<$x>) <- T";
    text += std::to_string(d - 1);
    text += "($x).\n";
  }
  std::string inner = "$x";
  for (size_t d = 0; d < depth; ++d) inner = "<" + inner + ">";
  text += "S($x) <- T" + std::to_string(depth - 1) + "(" + inner + ").\n";
  return text;
}

void PrintPipelineGrowth() {
  std::printf("=== Lemmas 4.10-4.13: nonrecursive packing elimination ===\n");
  std::printf("%-8s %-14s %-16s\n", "depth", "input rules", "output rules");
  for (size_t depth : {1u, 2u, 3u, 4u}) {
    Universe u;
    Result<Program> p = ParseProgram(u, NestedPipelineProgram(depth));
    if (!p.ok()) std::abort();
    Result<Program> q = EliminatePackingNonrecursive(u, *p);
    if (!q.ok()) {
      std::printf("%-8zu error: %s\n", depth, q.status().ToString().c_str());
      continue;
    }
    std::printf("%-8zu %-14zu %-16zu\n", depth, p->NumRules(), q->NumRules());
  }
  std::printf("\n");
}

void BM_EliminateNestedPipeline(benchmark::State& state) {
  size_t depth = static_cast<size_t>(state.range(0));
  std::string text = NestedPipelineProgram(depth);
  for (auto _ : state) {
    Universe u;
    Result<Program> p = ParseProgram(u, text);
    Result<Program> q = EliminatePackingNonrecursive(u, *p);
    if (!q.ok()) state.SkipWithError(q.status().ToString().c_str());
    benchmark::DoNotOptimize(q);
  }
}
BENCHMARK(BM_EliminateNestedPipeline)->Arg(1)->Arg(2)->Arg(3)->Arg(4);

// Packing-structure computation on expressions of growing width.
void BM_DeltaAndComponents(benchmark::State& state) {
  size_t width = static_cast<size_t>(state.range(0));
  Universe u;
  std::string text = "@a";
  for (size_t i = 0; i < width; ++i) {
    text += " ++ <$x" + std::to_string(i) + " ++ <a>>";
  }
  Result<PathExpr> e = ParsePathExpr(u, text);
  if (!e.ok()) std::abort();
  for (auto _ : state) {
    PackingStructure ps = Delta(*e);
    std::vector<PathExpr> comps = Components(*e);
    benchmark::DoNotOptimize(ps);
    benchmark::DoNotOptimize(comps);
  }
}
BENCHMARK(BM_DeltaAndComponents)->Arg(1)->Arg(4)->Arg(16)->Arg(64);

// The purification-heavy shape: equations binding impure variables.
void BM_EliminateWithPurification(benchmark::State& state) {
  size_t eqs = static_cast<size_t>(state.range(0));
  std::string head_expr;
  std::string body = "R($y0)";
  std::string text;
  for (size_t i = 0; i < eqs; ++i) {
    std::string xi = "$z" + std::to_string(i);
    text += "T";
    text += std::to_string(i);
    text += "(<$y0> ++ $y0) <- R($y0).\n";
  }
  text += "S($y0) <- R($y0)";
  for (size_t i = 0; i < eqs; ++i) {
    text += ", T" + std::to_string(i) + "($w" + std::to_string(i) +
            "), $w" + std::to_string(i) + " = <$y0> ++ $y0";
  }
  text += ".\n";
  for (auto _ : state) {
    Universe u;
    Result<Program> p = ParseProgram(u, text);
    if (!p.ok()) state.SkipWithError(p.status().ToString().c_str());
    Result<Program> q = EliminatePackingNonrecursive(u, *p);
    if (!q.ok()) state.SkipWithError(q.status().ToString().c_str());
    benchmark::DoNotOptimize(q);
  }
}
BENCHMARK(BM_EliminateWithPurification)->Arg(1)->Arg(2)->Arg(3);

}  // namespace
}  // namespace seqdl

int main(int argc, char** argv) {
  seqdl::PrintPipelineGrowth();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
