// Example 4.3 / Theorem 4.2: the reversal query with a binary intermediate
// predicate vs its arity-eliminated unary encoding (the Lemma 4.1 pairing),
// sweeping input string length. Measures the cost of the encoding.
#include <benchmark/benchmark.h>

#include <cstdio>

#include "src/engine/engine.h"
#include "src/queries/queries.h"
#include "src/transform/arity_elim.h"
#include "src/workload/generators.h"

namespace seqdl {
namespace {

Instance MakeStrings(Universe& u, size_t count, size_t len) {
  StringWorkload w;
  w.count = count;
  w.min_len = len;
  w.max_len = len;
  w.alphabet = 3;
  w.seed = 5;
  Result<Instance> in = RandomStrings(u, w);
  if (!in.ok()) std::abort();
  return std::move(in).value();
}

void PrintComparison() {
  std::printf("=== Example 4.3 / Theorem 4.2: arity elimination "
              "(reversal query) ===\n");
  std::printf("%-8s %-14s %-14s %-16s\n", "strlen", "facts(binary)",
              "facts(unary)", "outputs agree");
  for (size_t len : {4u, 8u, 16u}) {
    Universe u;
    Result<ParsedQuery> q = ParsePaperQuery(u, "ex43_reverse");
    Result<Program> unary = EliminateArity(u, q->program);
    if (!unary.ok()) std::abort();
    Result<PreparedProgram> binary_prog = Engine::Compile(u, q->program);
    Result<PreparedProgram> unary_prog = Engine::Compile(u, *unary);
    if (!binary_prog.ok() || !unary_prog.ok()) std::abort();
    Instance in = MakeStrings(u, 5, len);
    EvalStats s1, s2;
    Result<Instance> o1 = binary_prog->Run(in, {}, &s1);
    Result<Instance> o2 = unary_prog->Run(in, {}, &s2);
    if (!o1.ok() || !o2.ok()) continue;
    bool agree = o1->Tuples(q->output) == o2->Tuples(q->output);
    std::printf("%-8zu %-14zu %-14zu %-16s\n", len, s1.derived_facts,
                s2.derived_facts, agree ? "yes" : "NO");
  }
  std::printf("\n");
}

void BM_ReversalBinary(benchmark::State& state) {
  size_t len = static_cast<size_t>(state.range(0));
  Universe u;
  Result<ParsedQuery> q = ParsePaperQuery(u, "ex43_reverse");
  Instance in = MakeStrings(u, 5, len);
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
BENCHMARK(BM_ReversalBinary)->Arg(4)->Arg(8)->Arg(16)->Arg(32);

void BM_ReversalUnaryEncoded(benchmark::State& state) {
  size_t len = static_cast<size_t>(state.range(0));
  Universe u;
  Result<ParsedQuery> q = ParsePaperQuery(u, "ex43_reverse");
  Result<Program> unary = EliminateArity(u, q->program);
  Instance in = MakeStrings(u, 5, len);
  Result<PreparedProgram> prog = Engine::Compile(u, *unary);
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
BENCHMARK(BM_ReversalUnaryEncoded)->Arg(4)->Arg(8)->Arg(16)->Arg(32);

void BM_ReversalPaperHandEncoding(benchmark::State& state) {
  size_t len = static_cast<size_t>(state.range(0));
  Universe u;
  Result<ParsedQuery> q = ParsePaperQuery(u, "ex43_reverse_noarity");
  Instance in = MakeStrings(u, 5, len);
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
BENCHMARK(BM_ReversalPaperHandEncoding)->Arg(4)->Arg(8)->Arg(16)->Arg(32);

}  // namespace
}  // namespace seqdl

int main(int argc, char** argv) {
  seqdl::PrintComparison();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
