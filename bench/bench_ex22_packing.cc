// Example 2.2 / Example 4.14: the three-occurrences query with packing,
// against its mechanically derived 28-rule packing-free rewriting — the
// ablation for the "packing is convenient but redundant" result.
#include <benchmark/benchmark.h>

#include <cstdio>

#include "src/engine/engine.h"
#include "src/queries/queries.h"
#include "src/transform/packing_elim.h"
#include "src/workload/baselines.h"
#include "src/workload/generators.h"

namespace seqdl {
namespace {

Instance MakeWorkload(Universe& u, size_t hay_count, size_t hay_len,
                      uint64_t seed) {
  StringWorkload rw;
  rw.count = hay_count;
  rw.min_len = hay_len;
  rw.max_len = hay_len;
  rw.seed = seed;
  rw.rel = "R";
  StringWorkload sw;
  sw.count = 2;
  sw.min_len = 2;
  sw.max_len = 2;
  sw.seed = seed + 99;
  sw.rel = "S";
  Result<Instance> in = RandomStrings(u, rw);
  Result<Instance> needles = RandomStrings(u, sw);
  if (!in.ok() || !needles.ok()) std::abort();
  in->UnionWith(*needles);
  return std::move(in).value();
}

void PrintRewriteSummary() {
  std::printf("=== Example 2.2 / 4.14: packing query and its packing-free "
              "rewriting ===\n");
  Universe u;
  Result<ParsedQuery> q = ParsePaperQuery(u, "ex22_three_occurrences");
  if (!q.ok()) std::abort();
  Result<Program> rewritten = EliminatePackingNonrecursive(u, q->program);
  if (!rewritten.ok()) {
    std::printf("rewrite error: %s\n", rewritten.status().ToString().c_str());
    return;
  }
  std::printf("original rules:   %zu\n", q->program.NumRules());
  std::printf("rewritten rules:  %zu (paper Example 4.14: 28)\n",
              rewritten->NumRules());

  std::printf("%-10s %-10s %-12s %-12s %-10s\n", "haystacks", "length",
              "marked", "original", "rewritten");
  for (size_t len : {4u, 8u, 12u}) {
    Universe u2;
    Result<ParsedQuery> q2 = ParsePaperQuery(u2, "ex22_three_occurrences");
    Result<Program> r2 = EliminatePackingNonrecursive(u2, q2->program);
    Result<PreparedProgram> original = Engine::Compile(u2, q2->program);
    Result<PreparedProgram> packing_free = Engine::Compile(u2, *r2);
    if (!original.ok() || !packing_free.ok()) std::abort();
    Instance in = MakeWorkload(u2, 3, len, len);
    Result<Instance> o1 = original->Run(in);
    Result<Instance> o2 = packing_free->Run(in);
    if (!o1.ok() || !o2.ok()) continue;
    // Count marked occurrences with the baseline for context.
    std::set<std::string> hay, needles;
    RelId r_rel = *u2.FindRel("R"), s_rel = *u2.FindRel("S");
    for (TupleRef t : in.Tuples(r_rel)) {
      std::string s;
      for (Value v : u2.GetPath(t[0])) s += u2.AtomName(v.atom());
      hay.insert(s);
    }
    for (TupleRef t : in.Tuples(s_rel)) {
      std::string s;
      for (Value v : u2.GetPath(t[0])) s += u2.AtomName(v.atom());
      needles.insert(s);
    }
    size_t marked = CountMarkedOccurrences(hay, needles);
    RelId a = *u2.FindRel("A");
    std::printf("%-10zu %-10zu %-12zu %-12s %-10s\n", hay.size(), len, marked,
                o1->Contains(a, {}) ? "true" : "false",
                o2->Contains(a, {}) ? "true" : "false");
  }
  std::printf("\n");
}

void BM_Example22WithPacking(benchmark::State& state) {
  size_t len = static_cast<size_t>(state.range(0));
  Universe u;
  Result<ParsedQuery> q = ParsePaperQuery(u, "ex22_three_occurrences");
  Instance in = MakeWorkload(u, 3, len, 11);
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
BENCHMARK(BM_Example22WithPacking)->Arg(4)->Arg(8)->Arg(12);

void BM_Example22PackingFree(benchmark::State& state) {
  size_t len = static_cast<size_t>(state.range(0));
  Universe u;
  Result<ParsedQuery> q = ParsePaperQuery(u, "ex22_three_occurrences");
  Result<Program> rewritten = EliminatePackingNonrecursive(u, q->program);
  Instance in = MakeWorkload(u, 3, len, 11);
  Result<PreparedProgram> prog = Engine::Compile(u, *rewritten);
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
BENCHMARK(BM_Example22PackingFree)->Arg(4)->Arg(8)->Arg(12);

void BM_PackingEliminationItself(benchmark::State& state) {
  for (auto _ : state) {
    Universe u;
    Result<ParsedQuery> q = ParsePaperQuery(u, "ex22_three_occurrences");
    Result<Program> rewritten = EliminatePackingNonrecursive(u, q->program);
    if (!rewritten.ok()) {
      state.SkipWithError(rewritten.status().ToString().c_str());
    }
    benchmark::DoNotOptimize(rewritten);
  }
}
BENCHMARK(BM_PackingEliminationItself);

}  // namespace
}  // namespace seqdl

int main(int argc, char** argv) {
  seqdl::PrintRewriteSummary();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
