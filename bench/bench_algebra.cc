// Theorem 7.1: nonrecursive Sequence Datalog vs its sequence relational
// algebra translation. Prints an agreement table, then benchmarks both
// evaluation paths (note: the mechanical Form-1 translation builds
// candidate universes via SUB/UNPACK, so the algebra plan is expected to
// be slower — the theorem is about expressiveness, not efficiency).
#include <benchmark/benchmark.h>

#include <cstdio>

#include "src/algebra/algebra.h"
#include "src/algebra/from_datalog.h"
#include "src/algebra/to_datalog.h"
#include "src/engine/engine.h"
#include "src/syntax/parser.h"
#include "src/workload/generators.h"

namespace seqdl {
namespace {

constexpr const char* kProgram = "S($x) <- R($x ++ @y), Q(@y).";

Instance MakeData(Universe& u, size_t count, size_t len) {
  StringWorkload rw;
  rw.count = count;
  rw.min_len = 1;
  rw.max_len = len;
  rw.seed = 13;
  rw.rel = "R";
  StringWorkload qw;
  qw.count = 2;
  qw.min_len = 1;
  qw.max_len = 1;
  qw.seed = 14;
  qw.rel = "Q";
  Result<Instance> in = RandomStrings(u, rw);
  Result<Instance> qs = RandomStrings(u, qw);
  if (!in.ok() || !qs.ok()) std::abort();
  in->UnionWith(*qs);
  return std::move(in).value();
}

void PrintAgreement() {
  std::printf("=== Theorem 7.1: Datalog vs sequence relational algebra ===\n");
  std::printf("program: %s\n", kProgram);
  std::printf("%-8s %-8s %-12s %-12s %-8s\n", "facts", "maxlen",
              "datalog out", "algebra out", "agree");
  for (size_t count : {4u, 8u}) {
    for (size_t len : {3u, 5u}) {
      Universe u;
      Result<Program> p = ParseProgram(u, kProgram);
      RelId s = *u.FindRel("S");
      Result<AlgebraPtr> alg = DatalogToAlgebra(u, *p, s);
      if (!alg.ok()) std::abort();
      Result<PreparedProgram> prog = Engine::Compile(u, *p);
      if (!prog.ok()) std::abort();
      Instance in = MakeData(u, count, len);
      Result<Instance> engine = prog->Run(in);
      Result<EvaluatedRel> direct = EvalAlgebra(u, **alg, in);
      if (!engine.ok() || !direct.ok()) continue;
      std::printf("%-8zu %-8zu %-12zu %-12zu %-8s\n", in.NumFacts(), len,
                  engine->Tuples(s).size(), direct->tuples.size(),
                  engine->Tuples(s) == direct->tuples ? "yes" : "NO");
    }
  }
  std::printf("\n");
}

void BM_DatalogEval(benchmark::State& state) {
  size_t count = static_cast<size_t>(state.range(0));
  Universe u;
  Result<Program> p = ParseProgram(u, kProgram);
  Result<PreparedProgram> prog = Engine::Compile(u, *p);
  if (!prog.ok()) {
    state.SkipWithError(prog.status().ToString().c_str());
    return;
  }
  Instance in = MakeData(u, count, 4);
  for (auto _ : state) {
    Result<Instance> out = prog->Run(in);
    if (!out.ok()) state.SkipWithError(out.status().ToString().c_str());
    benchmark::DoNotOptimize(out);
  }
}
BENCHMARK(BM_DatalogEval)->Arg(4)->Arg(8)->Arg(16);

void BM_AlgebraEval(benchmark::State& state) {
  size_t count = static_cast<size_t>(state.range(0));
  Universe u;
  Result<Program> p = ParseProgram(u, kProgram);
  RelId s = *u.FindRel("S");
  Result<AlgebraPtr> alg = DatalogToAlgebra(u, *p, s);
  Instance in = MakeData(u, count, 4);
  for (auto _ : state) {
    Result<EvaluatedRel> out = EvalAlgebra(u, **alg, in);
    if (!out.ok()) state.SkipWithError(out.status().ToString().c_str());
    benchmark::DoNotOptimize(out);
  }
}
BENCHMARK(BM_AlgebraEval)->Arg(4)->Arg(8)->Arg(16);

void BM_Translation(benchmark::State& state) {
  for (auto _ : state) {
    Universe u;
    Result<Program> p = ParseProgram(u, kProgram);
    Result<AlgebraPtr> alg = DatalogToAlgebra(u, *p, *u.FindRel("S"));
    if (!alg.ok()) state.SkipWithError(alg.status().ToString().c_str());
    benchmark::DoNotOptimize(alg);
  }
}
BENCHMARK(BM_Translation);

void BM_AlgebraToDatalogRoundTrip(benchmark::State& state) {
  Universe u;
  Result<Program> p = ParseProgram(u, kProgram);
  RelId s = *u.FindRel("S");
  Result<AlgebraPtr> alg = DatalogToAlgebra(u, *p, s);
  if (!alg.ok()) std::abort();
  for (auto _ : state) {
    Result<AlgebraToDatalogResult> back = AlgebraToDatalog(u, **alg);
    if (!back.ok()) state.SkipWithError(back.status().ToString().c_str());
    benchmark::DoNotOptimize(back);
  }
}
BENCHMARK(BM_AlgebraToDatalogRoundTrip);

}  // namespace
}  // namespace seqdl

int main(int argc, char** argv) {
  seqdl::PrintAgreement();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
