// Lemma 5.4: simulating {E,N,R} Sequence Datalog by classical Datalog on
// two-bounded instances. Prints an agreement table (transitive closure on
// random graphs), then benchmarks direct vs simulated evaluation.
#include <benchmark/benchmark.h>

#include <cstdio>

#include "src/engine/engine.h"
#include "src/syntax/parser.h"
#include "src/term/universe.h"
#include "src/transform/two_bounded.h"
#include "src/workload/generators.h"

namespace seqdl {
namespace {

constexpr const char* kTransitiveClosure =
    "S(@x ++ @y) <- R(@x ++ @y).\n"
    "S(@x ++ @z) <- S(@x ++ @y), R(@y ++ @z).\n";

void PrintAgreement() {
  std::printf("=== Lemma 5.4: two-bounded simulation by classical Datalog "
              "===\n");
  std::printf("%-8s %-8s %-14s %-14s %-8s\n", "nodes", "edges",
              "direct |S|", "classic |S2|", "agree");
  for (size_t nodes : {4u, 8u, 16u}) {
    Universe u;
    Result<Program> p = ParseProgram(u, kTransitiveClosure);
    if (!p.ok()) std::abort();
    ClassicalEncoding enc;
    Result<Program> pc = SimulateTwoBounded(u, *p, &enc);
    if (!pc.ok()) {
      std::printf("error: %s\n", pc.status().ToString().c_str());
      return;
    }
    GraphWorkload gw;
    gw.nodes = nodes;
    gw.edges = nodes * 2;
    gw.seed = nodes;
    Result<Instance> i = GraphToInstance(u, RandomGraph(gw), "R");
    Result<Instance> ic = EncodeTwoBounded(u, *i, &enc);
    Result<PreparedProgram> direct_prog = Engine::Compile(u, *p);
    Result<PreparedProgram> classical_prog = Engine::Compile(u, *pc);
    if (!direct_prog.ok() || !classical_prog.ok()) std::abort();
    Result<Instance> direct = direct_prog->Run(*i);
    Result<Instance> classical = classical_prog->Run(*ic);
    if (!direct.ok() || !classical.ok()) continue;
    RelId s = *u.FindRel("S");
    auto [s1, s2] = enc.rels.at(s);
    (void)s1;
    std::printf("%-8zu %-8zu %-14zu %-14zu %-8s\n", nodes, gw.edges,
                direct->Tuples(s).size(), classical->Tuples(s2).size(),
                direct->Tuples(s).size() == classical->Tuples(s2).size()
                    ? "yes"
                    : "NO");
  }
  std::printf("\n");
}

void BM_DirectSequenceDatalog(benchmark::State& state) {
  size_t nodes = static_cast<size_t>(state.range(0));
  Universe u;
  Result<Program> p = ParseProgram(u, kTransitiveClosure);
  GraphWorkload gw;
  gw.nodes = nodes;
  gw.edges = nodes * 2;
  gw.seed = 5;
  Result<Instance> i = GraphToInstance(u, RandomGraph(gw), "R");
  Result<PreparedProgram> prog = Engine::Compile(u, *p);
  if (!prog.ok()) {
    state.SkipWithError(prog.status().ToString().c_str());
    return;
  }
  for (auto _ : state) {
    Result<Instance> out = prog->Run(*i);
    if (!out.ok()) state.SkipWithError(out.status().ToString().c_str());
    benchmark::DoNotOptimize(out);
  }
}
BENCHMARK(BM_DirectSequenceDatalog)->Arg(8)->Arg(16)->Arg(32);

void BM_ClassicalSimulation(benchmark::State& state) {
  size_t nodes = static_cast<size_t>(state.range(0));
  Universe u;
  Result<Program> p = ParseProgram(u, kTransitiveClosure);
  ClassicalEncoding enc;
  Result<Program> pc = SimulateTwoBounded(u, *p, &enc);
  if (!pc.ok()) std::abort();
  GraphWorkload gw;
  gw.nodes = nodes;
  gw.edges = nodes * 2;
  gw.seed = 5;
  Result<Instance> i = GraphToInstance(u, RandomGraph(gw), "R");
  Result<Instance> ic = EncodeTwoBounded(u, *i, &enc);
  if (!ic.ok()) std::abort();
  Result<PreparedProgram> prog = Engine::Compile(u, *pc);
  if (!prog.ok()) {
    state.SkipWithError(prog.status().ToString().c_str());
    return;
  }
  for (auto _ : state) {
    Result<Instance> out = prog->Run(*ic);
    if (!out.ok()) state.SkipWithError(out.status().ToString().c_str());
    benchmark::DoNotOptimize(out);
  }
}
BENCHMARK(BM_ClassicalSimulation)->Arg(8)->Arg(16)->Arg(32);

void BM_SimulationItself(benchmark::State& state) {
  for (auto _ : state) {
    Universe u;
    Result<Program> p = ParseProgram(u, kTransitiveClosure);
    ClassicalEncoding enc;
    Result<Program> pc = SimulateTwoBounded(u, *p, &enc);
    if (!pc.ok()) state.SkipWithError(pc.status().ToString().c_str());
    benchmark::DoNotOptimize(pc);
  }
}
BENCHMARK(BM_SimulationItself);

}  // namespace
}  // namespace seqdl

int main(int argc, char** argv) {
  seqdl::PrintAgreement();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
