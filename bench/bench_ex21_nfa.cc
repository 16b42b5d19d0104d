// Example 2.1: NFA acceptance in Sequence Datalog, benchmarked against a
// direct C++ NFA simulator baseline, sweeping string length and automaton
// size. Prints an acceptance-agreement table first.
#include <benchmark/benchmark.h>

#include <cstdio>

#include "src/engine/engine.h"
#include "src/queries/queries.h"
#include "src/workload/generators.h"

namespace seqdl {
namespace {

Instance MakeStrings(Universe& u, size_t count, size_t len, uint64_t seed) {
  StringWorkload w;
  w.count = count;
  w.min_len = len;
  w.max_len = len;
  w.alphabet = 2;
  w.seed = seed;
  Result<Instance> in = RandomStrings(u, w);
  if (!in.ok()) std::abort();
  return std::move(in).value();
}

void PrintAgreementTable() {
  std::printf("=== Example 2.1: NFA acceptance, Datalog vs direct simulator "
              "===\n");
  std::printf("%-8s %-8s %-10s %-10s %-8s\n", "states", "strlen", "accepted",
              "rejected", "agree");
  for (size_t states : {2u, 4u, 8u}) {
    for (size_t len : {4u, 16u, 64u}) {
      Universe u;
      Result<ParsedQuery> q = ParsePaperQuery(u, "ex21_nfa");
      if (!q.ok()) std::abort();
      NfaWorkload nw;
      nw.num_states = states;
      nw.seed = states * 31 + len;
      Nfa nfa = RandomNfa(nw);
      Result<Instance> in = NfaToInstance(u, nfa);
      if (!in.ok()) std::abort();
      in->UnionWith(MakeStrings(u, 20, len, len + states));
      Result<PreparedProgram> prog = Engine::Compile(u, q->program);
      if (!prog.ok()) std::abort();
      Result<Instance> out = prog->Run(*in);
      if (!out.ok()) {
        std::printf("eval error: %s\n", out.status().ToString().c_str());
        continue;
      }
      RelId r = *u.FindRel("R");
      size_t accepted = 0, rejected = 0, agree = 0, total = 0;
      for (TupleRef t : out->Tuples(r)) {
        std::vector<uint32_t> word;
        for (Value v : u.GetPath(t[0])) {
          word.push_back(
              static_cast<uint32_t>(u.AtomName(v.atom())[0] - 'a'));
        }
        bool datalog = out->Contains(q->output, t);
        bool direct = nfa.Accepts(word);
        ++total;
        agree += datalog == direct ? 1 : 0;
        (datalog ? accepted : rejected) += 1;
      }
      std::printf("%-8zu %-8zu %-10zu %-10zu %zu/%zu\n", states, len,
                  accepted, rejected, agree, total);
    }
  }
  std::printf("\n");
}

void BM_NfaDatalog(benchmark::State& state) {
  size_t states = static_cast<size_t>(state.range(0));
  size_t len = static_cast<size_t>(state.range(1));
  Universe u;
  Result<ParsedQuery> q = ParsePaperQuery(u, "ex21_nfa");
  NfaWorkload nw;
  nw.num_states = states;
  nw.seed = 7;
  Nfa nfa = RandomNfa(nw);
  Result<Instance> in = NfaToInstance(u, nfa);
  in->UnionWith(MakeStrings(u, 10, len, 3));
  Result<PreparedProgram> prog = Engine::Compile(u, q->program);
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
BENCHMARK(BM_NfaDatalog)
    ->Args({2, 8})
    ->Args({2, 32})
    ->Args({4, 8})
    ->Args({4, 32})
    ->Args({8, 8});

void BM_NfaDirect(benchmark::State& state) {
  size_t states = static_cast<size_t>(state.range(0));
  size_t len = static_cast<size_t>(state.range(1));
  Universe u;
  NfaWorkload nw;
  nw.num_states = states;
  nw.seed = 7;
  Nfa nfa = RandomNfa(nw);
  Instance strings = MakeStrings(u, 10, len, 3);
  RelId r = *u.FindRel("R");
  std::vector<std::vector<uint32_t>> words;
  for (TupleRef t : strings.Tuples(r)) {
    std::vector<uint32_t> word;
    for (Value v : u.GetPath(t[0])) {
      word.push_back(static_cast<uint32_t>(u.AtomName(v.atom())[0] - 'a'));
    }
    words.push_back(std::move(word));
  }
  for (auto _ : state) {
    size_t accepted = 0;
    for (const auto& w : words) accepted += nfa.Accepts(w) ? 1 : 0;
    benchmark::DoNotOptimize(accepted);
  }
}
BENCHMARK(BM_NfaDirect)
    ->Args({2, 8})
    ->Args({2, 32})
    ->Args({4, 8})
    ->Args({4, 32})
    ->Args({8, 8});

}  // namespace
}  // namespace seqdl

int main(int argc, char** argv) {
  seqdl::PrintAgreementTable();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
