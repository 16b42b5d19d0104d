// Lemma 5.1 / Proposition 5.2 / Theorem 5.3: without recursion, output path
// lengths are linear in input path lengths; the recursive squaring query
// produces quadratic outputs. Prints the measured output-length series for
// both, which is the paper's separation argument made concrete.
#include <benchmark/benchmark.h>

#include <cstdio>

#include "src/engine/engine.h"
#include "src/queries/queries.h"
#include "src/term/universe.h"

namespace seqdl {
namespace {

size_t MaxOutputLength(Universe& u, const Instance& out, RelId rel) {
  size_t n = 0;
  for (const Tuple& t : out.Tuples(rel)) {
    for (PathId p : t) n = std::max(n, u.PathLength(p));
  }
  return n;
}

void PrintSeries() {
  std::printf("=== Lemma 5.1 vs Theorem 5.3: output length growth ===\n");
  std::printf("%-6s %-26s %-22s\n", "n",
              "nonrecursive (json_sales)", "recursive (squaring)");
  for (size_t n : {1u, 2u, 4u, 8u, 12u, 16u}) {
    // Nonrecursive: json_sales on a length-n fact (3 columns folded into a
    // single path here: we use a single length-n path per EDB column).
    size_t nonrec_len = 0;
    {
      Universe u;
      Result<ParsedQuery> q = ParsePaperQuery(u, "process_mining");
      if (!q.ok()) std::abort();
      Instance in;
      std::string s(n, 'x');
      in.Add(*u.FindRel("R"), {u.PathOfChars(s)});
      Result<PreparedProgram> prog = Engine::Compile(u, q->program);
      if (!prog.ok()) std::abort();
      Result<Instance> out = prog->Run(in);
      if (out.ok()) nonrec_len = MaxOutputLength(u, *out, q->output);
    }
    // Recursive squaring on a^n.
    size_t rec_len = 0;
    {
      Universe u;
      Result<ParsedQuery> q = ParsePaperQuery(u, "squaring");
      if (!q.ok()) std::abort();
      Instance in;
      in.Add(*u.FindRel("R"), {u.PathOfChars(std::string(n, 'a'))});
      Result<PreparedProgram> prog = Engine::Compile(u, q->program);
      if (!prog.ok()) std::abort();
      Result<Instance> out = prog->Run(in);
      if (out.ok()) rec_len = MaxOutputLength(u, *out, q->output);
    }
    std::printf("%-6zu %-26zu %-22zu\n", n, nonrec_len, rec_len);
  }
  std::printf("(nonrecursive output length is bounded by a·n + b; "
              "squaring output is exactly n^2)\n\n");
}

void BM_SquaringGrowth(benchmark::State& state) {
  size_t n = static_cast<size_t>(state.range(0));
  Universe u;
  Result<ParsedQuery> q = ParsePaperQuery(u, "squaring");
  Instance in;
  in.Add(*u.FindRel("R"), {u.PathOfChars(std::string(n, 'a'))});
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
  state.counters["output_len"] = static_cast<double>(n * n);
}
BENCHMARK(BM_SquaringGrowth)->Arg(2)->Arg(4)->Arg(8)->Arg(16);

void BM_NonrecursiveBounded(benchmark::State& state) {
  size_t n = static_cast<size_t>(state.range(0));
  Universe u;
  Result<ParsedQuery> q = ParsePaperQuery(u, "process_mining");
  Instance in;
  in.Add(*u.FindRel("R"), {u.PathOfChars(std::string(n, 'x'))});
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
BENCHMARK(BM_NonrecursiveBounded)->Arg(2)->Arg(8)->Arg(32)->Arg(128);

}  // namespace
}  // namespace seqdl

int main(int argc, char** argv) {
  seqdl::PrintSeries();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
