// Reproduces Figure 2 / Example 4.8: the extended pig-pug search for the
// equation $x·<@y·$z>·@w = $u·$v·$u, which has exactly four successful
// branches whose substitutions form a complete set of symbolic solutions.
// Then benchmarks associative unification on scaling equation families.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <string>

#include "src/syntax/parser.h"
#include "src/syntax/printer.h"
#include "src/term/universe.h"
#include "src/unify/unify.h"

namespace seqdl {
namespace {

PathExpr MustExpr(Universe& u, const std::string& text) {
  Result<PathExpr> e = ParsePathExpr(u, text);
  if (!e.ok()) std::abort();
  return std::move(e).value();
}

void PrintFigure2() {
  std::printf("=== Figure 2: associative unification of "
              "$x·<@y·$z>·@w = $u·$v·$u ===\n");
  Universe u;
  PathExpr lhs = MustExpr(u, "$x ++ <@y ++ $z> ++ @w");
  PathExpr rhs = MustExpr(u, "$u ++ $v ++ $u");
  std::printf("one-sided nonlinear: %s (termination guaranteed)\n",
              IsOneSidedNonlinear(lhs, rhs) ? "yes" : "no");
  UnifyOptions opts;
  opts.allow_empty = false;  // the classical setting of the figure
  Result<UnifyResult> res = UnifyExprs(u, lhs, rhs, opts);
  if (!res.ok()) {
    std::printf("error: %s\n", res.status().ToString().c_str());
    return;
  }
  std::printf("rewrite nodes explored:  %zu\n", res->nodes_explored);
  std::printf("successful branches:     %zu (paper: 4)\n",
              res->successful_branches);
  std::printf("complete set of symbolic solutions:\n");
  for (const ExprSubst& rho : res->solutions) {
    std::printf("  %s\n", FormatSubst(u, rho).c_str());
  }
  std::printf("\n");
}

// Scaling family: $x1·...·$xk = a^n (number of solutions C(n+k-1, k-1)).
void BM_UnifySplits(benchmark::State& state) {
  size_t k = static_cast<size_t>(state.range(0));
  size_t n = static_cast<size_t>(state.range(1));
  Universe u;
  PathExpr lhs, rhs;
  for (size_t i = 0; i < k; ++i) {
    std::string name = "x";
    name += std::to_string(i);
    lhs.items.push_back(ExprItem::PathVar(u.InternVar(VarKind::kPath, name)));
  }
  for (size_t i = 0; i < n; ++i) {
    rhs.items.push_back(ExprItem::Const(Value::Atom(u.InternAtom("a"))));
  }
  size_t solutions = 0;
  for (auto _ : state) {
    Result<UnifyResult> res = UnifyExprs(u, lhs, rhs);
    if (!res.ok()) state.SkipWithError(res.status().ToString().c_str());
    solutions = res->solutions.size();
    benchmark::DoNotOptimize(res);
  }
  state.counters["solutions"] = static_cast<double>(solutions);
}
BENCHMARK(BM_UnifySplits)
    ->Args({2, 4})
    ->Args({2, 8})
    ->Args({3, 4})
    ->Args({3, 8})
    ->Args({4, 6});

// The Figure 2 equation itself.
void BM_UnifyFigure2(benchmark::State& state) {
  Universe u;
  PathExpr lhs = MustExpr(u, "$x ++ <@y ++ $z> ++ @w");
  PathExpr rhs = MustExpr(u, "$u ++ $v ++ $u");
  UnifyOptions opts;
  opts.allow_empty = state.range(0) != 0;
  for (auto _ : state) {
    Result<UnifyResult> res = UnifyExprs(u, lhs, rhs, opts);
    if (!res.ok()) state.SkipWithError(res.status().ToString().c_str());
    benchmark::DoNotOptimize(res);
  }
}
BENCHMARK(BM_UnifyFigure2)->Arg(0)->Arg(1);

// Purification-shaped equations (Lemma 4.10): fresh linear side vs a
// single impure variable, with growing packing depth.
void BM_UnifyPackShapes(benchmark::State& state) {
  size_t depth = static_cast<size_t>(state.range(0));
  Universe u;
  PathExpr lhs = MustExpr(u, "$v0");
  for (size_t d = 0; d < depth; ++d) {
    PathExpr inner = lhs;
    lhs = PathExpr();
    std::string name = "w";
    name += std::to_string(d);
    lhs.items.push_back(ExprItem::PathVar(u.InternVar(VarKind::kPath, name)));
    lhs.items.push_back(ExprItem::Pack(inner));
  }
  PathExpr rhs = MustExpr(u, "$x");
  for (auto _ : state) {
    Result<UnifyResult> res = UnifyExprs(u, lhs, rhs);
    if (!res.ok()) state.SkipWithError(res.status().ToString().c_str());
    benchmark::DoNotOptimize(res);
  }
}
BENCHMARK(BM_UnifyPackShapes)->Arg(1)->Arg(2)->Arg(3);

}  // namespace
}  // namespace seqdl

int main(int argc, char** argv) {
  seqdl::PrintFigure2();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
