// The JSON restructuring example from the paper's introduction: a Sales
// object mapping items to per-year volumes, modeled as a set of length-3
// paths item·year·value, regrouped by year instead of item — "simply
// swapping the first two elements of every sequence". Also shows packing
// used to build a nested (non-flat) grouped representation, and a
// deep-equality check between two objects.
#include <cstdio>
#include <utility>

#include "src/engine/engine.h"
#include "src/engine/instance.h"
#include "src/syntax/parser.h"
#include "src/syntax/printer.h"
#include "src/term/universe.h"

int main() {
  seqdl::Universe u;

  seqdl::Result<seqdl::Instance> sales = seqdl::ParseInstance(u, R"(
    Sales(widget ++ y2020 ++ 100).
    Sales(widget ++ y2021 ++ 120).
    Sales(gadget ++ y2020 ++ 7).
    Sales(gadget ++ y2022 ++ 15).
  )");
  if (!sales.ok()) {
    std::fprintf(stderr, "%s\n", sales.status().ToString().c_str());
    return 1;
  }

  // Regroup by year; additionally build a nested view year·<item·value>
  // using packing, and compare the original object against a reference
  // object with deep equality (two objects are deep-equal iff their sets of
  // paths coincide).
  seqdl::Result<seqdl::Program> program = seqdl::ParseProgram(u, R"(
    ByYear(@year ++ @item ++ @value) <- Sales(@item ++ @year ++ @value).
    Nested(@year ++ <@item ++ @value>) <- Sales(@item ++ @year ++ @value).
    ---
    Diff <- Sales($x), !Reference($x).
    Diff <- Reference($x), !Sales($x).
    ---
    DeepEqual <- !Diff.
  )");
  if (!program.ok()) {
    std::fprintf(stderr, "%s\n", program.status().ToString().c_str());
    return 1;
  }
  std::printf("program:\n%s\n",
              seqdl::FormatProgram(u, *program).c_str());

  // A reference object that differs in one leaf.
  seqdl::Result<seqdl::Instance> reference = seqdl::ParseInstance(u, R"(
    Reference(widget ++ y2020 ++ 100).
    Reference(widget ++ y2021 ++ 120).
    Reference(gadget ++ y2020 ++ 7).
    Reference(gadget ++ y2022 ++ 99).
  )");
  sales->UnionWith(*reference);

  seqdl::Result<seqdl::PreparedProgram> regroup =
      seqdl::Engine::Compile(u, std::move(*program));
  if (!regroup.ok()) {
    std::fprintf(stderr, "%s\n", regroup.status().ToString().c_str());
    return 1;
  }
  seqdl::Result<seqdl::Instance> out = regroup->Run(*sales);
  if (!out.ok()) {
    std::fprintf(stderr, "%s\n", out.status().ToString().c_str());
    return 1;
  }

  std::printf("grouped by year:\n%s\n",
              out->Project({*u.FindRel("ByYear")}).ToString(u).c_str());
  std::printf("nested view (packing):\n%s\n",
              out->Project({*u.FindRel("Nested")}).ToString(u).c_str());
  std::printf("Sales deep-equal to Reference: %s\n",
              out->Contains(*u.FindRel("DeepEqual"), {}) ? "yes" : "no");
  return 0;
}
