// Process mining over event logs (the paper's first motivating
// application): find all logs in which every occurrence of 'co'
// (complete order) is eventually followed by 'rp' (receive payment).
//
// Demonstrates: equations for sequence pattern matching, stratified
// negation for the "for every occurrence" quantification, and the
// workload generators.
#include <cstdio>

#include "src/engine/engine.h"
#include "src/queries/queries.h"
#include "src/syntax/printer.h"
#include "src/term/universe.h"
#include "src/workload/generators.h"

int main() {
  seqdl::Universe u;

  // The corpus carries the paper-derived program:
  //   HasRp($v) <- R($u ++ co ++ $v), $v = $s ++ rp ++ $t.
  //   Bad($x)   <- R($x), $x = $u ++ co ++ $v, !HasRp($v).
  //   Good($x)  <- R($x), !Bad($x).
  seqdl::Result<seqdl::ParsedQuery> query =
      seqdl::ParsePaperQuery(u, "process_mining");
  if (!query.ok()) {
    std::fprintf(stderr, "%s\n", query.status().ToString().c_str());
    return 1;
  }
  std::printf("program:\n%s\n",
              seqdl::FormatProgram(u, query->program).c_str());

  // A hand-written event log plus random ones.
  seqdl::Result<seqdl::Instance> logs = seqdl::ParseInstance(u, R"(
    R(browse ++ co ++ pack ++ ship ++ rp).
    R(browse ++ co ++ pack ++ ship).
    R(rp ++ co).
    R(co ++ rp ++ co ++ rp).
  )");
  if (!logs.ok()) {
    std::fprintf(stderr, "%s\n", logs.status().ToString().c_str());
    return 1;
  }
  seqdl::EventLogWorkload w;
  w.count = 6;
  w.len = 7;
  w.seed = 11;
  seqdl::Result<seqdl::Instance> random = seqdl::RandomEventLogs(u, w);
  if (!random.ok()) {
    std::fprintf(stderr, "%s\n", random.status().ToString().c_str());
    return 1;
  }
  logs->UnionWith(*random);

  seqdl::Result<seqdl::PreparedProgram> compliance =
      seqdl::Engine::Compile(u, query->program);
  if (!compliance.ok()) {
    std::fprintf(stderr, "%s\n", compliance.status().ToString().c_str());
    return 1;
  }
  seqdl::Result<seqdl::Instance> out = compliance->Run(*logs);
  if (!out.ok()) {
    std::fprintf(stderr, "%s\n", out.status().ToString().c_str());
    return 1;
  }

  seqdl::RelId r = *u.FindRel("R");
  std::printf("%-55s %s\n", "event log", "compliant?");
  for (seqdl::TupleRef t : out->Tuples(r)) {
    std::printf("%-55s %s\n", u.FormatPath(t[0]).c_str(),
                out->Contains(query->output, t) ? "yes" : "NO");
  }
  return 0;
}
