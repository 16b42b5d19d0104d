// Example 2.1: regular-language matching in Sequence Datalog. An NFA is
// stored as classical relations (N initial states, D transitions, F final
// states); the recursive program computes which strings from R the
// automaton accepts. The result is cross-checked against a direct C++
// simulator.
#include <cstdio>

#include "src/engine/engine.h"
#include "src/queries/queries.h"
#include "src/syntax/printer.h"
#include "src/term/universe.h"
#include "src/workload/generators.h"

int main() {
  seqdl::Universe u;
  seqdl::Result<seqdl::ParsedQuery> query =
      seqdl::ParsePaperQuery(u, "ex21_nfa");
  if (!query.ok()) {
    std::fprintf(stderr, "%s\n", query.status().ToString().c_str());
    return 1;
  }
  std::printf("program (Example 2.1):\n%s\n",
              seqdl::FormatProgram(u, query->program).c_str());

  // An NFA for the language (a|b)*ab: q0 --a/b--> q0, q0 --a--> q1,
  // q1 --b--> q2 (accepting).
  seqdl::Nfa nfa;
  nfa.num_states = 3;
  nfa.alphabet = 2;
  nfa.initial = {true, false, false};
  nfa.accepting = {false, false, true};
  nfa.delta.assign(3, std::vector<std::vector<uint32_t>>(2));
  nfa.delta[0][0] = {0, 1};  // a
  nfa.delta[0][1] = {0};     // b
  nfa.delta[1][1] = {2};     // b
  seqdl::Result<seqdl::Instance> in = seqdl::NfaToInstance(u, nfa);
  if (!in.ok()) {
    std::fprintf(stderr, "%s\n", in.status().ToString().c_str());
    return 1;
  }

  seqdl::StringWorkload w;
  w.count = 10;
  w.min_len = 1;
  w.max_len = 6;
  w.seed = 23;
  seqdl::Result<seqdl::Instance> strings = seqdl::RandomStrings(u, w);
  in->UnionWith(*strings);

  seqdl::Result<seqdl::PreparedProgram> matcher =
      seqdl::Engine::Compile(u, query->program);
  if (!matcher.ok()) {
    std::fprintf(stderr, "%s\n", matcher.status().ToString().c_str());
    return 1;
  }
  seqdl::Result<seqdl::Instance> out = matcher->Run(*in);
  if (!out.ok()) {
    std::fprintf(stderr, "%s\n", out.status().ToString().c_str());
    return 1;
  }

  std::printf("language: (a|b)*ab\n");
  std::printf("%-16s %-10s %-10s\n", "string", "datalog", "simulator");
  seqdl::RelId r = *u.FindRel("R");
  for (const seqdl::Tuple& t : out->Tuples(r)) {
    std::vector<uint32_t> word;
    for (seqdl::Value v : u.GetPath(t[0])) {
      word.push_back(static_cast<uint32_t>(u.AtomName(v.atom())[0] - 'a'));
    }
    bool datalog = out->Contains(query->output, t);
    bool direct = nfa.Accepts(word);
    std::printf("%-16s %-10s %-10s%s\n", u.FormatPath(t[0]).c_str(),
                datalog ? "accept" : "reject",
                direct ? "accept" : "reject",
                datalog == direct ? "" : "   MISMATCH");
  }
  return 0;
}
