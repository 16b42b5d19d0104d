// Pins every transform, plan and diagnostic rendering of the paper corpus
// (src/queries) byte for byte. Each row of Pinned() holds the FNV-1a hash
// of one output per entry of Outputs(); a transform that fails is pinned
// by its status text. A refactor of the passes these outputs come from
// must leave every hash as it is: fresh relation and variable names, rule
// order and plan steps included.
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "src/algebra/algebra.h"
#include "src/algebra/from_datalog.h"
#include "src/analysis/admission.h"
#include "src/analysis/lint.h"
#include "src/analysis/safety.h"
#include "src/engine/engine.h"
#include "src/queries/queries.h"
#include "src/syntax/printer.h"
#include "src/term/universe.h"
#include "src/transform/arity_elim.h"
#include "src/transform/doubling.h"
#include "src/transform/equation_elim.h"
#include "src/transform/fold_intermediates.h"
#include "src/transform/normal_form.h"
#include "src/transform/packing_elim.h"
#include "src/transform/simplify.h"

namespace seqdl {
namespace {

uint64_t Fnv1a(const std::string& s) {
  uint64_t h = 14695981039346656037ull;
  for (unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

std::string Rendered(const Universe& u, const Result<Program>& p) {
  return p.ok() ? FormatProgram(u, *p) : p.status().ToString();
}

// One output of a corpus entry, computed in a Universe that holds only the
// entry's parsed program, so fresh names do not depend on other outputs.
using Output = std::function<std::string(Universe&, const ParsedQuery&)>;

const std::vector<std::pair<std::string, Output>>& Outputs() {
  static const auto* outputs = new std::vector<std::pair<std::string, Output>>{
      {"EliminateEquations",
       [](Universe& u, const ParsedQuery& q) {
         return Rendered(u, EliminateEquations(u, q.program));
       }},
      {"EliminateArity",
       [](Universe& u, const ParsedQuery& q) {
         return Rendered(u, EliminateArity(u, q.program));
       }},
      {"EliminatePackingNonrecursive",
       [](Universe& u, const ParsedQuery& q) {
         return Rendered(u, EliminatePackingNonrecursive(u, q.program));
       }},
      {"ToNormalForm",
       [](Universe& u, const ParsedQuery& q) {
         return Rendered(u, ToNormalForm(u, q.program));
       }},
      {"SimplifyProgram",
       [](Universe& u, const ParsedQuery& q) {
         return FormatProgram(u, SimplifyProgram(u, q.program));
       }},
      {"FoldIntermediates",
       [](Universe& u, const ParsedQuery& q) {
         return Rendered(u, FoldIntermediates(u, q.program, q.output));
       }},
      {"EliminatePackingViaDoubling",
       [](Universe& u, const ParsedQuery& q) {
         return Rendered(u,
                         EliminatePackingViaDoubling(u, q.program, q.output));
       }},
      {"DatalogToAlgebra",
       [](Universe& u, const ParsedQuery& q) {
         Result<AlgebraPtr> a = DatalogToAlgebra(u, q.program, q.output);
         return a.ok() ? FormatAlgebra(u, **a) : a.status().ToString();
       }},
      {"ExplainPlan",
       [](Universe& u, const ParsedQuery& q) {
         Result<PreparedProgram> prog = Engine::Compile(u, q.program);
         return prog.ok() ? prog->ExplainPlan() : prog.status().ToString();
       }},
      {"Diagnostics",
       [](Universe& u, const ParsedQuery& q) {
         DiagnosticList diags;
         Status valid = ValidateProgram(u, q.program, &diags);
         LintOptions lint;
         lint.output = q.output;
         LintProgram(u, q.program, lint, &diags);
         return valid.ToString() + "\n" + diags.RenderText() +
                AnalyzeAdmission(u, q.program).diagnostics.RenderText();
       }},
  };
  return *outputs;
}

// Hashes in the order of Outputs(), per corpus entry.
const std::map<std::string, std::vector<uint64_t>>& Pinned() {
  static const auto* pinned =
      new std::map<std::string, std::vector<uint64_t>>{
          {"ex21_nfa",
           {0x08fe00f0e018c01eull, 0x0119128038217751ull, 0x27e8233723bffdcbull,
            0x69483909c4d7a98eull, 0x08fe00f0e018c01eull, 0x8fe5d1f3cb2a5259ull,
            0xf8ee9ccefc0420daull, 0xac483efa34867f2full, 0xbca44885c54b4570ull,
            0x5f6cd1f47a56bf66ull}},
          {"ex22_three_occurrences",
           {0x5a0fa1718da8f85eull, 0x9f40ece42f7dc843ull, 0x8af6dab0696f8b37ull,
            0xadbfa18fd9b22e64ull, 0x9f40ece42f7dc843ull, 0x38889aef41cc9f46ull,
            0xc6a2b019505ed28cull, 0x8a24b5fddb4a9b8dull, 0x7f62b5b1b0d6b732ull,
            0xfd84330113598210ull}},
          {"ex23_nonterminating",
           {0x17ad0d65c4927f24ull, 0x17ad0d65c4927f24ull, 0x27e8233723bffdcbull,
            0x69483909c4d7a98eull, 0x17ad0d65c4927f24ull, 0x8fe5d1f3cb2a5259ull,
            0x24cdb128db2cd226ull, 0xac483efa34867f2full, 0xccc5def07e9f46f0ull,
            0x340603e3613d8472ull}},
          {"ex31_only_as_e",
           {0x89441d7d6d70ea48ull, 0xa5ef388fc006bf9aull, 0xa5ef388fc006bf9aull,
            0xadbfa18fd9b22e64ull, 0xa5ef388fc006bf9aull, 0xa5ef388fc006bf9aull,
            0x1d0549b06b70dd82ull, 0x465df75bd16ea71dull, 0xbc119b0cd837c649ull,
            0x2fb61919bf35909full}},
          {"ex31_only_as_air",
           {0xbefe39bbb11495dfull, 0x8f2929fe967c28ffull, 0x27e8233723bffdcbull,
            0x69483909c4d7a98eull, 0xbefe39bbb11495dfull, 0x8fe5d1f3cb2a5259ull,
            0x1036b91f50e9a542ull, 0xac483efa34867f2full, 0x150f3be79d9d78cfull,
            0x2fb61919bf35909full}},
          {"ex43_reverse",
           {0x105a83f25fb70b65ull, 0xd42f29de244a91e7ull, 0x27e8233723bffdcbull,
            0x69483909c4d7a98eull, 0x105a83f25fb70b65ull, 0x8fe5d1f3cb2a5259ull,
            0xe0c1a87096139e30ull, 0xac483efa34867f2full, 0x0dd1f8837a3a6f99ull,
            0x605202e78e40e9d1ull}},
          {"ex43_reverse_noarity",
           {0x3b85954c7f5b57e3ull, 0x3b85954c7f5b57e3ull, 0x27e8233723bffdcbull,
            0x69483909c4d7a98eull, 0x3b85954c7f5b57e3ull, 0x8fe5d1f3cb2a5259ull,
            0x5805c84e2925bff2ull, 0xac483efa34867f2full, 0xba7a34e586b4bab6ull,
            0x4bb8673014504f12ull}},
          {"ex44_only_as_noeq",
           {0xe3147f46f72a5aaeull, 0x61ddf4ec76f83d44ull, 0x6eefbca8a684ad42ull,
            0x771208a42076a77bull, 0xe3147f46f72a5aaeull, 0xdcf3ae2d5feb0904ull,
            0x30b801d0fd5640adull, 0x465df75bd16ea71dull, 0x3a1e640b81d59b89ull,
            0x2fb61919bf35909full}},
          {"ex46_marked",
           {0x531479e1d18824b1ull, 0x961837d596782262ull, 0x27e8233723bffdcbull,
            0x69483909c4d7a98eull, 0x7fe1a277b8116a15ull, 0x8fe5d1f3cb2a5259ull,
            0x364b9d6641a4fb1cull, 0xac483efa34867f2full, 0x4363f8efc2cc12e0ull,
            0x2fb61919bf35909full}},
          {"squaring",
           {0xfd6b2a8f767d2dacull, 0xaac6414eef45e648ull, 0x27e8233723bffdcbull,
            0x69483909c4d7a98eull, 0xfd6b2a8f767d2dacull, 0x8fe5d1f3cb2a5259ull,
            0xd96961adc514f715ull, 0xac483efa34867f2full, 0x702ddfedd59b1d5bull,
            0xcb07eebc4508ef49ull}},
          {"reach_ab",
           {0x2c3513e252913c6cull, 0x2c3513e252913c6cull, 0x27e8233723bffdcbull,
            0x69483909c4d7a98eull, 0x2c3513e252913c6cull, 0x8fe5d1f3cb2a5259ull,
            0xca4f96c28d5fa716ull, 0xac483efa34867f2full, 0xffd04b57bd292365ull,
            0x326228c9f2d54dc3ull}},
          {"sec52_black",
           {0x31ae11a65b884206ull, 0x31ae11a65b884206ull, 0x31ae11a65b884206ull,
            0xbd4e0aee5edc635bull, 0x31ae11a65b884206ull, 0x3102b219581e7f51ull,
            0xabac54655288fe0dull, 0x81950c42cbfbf477ull, 0xa57ebeddd84ef63eull,
            0xa292f598f34689ffull}},
          {"doubling",
           {0x598b15b5f6a25a37ull, 0x92cdbd0d3ed603a7ull, 0x27e8233723bffdcbull,
            0x69483909c4d7a98eull, 0x598b15b5f6a25a37ull, 0x8fe5d1f3cb2a5259ull,
            0xf5d284a3aa40fa8aull, 0xac483efa34867f2full, 0xaa5b96793efc291eull,
            0x4ae64586d88f2ba2ull}},
          {"undoubling",
           {0x8568f486f9dfa907ull, 0x9d3a9901de90f617ull, 0x27e8233723bffdcbull,
            0x69483909c4d7a98eull, 0x8568f486f9dfa907ull, 0x8fe5d1f3cb2a5259ull,
            0xe33f5031e498a43aull, 0xac483efa34867f2full, 0x446bc20c3dcc47ffull,
            0xa5009b0e1753df94ull}},
          {"process_mining",
           {0x103e26963d3f333aull, 0xe7921749480ab118ull, 0xe83fa7e087d339e8ull,
            0xadbfa18fd9b22e64ull, 0xe83fa7e087d339e8ull, 0x256408716932b4e2ull,
            0x25e5927b7d5ba167ull, 0xc9991d7afc654d06ull, 0x6b8fe81b4c4b85e0ull,
            0x5cec49da818aa202ull}},
          {"json_sales",
           {0x4c727f5d740b2f70ull, 0x4c727f5d740b2f70ull, 0x4c727f5d740b2f70ull,
            0x3bda9bb29d773cbcull, 0x4c727f5d740b2f70ull, 0x4c727f5d740b2f70ull,
            0x7bcf5cdadf9a64c9ull, 0xccfddd7beea14a15ull, 0xa939a44a58ef325dull,
            0x2fb61919bf35909full}},
          {"deep_equal",
           {0xd44b71a2544d6e94ull, 0xd44b71a2544d6e94ull, 0xd44b71a2544d6e94ull,
            0x3d75874a50b7ff14ull, 0xd44b71a2544d6e94ull, 0x305551c9257a60dcull,
            0x55d62249f36be2a4ull, 0x4d23d720c0120fe2ull, 0x47fd97b6f9693e90ull,
            0x2fb61919bf35909full}},
          {"gcore_common_nodes",
           {0xd36d73411ec2a3dcull, 0xe03412c74b42c4a8ull, 0x7dde0c479995a5ebull,
            0xadbfa18fd9b22e64ull, 0xe0bce483671c7738ull, 0x35fbdcf799def6aeull,
            0x034791b92199e014ull, 0x6c54fbef217be256ull, 0xd754a6379471817aull,
            0xad178abcf17d5257ull}},
      };
  return *pinned;
}

TEST(CorpusTest, TransformOutputsAreUnchanged) {
  ASSERT_EQ(PaperCorpus().size(), Pinned().size());
  for (const PaperQuery& entry : PaperCorpus()) {
    auto pinned = Pinned().find(entry.id);
    ASSERT_NE(pinned, Pinned().end()) << entry.id;
    ASSERT_EQ(pinned->second.size(), Outputs().size()) << entry.id;
    for (size_t i = 0; i < Outputs().size(); ++i) {
      Universe u;
      Result<ParsedQuery> q = ParsePaperQuery(u, entry);
      ASSERT_TRUE(q.ok()) << entry.id << ": " << q.status().ToString();
      const auto& [name, output] = Outputs()[i];
      std::string text = output(u, *q);
      EXPECT_EQ(Fnv1a(text), pinned->second[i])
          << entry.id << " " << name << " changed; it now renders:\n"
          << text;
    }
  }
}

}  // namespace
}  // namespace seqdl
