#include <gtest/gtest.h>

#include "src/engine/engine.h"
#include "src/queries/regex.h"
#include "src/term/universe.h"
#include "src/workload/generators.h"

namespace seqdl {
namespace {

std::vector<uint32_t> Word(const std::string& s) {
  std::vector<uint32_t> out;
  for (char c : s) out.push_back(static_cast<uint32_t>(c - 'a'));
  return out;
}

// --- CompileRegex: NFA semantics ------------------------------------------------

struct RegexCase {
  const char* pattern;
  const char* accepted;  // space-separated words; "-" for the empty word
  const char* rejected;
};

class RegexCompileTest : public ::testing::TestWithParam<RegexCase> {};

std::vector<std::string> Split(const std::string& text) {
  std::vector<std::string> out;
  std::string cur;
  for (char c : text) {
    if (c == ' ') {
      if (!cur.empty()) out.push_back(cur);
      cur.clear();
    } else {
      cur += c;
    }
  }
  if (!cur.empty()) out.push_back(cur);
  for (std::string& s : out) {
    if (s == "-") s.clear();  // the empty word
  }
  return out;
}

TEST_P(RegexCompileTest, AcceptsAndRejects) {
  const RegexCase& c = GetParam();
  Result<Nfa> nfa = CompileRegex(c.pattern);
  ASSERT_TRUE(nfa.ok()) << c.pattern << ": " << nfa.status().ToString();
  for (const std::string& w : Split(c.accepted)) {
    EXPECT_TRUE(nfa->Accepts(Word(w)))
        << c.pattern << " should accept '" << w << "'";
  }
  for (const std::string& w : Split(c.rejected)) {
    EXPECT_FALSE(nfa->Accepts(Word(w)))
        << c.pattern << " should reject '" << w << "'";
  }
}

INSTANTIATE_TEST_SUITE_P(
    Patterns, RegexCompileTest,
    ::testing::Values(
        RegexCase{"a", "a", "- b aa"},
        RegexCase{"ab", "ab", "- a b ba abc"},
        RegexCase{"a|b", "a b", "- ab ba"},
        RegexCase{"a*", "- a aa aaa", "b ab"},
        RegexCase{"a+", "a aa", "- b"},
        RegexCase{"a?", "- a", "aa b"},
        RegexCase{"(ab)*", "- ab abab", "a b aba"},
        RegexCase{"(a|b)*ab", "ab aab bab abab", "- a b ba aba"},
        RegexCase{"a(b|c)d", "abd acd", "ad abcd abbd aabd"},
        RegexCase{"(a|b)(a|b)", "aa ab ba bb", "- a b aaa"},
        RegexCase{"a*b*", "- a b ab aabb", "ba aba"},
        RegexCase{"(a*)*", "- a aa", "b"}));

TEST(RegexCompileTest, SyntaxErrors) {
  EXPECT_FALSE(CompileRegex("(ab").ok());
  EXPECT_FALSE(CompileRegex("a)").ok());
  EXPECT_FALSE(CompileRegex("*a").ok());
  EXPECT_FALSE(CompileRegex("a||b").ok());
  EXPECT_FALSE(CompileRegex("A").ok());
}

// --- RegexToDatalog: the compiled program agrees with the NFA -------------------

TEST(RegexToDatalogTest, MatcherAgreesWithNfaOnRandomStrings) {
  for (const char* pattern : {"(a|b)*ab", "a*b*", "(ab)*", "a(b|c)*"}) {
    Universe u;
    Result<RegexQuery> q = RegexToDatalog(u, pattern);
    ASSERT_TRUE(q.ok()) << pattern;
    Result<Nfa> nfa = CompileRegex(pattern);
    ASSERT_TRUE(nfa.ok());

    Instance in;
    StringWorkload w;
    w.count = 15;
    w.max_len = 5;
    w.alphabet = 3;
    w.seed = 77;
    w.rel = u.RelName(q->input);
    Result<Instance> strings = RandomStrings(u, w);
    ASSERT_TRUE(strings.ok());
    in.UnionWith(*strings);
    // Also include the empty string.
    in.Add(q->input, {kEmptyPath});

    Result<PreparedProgram> prog = Engine::Compile(u, q->program);
    ASSERT_TRUE(prog.ok()) << prog.status().ToString();
    Result<Instance> out = prog->Run(in);
    ASSERT_TRUE(out.ok()) << out.status().ToString();
    for (const Tuple& t : in.Tuples(q->input)) {
      std::vector<uint32_t> word;
      bool in_alphabet = true;
      for (Value v : u.GetPath(t[0])) {
        uint32_t letter = static_cast<uint32_t>(u.AtomName(v.atom())[0] - 'a');
        in_alphabet &= letter < nfa->alphabet;
        word.push_back(letter);
      }
      bool expected = in_alphabet && nfa->Accepts(word);
      EXPECT_EQ(out->Contains(q->output, t), expected)
          << pattern << " on " << u.FormatPath(t[0]);
    }
  }
}

TEST(RegexToDatalogTest, TwoMatchersCoexist) {
  Universe u;
  Result<RegexQuery> q1 = RegexToDatalog(u, "a*");
  Result<RegexQuery> q2 = RegexToDatalog(u, "b*");
  ASSERT_TRUE(q1.ok());
  ASSERT_TRUE(q2.ok());
  EXPECT_NE(q1->input, q2->input);

  Instance in;
  in.Add(q1->input, {u.PathOfChars("aa")});
  in.Add(q2->input, {u.PathOfChars("aa")});
  Program combined = q1->program;
  for (const Stratum& s : q2->program.strata) combined.strata.push_back(s);
  Result<PreparedProgram> prog = Engine::Compile(u, combined);
  ASSERT_TRUE(prog.ok()) << prog.status().ToString();
  Result<Instance> out = prog->Run(in);
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  EXPECT_TRUE(out->Contains(q1->output, {u.PathOfChars("aa")}));
  EXPECT_FALSE(out->Contains(q2->output, {u.PathOfChars("aa")}));
}

}  // namespace
}  // namespace seqdl
