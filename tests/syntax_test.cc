#include <gtest/gtest.h>

#include <cstdlib>
#include <map>
#include <random>
#include <set>
#include <utility>

#include "src/engine/instance.h"
#include "src/syntax/ast.h"
#include "src/syntax/builder.h"
#include "src/syntax/lexer.h"
#include "src/syntax/parser.h"
#include "src/syntax/printer.h"
#include "src/term/universe.h"

namespace seqdl {
namespace {

// --- Lexer ----------------------------------------------------------------

// Pulls every token of `source`: up to kEnd, or up to a kError.
std::vector<Token> Lex(std::string_view source, std::string* error = nullptr) {
  Lexer lex(source);
  std::vector<Token> out;
  do {
    out.push_back(lex.Next());
  } while (out.back().kind != TokenKind::kEnd &&
           out.back().kind != TokenKind::kError);
  if (error != nullptr) *error = lex.error();
  return out;
}

TEST(LexerTest, BasicTokens) {
  std::vector<Token> toks = Lex("S($x) <- R($x), a ++ $x = $x.");
  std::vector<TokenKind> kinds;
  for (const Token& t : toks) kinds.push_back(t.kind);
  EXPECT_EQ(kinds.front(), TokenKind::kIdent);
  EXPECT_EQ(kinds.back(), TokenKind::kEnd);
  EXPECT_EQ(kinds.size(), 17u);
}

TEST(LexerTest, InterpunctAndPlusPlusAreConcat) {
  std::vector<Token> t1 = Lex("a·b");
  std::vector<Token> t2 = Lex("a ++ b");
  ASSERT_EQ(t1.size(), 4u);
  ASSERT_EQ(t2.size(), 4u);
  EXPECT_EQ(t1[1].kind, TokenKind::kConcat);
  EXPECT_EQ(t2[1].kind, TokenKind::kConcat);
}

TEST(LexerTest, ArrowVersusAngle) {
  std::vector<Token> toks = Lex("<- < > :-");
  ASSERT_EQ(toks.size(), 5u);
  EXPECT_EQ(toks[0].kind, TokenKind::kArrow);
  EXPECT_EQ(toks[1].kind, TokenKind::kLAngle);
  EXPECT_EQ(toks[2].kind, TokenKind::kRAngle);
  EXPECT_EQ(toks[3].kind, TokenKind::kArrow);
}

TEST(LexerTest, NeqVersusBang) {
  std::vector<Token> toks = Lex("!= ! not");
  ASSERT_EQ(toks.size(), 4u);
  EXPECT_EQ(toks[0].kind, TokenKind::kNeq);
  EXPECT_EQ(toks[1].kind, TokenKind::kBang);
  EXPECT_EQ(toks[2].kind, TokenKind::kNot);
}

TEST(LexerTest, CommentsAreSkipped) {
  std::vector<Token> toks = Lex("% comment\n# another\n// third\nS.");
  ASSERT_EQ(toks.size(), 3u);
  EXPECT_EQ(toks[0].kind, TokenKind::kIdent);
  EXPECT_EQ(toks[0].text, "S");
  EXPECT_EQ(toks[0].line, 4);
}

TEST(LexerTest, QuotedAtoms) {
  std::vector<Token> toks = Lex("\"complete order\"");
  ASSERT_EQ(toks.size(), 2u);
  EXPECT_EQ(toks[0].kind, TokenKind::kIdent);
  EXPECT_EQ(toks[0].text, "complete order");
}

TEST(LexerTest, StratumSeparator) {
  std::vector<Token> toks = Lex("---");
  EXPECT_EQ(toks[0].kind, TokenKind::kStratumSep);
}

TEST(LexerTest, ErrorsCarryPosition) {
  std::string error;
  std::vector<Token> toks = Lex("S(^)", &error);
  ASSERT_EQ(toks.back().kind, TokenKind::kError);
  EXPECT_EQ(toks.back().line, 1);
  EXPECT_EQ(toks.back().col, 3);
  EXPECT_EQ(error, "unexpected character '^'");
}

TEST(LexerTest, VariablesNeedNames) {
  EXPECT_EQ(Lex("$ x").back().kind, TokenKind::kError);
  EXPECT_EQ(Lex("@ x").back().kind, TokenKind::kError);
}

TEST(LexerTest, TokensAreViewsWithPositions) {
  const std::string src = "R(a·\"p q\",\n  $x) <- .";
  std::vector<Token> toks = Lex(src);
  ASSERT_EQ(toks.size(), 11u);
  for (const Token& t : toks) {
    if (t.kind == TokenKind::kEnd) continue;
    // Every text is a view into the source, at or after the token start.
    EXPECT_GE(t.text.data(), src.data() + t.offset);
    EXPECT_LE(t.text.data() + t.text.size(), src.data() + src.size());
  }
  EXPECT_EQ(toks[3].text, "·");
  EXPECT_EQ(toks[4].text, "p q");
  EXPECT_EQ(toks[4].offset, 5u);
  EXPECT_EQ(toks[6].text, "x");
  EXPECT_EQ(toks[6].line, 2);
  EXPECT_EQ(toks[6].col, 3);
  EXPECT_EQ(toks.back().col, 11);
}

TEST(LexerTest, RewindReplaysFromAToken) {
  Lexer lex("R(a). S(b, c).");
  std::vector<Token> first;
  for (int i = 0; i < 8; ++i) first.push_back(lex.Next());
  lex.Rewind(first[5]);  // S
  for (size_t i = 5; i < first.size(); ++i) {
    Token t = lex.Next();
    EXPECT_EQ(t.kind, first[i].kind);
    EXPECT_EQ(t.text, first[i].text);
    EXPECT_EQ(t.offset, first[i].offset);
    EXPECT_EQ(t.col, first[i].col);
  }
}

TEST(LexerTest, MultiByteIdentifiersNeedNoQuotes) {
  std::vector<Token> toks = Lex("é·日本·ω_1 a\xC2·b");
  ASSERT_EQ(toks.size(), 9u);
  EXPECT_EQ(toks[0].text, "é");
  EXPECT_EQ(toks[2].text, "日本");
  EXPECT_EQ(toks[4].text, "ω_1");
  // A lone 0xC2 is an identifier byte; only 0xC2 0xB7 separates.
  EXPECT_EQ(toks[5].text, "a\xC2");
  EXPECT_EQ(toks[6].kind, TokenKind::kConcat);
  EXPECT_EQ(toks[7].text, "b");
}

// --- Parser ----------------------------------------------------------------

TEST(ParserTest, OnlyAsProgram) {
  Universe u;
  Result<Program> p = ParseProgram(u, "S($x) <- R($x), a ++ $x = $x ++ a.");
  ASSERT_TRUE(p.ok()) << p.status().ToString();
  ASSERT_EQ(p->strata.size(), 1u);
  ASSERT_EQ(p->strata[0].rules.size(), 1u);
  const Rule& r = p->strata[0].rules[0];
  EXPECT_EQ(u.RelName(r.head.rel), "S");
  ASSERT_EQ(r.body.size(), 2u);
  EXPECT_TRUE(r.body[0].is_predicate());
  EXPECT_TRUE(r.body[1].is_equation());
  EXPECT_FALSE(r.body[1].negated);
}

TEST(ParserTest, FactsAndArityZero) {
  Universe u;
  Result<Program> p = ParseProgram(u, "A. R(a ++ b).");
  ASSERT_TRUE(p.ok());
  EXPECT_EQ(p->NumRules(), 2u);
  EXPECT_EQ(u.RelArity(p->strata[0].rules[0].head.rel), 0u);
  EXPECT_EQ(u.RelArity(p->strata[0].rules[1].head.rel), 1u);
}

TEST(ParserTest, EmptyPathForms) {
  Universe u;
  Result<Program> p1 = ParseProgram(u, "S(eps) <- R($x).");
  Result<Program> p2 = ParseProgram(u, "S(()) <- R($x).");
  ASSERT_TRUE(p1.ok());
  ASSERT_TRUE(p2.ok());
  EXPECT_TRUE(p1->strata[0].rules[0].head.args[0].empty());
  EXPECT_TRUE(p2->strata[0].rules[0].head.args[0].empty());
}

TEST(ParserTest, PackingNestsAndMixes) {
  Universe u;
  Result<PathExpr> e = ParsePathExpr(u, "@a ++ <<$x ++ $y> ++ $z> ++ <eps>");
  ASSERT_TRUE(e.ok()) << e.status().ToString();
  ASSERT_EQ(e->items.size(), 3u);
  EXPECT_EQ(e->items[0].kind, ExprItem::Kind::kAtomVar);
  EXPECT_EQ(e->items[1].kind, ExprItem::Kind::kPack);
  EXPECT_EQ(e->items[2].kind, ExprItem::Kind::kPack);
  EXPECT_TRUE(e->items[2].pack->empty());
}

TEST(ParserTest, NegationForms) {
  Universe u;
  Result<Program> p = ParseProgram(
      u, "S($x) <- R($x), !T($x), not W($x), $x != eps, not $x = a.");
  ASSERT_TRUE(p.ok()) << p.status().ToString();
  const Rule& r = p->strata[0].rules[0];
  ASSERT_EQ(r.body.size(), 5u);
  EXPECT_TRUE(r.body[1].negated);
  EXPECT_TRUE(r.body[2].negated);
  EXPECT_TRUE(r.body[3].negated);
  EXPECT_TRUE(r.body[3].is_equation());
  EXPECT_TRUE(r.body[4].negated);
}

TEST(ParserTest, DoubleNegatedNonequalityRejected) {
  Universe u;
  EXPECT_FALSE(ParseProgram(u, "S($x) <- R($x), !$x != a.").ok());
}

TEST(ParserTest, StrataSplit) {
  Universe u;
  Result<Program> p = ParseProgram(u,
                                   "W(@x) <- R(@x).\n"
                                   "---\n"
                                   "S(@x) <- R(@x), !W(@x).\n");
  ASSERT_TRUE(p.ok());
  ASSERT_EQ(p->strata.size(), 2u);
}

TEST(ParserTest, ArityMismatchIsError) {
  Universe u;
  Result<Program> p = ParseProgram(u, "R(a). S($x) <- R($x, $y).");
  EXPECT_FALSE(p.ok());
}

TEST(ParserTest, EquationWithAtomLhs) {
  Universe u;
  Result<Program> p = ParseProgram(u, "S($x) <- R($x), a = $x.");
  ASSERT_TRUE(p.ok());
  EXPECT_TRUE(p->strata[0].rules[0].body[1].is_equation());
}

TEST(ParserTest, EmptyBodyWithArrow) {
  Universe u;
  Result<Program> p = ParseProgram(u, "R(a) <- .");
  ASSERT_TRUE(p.ok());
  EXPECT_TRUE(p->strata[0].rules[0].body.empty());
}

TEST(ParserTest, MissingPeriodIsError) {
  Universe u;
  EXPECT_FALSE(ParseProgram(u, "S($x) <- R($x)").ok());
}

// --- Printer round-trips ----------------------------------------------------

void ExpectRoundTrip(const std::string& text) {
  Universe u;
  Result<Program> p1 = ParseProgram(u, text);
  ASSERT_TRUE(p1.ok()) << p1.status().ToString() << "\n" << text;
  std::string printed = FormatProgram(u, *p1);
  Result<Program> p2 = ParseProgram(u, printed);
  ASSERT_TRUE(p2.ok()) << p2.status().ToString() << "\n" << printed;
  EXPECT_EQ(FormatProgram(u, *p2), printed);
}

TEST(PrinterTest, RoundTripOnlyAs) {
  ExpectRoundTrip("S($x) <- R($x), a ++ $x = $x ++ a.");
}

TEST(PrinterTest, RoundTripNfa) {
  ExpectRoundTrip(
      "S(@q ++ $x, eps) <- R($x), N(@q).\n"
      "S(@q2 ++ $y, $z ++ @a) <- S(@q1 ++ @a ++ $y, $z), D(@q1, @a, @q2).\n"
      "A($x) <- S(@q, $x), F(@q).\n");
}

TEST(PrinterTest, RoundTripPacking) {
  ExpectRoundTrip(
      "T($u ++ <$s> ++ $v) <- R($u ++ $s ++ $v), S($s).\n"
      "A <- T($x), T($y), T($z), $x != $y, $x != $z, $y != $z.\n");
}

TEST(PrinterTest, RoundTripStrata) {
  ExpectRoundTrip(
      "W(@x) <- R(@x ++ @y), !B(@y).\n"
      "---\n"
      "S(@x) <- R(@x ++ @y), !W(@x).\n");
}

TEST(PrinterTest, RoundTripQuotedAtoms) {
  ExpectRoundTrip(
      "S($x, \"p q\", \"\", \"not\") <- R($x, \"x,y\" ++ é ++ \"a·b\").\n");
  // Relation names quote by the same rule, arity 0 and negated included.
  ExpectRoundTrip(
      "\"out rel\"($y) <- \"my rel\"($x, $y), !\"not\"($y).\n"
      "\"x,y\" <- \"out rel\"(a), 日本(b).\n");
  Universe u;
  ProgramBuilder b(u);
  EXPECT_EQ(FormatExpr(u, b.Cat({b.A("p q"), b.A("eps"), b.A("日本")})),
            "\"p q\"·\"eps\"·日本");
  Result<Program> p = ParseProgram(u, "\"out rel\"($y) <- \"my rel\"($x, $y).");
  ASSERT_TRUE(p.ok()) << p.status().ToString();
  EXPECT_EQ(FormatProgram(u, *p), "\"out rel\"($y) <- \"my rel\"($x, $y).\n");
}

TEST(PrinterTest, FormatExprForms) {
  Universe u;
  ProgramBuilder b(u);
  EXPECT_EQ(FormatExpr(u, b.Eps()), "eps");
  EXPECT_EQ(FormatExpr(u, b.Cat({b.A("a"), b.PV("x"), b.AV("q")})),
            "a·$x·@q");
  EXPECT_EQ(FormatExpr(u, b.Pk(b.Cat({b.A("a"), b.A("b")}))), "<a·b>");
}

// --- AST helpers -------------------------------------------------------------

TEST(AstTest, ExprEquality) {
  Universe u;
  ProgramBuilder b(u);
  EXPECT_EQ(b.Cat({b.A("a"), b.PV("x")}), b.Cat({b.A("a"), b.PV("x")}));
  EXPECT_NE(b.Cat({b.A("a"), b.PV("x")}), b.Cat({b.A("a"), b.PV("y")}));
  EXPECT_EQ(b.Pk(b.A("a")), b.Pk(b.A("a")));
  EXPECT_NE(b.Pk(b.A("a")), b.A("a"));
}

TEST(AstTest, CollectVarsOrderAndDedup) {
  Universe u;
  Result<PathExpr> e = ParsePathExpr(u, "$x ++ <@y ++ $x> ++ $z");
  ASSERT_TRUE(e.ok());
  std::vector<VarId> vars;
  CollectVars(*e, &vars);
  ASSERT_EQ(vars.size(), 3u);
  EXPECT_EQ(u.VarName(vars[0]), "x");
  EXPECT_EQ(u.VarName(vars[1]), "y");
  EXPECT_EQ(u.VarName(vars[2]), "z");
}

TEST(AstTest, EvalGroundExpr) {
  Universe u;
  Result<PathExpr> e = ParsePathExpr(u, "a ++ <b ++ c> ++ d");
  ASSERT_TRUE(e.ok());
  Result<PathId> p = EvalGroundExpr(u, *e);
  ASSERT_TRUE(p.ok());
  EXPECT_EQ(u.FormatPath(*p), "a·<b·c>·d");
  Result<PathExpr> bad = ParsePathExpr(u, "a ++ $x");
  ASSERT_TRUE(bad.ok());
  EXPECT_FALSE(EvalGroundExpr(u, *bad).ok());
}

TEST(AstTest, SubstituteSplicesPathVars) {
  Universe u;
  ProgramBuilder b(u);
  PathExpr e = b.Cat({b.A("a"), b.PV("x"), b.A("b")});
  ExprSubst subst;
  subst[u.InternVar(VarKind::kPath, "x")] = b.Cat({b.A("c"), b.A("d")});
  EXPECT_EQ(FormatExpr(u, SubstituteExpr(e, subst)), "a·c·d·b");
}

TEST(AstTest, SubstituteDescendsIntoPacks) {
  Universe u;
  ProgramBuilder b(u);
  PathExpr e = b.Pk(b.PV("x"));
  ExprSubst subst;
  subst[u.InternVar(VarKind::kPath, "x")] = b.A("a");
  EXPECT_EQ(FormatExpr(u, SubstituteExpr(e, subst)), "<a>");
}

TEST(AstTest, IdbEdbRels) {
  Universe u;
  Result<Program> p =
      ParseProgram(u, "T($x) <- R($x).\nS($x) <- T($x), !Q($x).");
  ASSERT_TRUE(p.ok());
  std::set<RelId> idb = IdbRels(*p);
  std::set<RelId> edb = EdbRels(*p);
  EXPECT_EQ(idb.size(), 2u);
  EXPECT_EQ(edb.size(), 2u);
  EXPECT_TRUE(idb.count(*u.FindRel("T")));
  EXPECT_TRUE(idb.count(*u.FindRel("S")));
  EXPECT_TRUE(edb.count(*u.FindRel("R")));
  EXPECT_TRUE(edb.count(*u.FindRel("Q")));
}

TEST(AstTest, ExprOfPathRoundTrip) {
  Universe u;
  PathId inner = u.PathOfChars("ab");
  PathId p = u.Append(u.PathOfChars("c"), Value::Packed(inner));
  PathExpr e = ExprOfPath(u, p);
  Result<PathId> back = EvalGroundExpr(u, e);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, p);
}

TEST(AstTest, RuleHasPackingChecksEverywhere) {
  Universe u;
  Result<Rule> r1 = ParseRule(u, "S(<$x>) <- R($x).");
  Result<Rule> r2 = ParseRule(u, "S($x) <- R($x), $x = <$y>.");
  Result<Rule> r3 = ParseRule(u, "S($x) <- R($x).");
  ASSERT_TRUE(r1.ok());
  ASSERT_TRUE(r2.ok());
  ASSERT_TRUE(r3.ok());
  EXPECT_TRUE(RuleHasPacking(*r1));
  EXPECT_TRUE(RuleHasPacking(*r2));
  EXPECT_FALSE(RuleHasPacking(*r3));
}

// --- ParseFacts against the rule path ------------------------------------------

// Seeded cases per test: SEQDL_DIFFTEST_ITERS, default 200.
size_t DiffIterations() {
  if (const char* env = std::getenv("SEQDL_DIFFTEST_ITERS")) {
    size_t n = std::strtoull(env, nullptr, 10);
    if (n > 0) return n;
  }
  return 200;
}

using Fact = std::pair<RelId, Tuple>;

// ParseInstance before the ground-fact path: the whole text parsed as a
// program, then each rule rejected if it has a body, then each argument
// evaluated with EvalGroundExpr. The oracle of the tests below.
Result<std::vector<Fact>> ReferenceFacts(Universe& u, std::string_view text) {
  SEQDL_ASSIGN_OR_RETURN(Program p, ParseProgram(u, text));
  std::vector<Fact> out;
  for (const Rule* r : p.AllRules()) {
    if (!r->body.empty()) {
      return Status::InvalidArgument("instance contains a non-fact rule: " +
                                     FormatRule(u, *r));
    }
    Tuple t;
    for (const PathExpr& e : r->head.args) {
      SEQDL_ASSIGN_OR_RETURN(PathId path, EvalGroundExpr(u, e));
      t.push_back(path);
    }
    out.emplace_back(r->head.rel, std::move(t));
  }
  return out;
}

// Seeded fact texts over A/0, R/1, S/2 and T/3: atoms bare, numeric,
// multi-byte and quoted; paths written with 'eps', '()', packs up to two
// deep and both concatenation spellings; facts ended by '.', ' <- .' or
// ':-.', separated by whitespace, all three comment styles and '---'.
// One case in five also holds one malformed rule somewhere; of the
// others, one in six gets 1-3 random byte edits, which may make several
// errors (or none).
class FactTextGenerator {
 public:
  explicit FactTextGenerator(uint64_t seed) : rng_(seed) {}

  std::string Generate() {
    std::string out;
    size_t facts = Below(10);
    size_t bad = Below(5) == 0 ? Below(facts + 1) : facts + 1;
    for (size_t i = 0; i <= facts; ++i) {
      Gap(&out);
      if (i == bad) {
        BadRule(&out, i == facts);
      } else if (i < facts) {
        Fact(&out);
      }
    }
    if (bad > facts && !out.empty() && Below(6) == 0) Mutate(&out);
    return out;
  }

  /// The features the last Generate() call emitted.
  const std::set<std::string>& features() const { return features_; }

 private:
  size_t Below(size_t n) { return rng_() % n; }

  void Gap(std::string* out) {
    switch (Below(9)) {
      case 0: *out += " % comment\n"; features_.insert("%"); return;
      case 1: *out += "\n# comment\n"; features_.insert("#"); return;
      case 2: *out += "// comment\n"; features_.insert("//"); return;
      case 3: *out += "\n---\n"; features_.insert("---"); return;
      case 4: *out += "\n"; return;
      case 5: return;
      default: *out += " "; return;
    }
  }

  void Fact(std::string* out) {
    static const char* const kRels[] = {"A", "R", "S", "T"};
    size_t arity = Below(4);
    *out += kRels[arity];
    if (arity == 0) features_.insert("arity 0");
    if (arity > 0 || Below(4) == 0) {
      *out += "(";
      for (size_t a = 0; a < arity; ++a) {
        if (a > 0) *out += Below(2) ? ", " : ",";
        Path(2, out);
      }
      *out += ")";
    }
    switch (Below(6)) {
      case 0: *out += " <- ."; features_.insert("<- ."); return;
      case 1: *out += ":-."; features_.insert("<- ."); return;
      default: *out += "."; return;
    }
  }

  void Path(int depth, std::string* out) {
    size_t items = Below(4);
    if (items == 0) {
      Empty(out);
      return;
    }
    for (size_t i = 0; i < items; ++i) {
      if (i > 0) {
        bool plus = Below(2);
        *out += plus ? " ++ " : "·";
        features_.insert(plus ? "++" : "·");
      }
      Item(depth, out);
    }
  }

  void Empty(std::string* out) {
    bool eps = Below(2);
    *out += eps ? "eps" : "()";
    features_.insert(eps ? "eps" : "()");
  }

  void Item(int depth, std::string* out) {
    static const char* const kAtoms[] = {
        "a",  "b",        "ab",       "0",      "42",       "007",
        "é",  "日本",     "\"p q\"",  "\"x,y\"", "\"\"",     "\"not\"",
        "\"a\"", "\"<a>\"", "\"a·b\"", "_x1"};
    size_t k = Below(12);
    if (k == 0) {
      Empty(out);
    } else if (k <= 2 && depth > 0) {
      *out += "<";
      if (Below(5) > 0) Path(depth - 1, out);
      *out += ">";
      if (depth == 1) features_.insert("<<");
    } else {
      const char* atom = kAtoms[Below(std::size(kAtoms))];
      *out += atom;
      if (atom[0] == '"') features_.insert("quoted");
      if (atom[0] >= '0' && atom[0] <= '9') features_.insert("number");
    }
  }

  // Deletes, inserts or replaces single bytes; the inserted ones are
  // syntax characters and halves of an interpunct.
  void Mutate(std::string* out) {
    static const char kBytes[] = "\"<>(),.$@+-:!=#% \n^\xC2\xB7";
    features_.insert("mutated");
    for (size_t n = 1 + Below(3); n > 0 && !out->empty(); --n) {
      size_t at = Below(out->size());
      char c = kBytes[Below(sizeof(kBytes) - 1)];
      switch (Below(3)) {
        case 0: out->erase(at, 1); break;
        case 1: out->insert(at, 1, c); break;
        default: (*out)[at] = c; break;
      }
    }
  }

  // One malformed rule; an unterminated string only at the end, since it
  // swallows the rest of the text.
  void BadRule(std::string* out, bool last) {
    static const char* const kBad[] = {
        "R($x).",       "S(a, <@y>).", "R(a) <- S(b, c).", "R(a, b).",
        "R(a b).",      "R(a ^).",     "S(<<a>, b).",      "T(a, b) :- .",
        "A <- a = a.",  "R(a)",        "R(a) : ."};
    features_.insert("error");
    if (last && Below(4) == 0) {
      *out += "R(\"a";
      return;
    }
    *out += kBad[Below(std::size(kBad))];
  }

  std::mt19937_64 rng_;
  std::set<std::string> features_;
};

TEST(SyntaxTest, ParseFactsMatchRulePath) {
  size_t cases = 10 * DiffIterations();
  std::map<std::string, size_t> seen;
  size_t failures = 0;
  for (uint64_t seed = 1; seed <= cases; ++seed) {
    FactTextGenerator gen(seed);
    std::string text = gen.Generate();
    SCOPED_TRACE("seed " + std::to_string(seed) + ":\n" + text);
    for (const std::string& f : gen.features()) ++seen[f];

    Universe ref_u;
    Result<std::vector<Fact>> want = ReferenceFacts(ref_u, text);
    Universe u;
    Result<Instance> got = ParseInstance(u, text);
    Universe seq_u;
    std::vector<Fact> seq;
    Status st = ParseFacts(seq_u, text,
                           [&seq](RelId rel, std::span<const PathId> args) {
                             seq.emplace_back(rel,
                                              Tuple(args.begin(), args.end()));
                           });
    ASSERT_EQ(got.ok(), want.ok())
        << got.status().ToString() << want.status().ToString();
    ASSERT_EQ(st.ok(), want.ok());
    if (!want.ok()) {
      ++failures;
      EXPECT_EQ(got.status().code(), StatusCode::kInvalidArgument);
      // With one error both name it alike; an edited text may hold
      // several, and then only the rule path reports a later one.
      if (gen.features().count("mutated") == 0) {
        EXPECT_EQ(got.status().message(), want.status().message());
        EXPECT_EQ(st.message(), want.status().message());
      }
      continue;
    }
    // The same facts, in the same order, with the same ids, from a
    // Universe grown exactly as the rule path grows it.
    EXPECT_EQ(seq, *want);
    Instance ref_inst;
    for (const Fact& f : *want) ref_inst.Add(f.first, f.second);
    EXPECT_TRUE(*got == ref_inst);
    for (const Universe* other : {&u, &seq_u}) {
      EXPECT_EQ(other->num_atoms(), ref_u.num_atoms());
      EXPECT_EQ(other->num_paths(), ref_u.num_paths());
      EXPECT_EQ(other->num_rels(), ref_u.num_rels());
      EXPECT_EQ(other->num_vars(), ref_u.num_vars());
    }
  }
  // The generator must keep reaching every shape it is meant to cover.
  for (const char* f : {"%", "#", "//", "---", "arity 0", "<- .", "++", "·",
                        "eps", "()", "<<", "quoted", "number"}) {
    EXPECT_GT(seen[f], cases / 10) << "cases with " << f;
  }
  EXPECT_GT(seen["mutated"], cases / 20) << "cases with byte edits";
  EXPECT_GT(failures, cases / 10) << "cases with an error";
  EXPECT_LT(failures, cases / 2) << "cases with an error";
}

// Single-error inputs and the exact message each gets; ParseInstance's
// messages before the ground-fact path.
TEST(SyntaxTest, ParseFactsErrorMessagesStay) {
  const std::pair<const char*, const char*> kGolden[] = {
      {"R(a).\nS(b ^ c).", "lex error at 2:5: unexpected character '^'"},
      {"R(a). -", "lex error at 1:7: unexpected '-'"},
      {"R(a) : .", "lex error at 1:7: expected '-' after ':'"},
      {"R(@ x).", "lex error at 1:4: expected variable name after '@'"},
      {"R(a).\nS(\"b).", "lex error at 2:7: unterminated string"},
      {"R(a).\nS(b c).", "parse error at 2:5: expected ')', found identifier"},
      {"R(a). S(b", "parse error at 1:10: expected ')', found end of input"},
      {"R(a).\n---\nS(b c).",
       "parse error at 3:5: expected ')', found identifier"},
      {"R(a) <- .\nS(a) % c\n// d\n(",
       "parse error at 4:1: expected '.', found '('"},
      {"R(a).\nS(<a <b>).", "parse error at 2:6: expected '>', found '<'"},
      {"R(a).\nS(a·).",
       "parse error at 2:6: expected path expression item, found ')'"},
      {"eps(a).", "parse error at 1:1: expected relation name"},
      {"S(b) <- R(a.", "parse error at 1:12: expected ')', found '.'"},
      {"R(a) R(b).", "parse error at 1:6: expected '.', found identifier"},
      {"R(a).\nS($x, b).", "EvalGroundExpr: expression contains variable x"},
      {"R(<@x>).", "EvalGroundExpr: expression contains variable x"},
      {"R(a).\nS(b) <- R(a).",
       "instance contains a non-fact rule: S(b) <- R(a)."},
      {"A <- a = a.", "instance contains a non-fact rule: A <- a = a."},
      {"R(a).\nR(a, b).",
       "relation R used with arity 2 but previously declared with arity 1"},
      {"R(a). R.",
       "relation R used with arity 0 but previously declared with arity 1"},
  };
  for (const auto& [text, message] : kGolden) {
    Universe u;
    Result<Instance> got = ParseInstance(u, text);
    ASSERT_FALSE(got.ok()) << text;
    EXPECT_EQ(got.status().code(), StatusCode::kInvalidArgument) << text;
    EXPECT_EQ(got.status().message(), message) << text;
    Universe ref_u;
    Result<std::vector<Fact>> want = ReferenceFacts(ref_u, text);
    ASSERT_FALSE(want.ok()) << text;
    EXPECT_EQ(want.status().message(), message) << text;
  }
}

// Several errors: the first in text order wins, whether lex, parse or a
// rule (a whole-text tokenization used to report any lex error first).
TEST(SyntaxTest, ParseFactsReportFirstErrorInTextOrder) {
  Universe u;
  EXPECT_EQ(ParseInstance(u, "R(a b). S(^).").status().message(),
            "parse error at 1:5: expected ')', found identifier");
  EXPECT_EQ(ParseInstance(u, "R($x). S(b c).").status().message(),
            "EvalGroundExpr: expression contains variable x");
  EXPECT_EQ(ParseProgram(u, "S($x) <- R($x) R. T(^).").status().message(),
            "parse error at 1:16: expected '.', found identifier");
  // Facts before the error reached the callback; none after it did.
  size_t facts = 0;
  Status st = ParseFacts(u, "R(a). R(b). S(a) <- R(a). R(c).",
                         [&facts](RelId, std::span<const PathId>) { ++facts; });
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(facts, 2u);
}

}  // namespace
}  // namespace seqdl
