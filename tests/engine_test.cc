#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <functional>
#include <random>
#include <set>
#include <span>
#include <utility>
#include <vector>

#include "src/engine/engine.h"
#include "src/engine/instance.h"
#include "src/engine/match.h"
#include "src/syntax/parser.h"
#include "src/term/universe.h"
#include "src/workload/baselines.h"
#include "src/workload/generators.h"
#include "tests/test_support.h"

namespace seqdl {
namespace {

PathExpr MustExpr(Universe& u, const std::string& text) {
  Result<PathExpr> e = ParsePathExpr(u, text);
  EXPECT_TRUE(e.ok()) << e.status().ToString();
  return std::move(e).value();
}

// Seeded differential cases per test: SEQDL_DIFFTEST_ITERS, default 200.
size_t DiffIterations() {
  if (const char* env = std::getenv("SEQDL_DIFFTEST_ITERS")) {
    size_t n = std::strtoull(env, nullptr, 10);
    if (n > 0) return n;
  }
  return 200;
}

// --- Instance ---------------------------------------------------------------

TEST(InstanceTest, AddAndContains) {
  Universe u;
  Instance i;
  RelId r = *u.InternRel("R", 1);
  EXPECT_TRUE(i.Add(r, {u.PathOfChars("ab")}));
  EXPECT_FALSE(i.Add(r, {u.PathOfChars("ab")}));  // duplicate
  EXPECT_TRUE(i.Contains(r, {u.PathOfChars("ab")}));
  EXPECT_FALSE(i.Contains(r, {u.PathOfChars("ba")}));
  EXPECT_EQ(i.NumFacts(), 1u);
}

TEST(InstanceTest, ParseAndToString) {
  Universe u;
  Instance i = MustInstance(u, "R(a ++ b). R(eps). S(<a> ++ c). A.");
  EXPECT_EQ(i.NumFacts(), 4u);
  EXPECT_EQ(i.ToString(u), "A.\nR(()).\nR(a·b).\nS(<a>·c).\n");
}

TEST(InstanceTest, ParseRejectsRules) {
  Universe u;
  EXPECT_FALSE(ParseInstance(u, "S($x) <- R($x).").ok());
  EXPECT_FALSE(ParseInstance(u, "S($x).").ok());
}

TEST(InstanceTest, FlatCheck) {
  Universe u;
  EXPECT_TRUE(MustInstance(u, "R(a ++ b).").IsFlat(u));
  EXPECT_FALSE(MustInstance(u, "Q(<a> ++ b).").IsFlat(u));
}

TEST(InstanceTest, EqualityAndUnion) {
  Universe u;
  Instance a = MustInstance(u, "R(a). R(b).");
  Instance b = MustInstance(u, "R(b). R(a).");
  EXPECT_EQ(a, b);
  Instance c = MustInstance(u, "R(a). R(c).");
  EXPECT_NE(a, c);
  EXPECT_EQ(a.UnionWith(c), 1u);  // only R(c) is new
  EXPECT_EQ(a.NumFacts(), 3u);
}

TEST(InstanceTest, Project) {
  Universe u;
  Instance i = MustInstance(u, "R(a). S(b).");
  Instance p = i.Project({*u.FindRel("S")});
  EXPECT_EQ(p.NumFacts(), 1u);
  EXPECT_TRUE(p.Contains(*u.FindRel("S"), {u.PathOfChars("b")}));
}

// The line-per-string renderer Instance::ToString used before it wrote
// every fact into one buffer: a std::string per value, path and line,
// lines sorted as std::strings. The oracle of the rendering tests below.
std::string ReferencePath(const Universe& u, PathId p) {
  std::span<const Value> a = u.GetPath(p);
  if (a.empty()) return "()";
  std::string out;
  for (size_t i = 0; i < a.size(); ++i) {
    if (i > 0) out += "·";
    if (a[i].is_atom()) {
      out += u.AtomName(a[i].atom());
    } else {
      out += "<";
      out += ReferencePath(u, a[i].packed_path());
      out += ">";
    }
  }
  return out;
}

std::string ReferenceRender(const Universe& u, const Instance& inst) {
  std::vector<std::string> lines;
  for (RelId rel : inst.Relations()) {
    for (TupleRef t : inst.Tuples(rel)) {
      std::string line = u.RelName(rel);
      if (!t.empty()) {
        line += "(";
        for (size_t i = 0; i < t.size(); ++i) {
          if (i > 0) line += ", ";
          line += ReferencePath(u, t[i]);
        }
        line += ")";
      }
      line += ".";
      lines.push_back(std::move(line));
    }
  }
  std::sort(lines.begin(), lines.end());
  std::string out;
  for (const std::string& l : lines) {
    out += l;
    out += "\n";
  }
  return out;
}

// Random instances over relations named from `rels` (by default R, RS,
// S, SR, whose names prefix each other; interned in a seeded order so
// RelId order is not name order) with arities 0 to `max_arity`, and
// paths of 0-4 values over `atoms` (by default ASCII and multi-byte
// UTF-8 names; also interned in a seeded order), packs nested two deep.
class RenderCaseGenerator {
 public:
  RenderCaseGenerator(Universe& u, uint64_t seed,
                      std::vector<std::string> atoms = {"a", "b", "ab", "z",
                                                        "A", "é", "ω",
                                                        "日本"},
                      std::vector<std::string> rels = {"R", "RS", "S", "SR"},
                      uint32_t max_arity = 3)
      : u_(u),
        rng_(seed),
        atom_names_(std::move(atoms)),
        rel_names_(std::move(rels)),
        max_arity_(max_arity) {}

  struct Case {
    Instance inst;
    std::vector<RelId> rels;  // every relation of the case, even if empty
  };

  Case Generate() {
    std::vector<std::string> atoms = atom_names_;
    std::shuffle(atoms.begin(), atoms.end(), rng_);
    for (const std::string& a : atoms) {
      atoms_.push_back(Value::Atom(u_.InternAtom(a)));
    }
    std::vector<std::string> names = rel_names_;
    std::shuffle(names.begin(), names.end(), rng_);
    Case c;
    size_t num_rels = 1 + Below(names.size());
    for (size_t i = 0; i < num_rels; ++i) {
      uint32_t arity = static_cast<uint32_t>(Below(max_arity_ + 1));
      RelId rel = *u_.InternRel(names[i], arity);
      c.rels.push_back(rel);
      size_t facts = arity == 0 ? Below(2) : Below(7);
      for (size_t f = 0; f < facts; ++f) c.inst.Add(rel, Fact(rel));
    }
    return c;
  }

  /// A random tuple of `rel`'s arity (after Generate).
  Tuple Fact(RelId rel) {
    Tuple t;
    for (uint32_t col = 0; col < u_.RelArity(rel); ++col) t.push_back(Path(2));
    return t;
  }

  size_t Below(size_t n) { return rng_() % n; }

 private:

  // A path of 0-4 values; each is packed with probability 1/4 while
  // `depth` allows it.
  PathId Path(int depth) {
    std::vector<Value> values(Below(5));
    for (Value& v : values) {
      v = depth > 0 && Below(4) == 0 ? Value::Packed(Path(depth - 1))
                                     : atoms_[Below(atoms_.size())];
    }
    return u_.InternPath(values);
  }

  Universe& u_;
  std::mt19937_64 rng_;
  std::vector<std::string> atom_names_;
  std::vector<std::string> rel_names_;
  uint32_t max_arity_;
  std::vector<Value> atoms_;
};

TEST(InstanceTest, RenderMatchesReferenceRenderer) {
  size_t cases = 10 * DiffIterations();
  size_t arity0 = 0, nested = 0, multibyte = 0, prefixed = 0;
  for (uint64_t seed = 1; seed <= cases; ++seed) {
    Universe u;
    RenderCaseGenerator gen(u, seed);
    RenderCaseGenerator::Case c = gen.Generate();
    SCOPED_TRACE("seed " + std::to_string(seed));
    std::string want = ReferenceRender(u, c.inst);
    ASSERT_EQ(c.inst.ToString(u), want);
    for (RelId rel : c.rels) {
      EXPECT_EQ(c.inst.ToString(u, {&rel, 1}),
                ReferenceRender(u, c.inst.Project({rel})));
      for (TupleRef t : c.inst.Tuples(rel)) {
        for (PathId p : t) EXPECT_EQ(u.FormatPath(p), ReferencePath(u, p));
      }
    }
    // Several relations at once, in a seeded order, sometimes repeated.
    std::vector<RelId> some;
    for (RelId rel : c.rels) {
      if ((seed >> rel) & 1) some.insert(some.begin(), rel);
    }
    if (!some.empty() && seed % 3 == 0) some.push_back(some.front());
    EXPECT_EQ(c.inst.ToString(u, some),
              ReferenceRender(u, c.inst.Project(some)));
    EXPECT_EQ(c.inst.ToString(u, c.rels), want);

    arity0 += want.find("R.\n") != std::string::npos ||
              want.find("S.\n") != std::string::npos;
    nested += want.find("<<") != std::string::npos;
    multibyte += want.find("日本") != std::string::npos;
    std::set<std::string> rendered;
    for (RelId rel : c.inst.Relations()) rendered.insert(u.RelName(rel));
    prefixed += rendered.count("R") && rendered.count("RS");
  }
  // The generator must keep reaching every shape it is meant to cover.
  EXPECT_GT(arity0, cases / 10) << "cases with an arity-0 fact";
  EXPECT_GT(nested, cases / 10) << "cases with a pack inside a pack";
  EXPECT_GT(multibyte, cases / 4) << "cases with a multi-byte atom";
  EXPECT_GT(prefixed, cases / 20) << "cases with both R and RS facts";
}

// Renderings are wire data: a coordinator parses shard answers and routed
// batches back. Atoms and relation names that are no bare identifier
// render quoted, so every rendering parses back to the same facts.
TEST(InstanceTest, RenderParsesBack) {
  const std::vector<std::string> atoms = {"",    "p q", "x,y", "a·b", "<a>",
                                          "not", "eps", "é",   "日本"};
  const std::vector<std::string> rels = {"R", "my rel", "x,y", "not", "日本"};
  size_t cases = DiffIterations();
  size_t quoted = 0, bare = 0, nested = 0, empty_name = 0, quoted_rel = 0;
  for (uint64_t seed = 1; seed <= cases; ++seed) {
    Universe u;
    RenderCaseGenerator gen(u, seed, atoms, rels);
    RenderCaseGenerator::Case c = gen.Generate();
    std::string text = c.inst.ToString(u);
    SCOPED_TRACE("seed " + std::to_string(seed) + ":\n" + text);
    // Into a fresh Universe, as a coordinator parses a shard's answer.
    Universe fresh;
    Result<Instance> back = ParseInstance(fresh, text);
    ASSERT_TRUE(back.ok()) << back.status().ToString();
    EXPECT_EQ(back->ToString(fresh), text);
    for (RelId rel : c.inst.Relations()) {
      Result<RelId> same = fresh.FindRel(u.RelName(rel));
      ASSERT_TRUE(same.ok());
      EXPECT_EQ(back->Tuples(*same).size(), c.inst.Tuples(rel).size());
    }
    // Into the same Universe: the very same facts.
    Result<Instance> again = ParseInstance(u, text);
    ASSERT_TRUE(again.ok()) << again.status().ToString();
    EXPECT_TRUE(*again == c.inst);

    quoted += text.find("\"p q\"") != std::string::npos;
    bare += text.find("日本") != std::string::npos;
    nested += text.find("<<") != std::string::npos;
    empty_name += text.find("\"\"") != std::string::npos;
    quoted_rel += text.find("\"my rel\"") != std::string::npos &&
                  text.find("\"not\"(") != std::string::npos;
  }
  EXPECT_GT(quoted, cases / 4) << "cases with a quoted atom";
  EXPECT_GT(bare, cases / 4) << "cases with a bare multi-byte atom";
  EXPECT_GT(nested, cases / 10) << "cases with a pack inside a pack";
  EXPECT_GT(empty_name, cases / 4) << "cases with an empty atom name";
  EXPECT_GT(quoted_rel, cases / 20) << "cases with two quoted relations";
}

// PatchOutput against RenderOutput: seeded (before, after) pairs where
// `after` keeps each fact of `before` with probability 3/4, loses whole
// relations, and gains 0-3 new facts per relation (so relations appear
// and vanish), over quoted atoms and relation names, packs two deep and
// eps, arities 0-2. The patch of every output ("" and each relation)
// must be the rendering of `after`.
TEST(InstanceTest, RenderPatchMatchesRender) {
  const std::vector<std::string> atoms = {"a", "b", "p q", "", "not", "é"};
  const std::vector<std::string> rels = {"R", "RS", "my rel", "not"};
  size_t cases = 20 * DiffIterations();
  size_t patches = 0, quoted_atom = 0, quoted_rel = 0, nested = 0, eps = 0,
         arity0 = 0, appeared = 0, vanished = 0, both_ways = 0;
  for (uint64_t seed = 1; seed <= cases; ++seed) {
    Universe u;
    RenderCaseGenerator gen(u, seed, atoms, rels, /*max_arity=*/2);
    RenderCaseGenerator::Case c = gen.Generate();
    const Instance& before = c.inst;
    Instance after;
    for (RelId rel : c.rels) {
      if (gen.Below(6) != 0) {
        for (TupleRef t : before.Tuples(rel)) {
          if (gen.Below(4) != 0) after.Add(rel, t);
        }
      }
      for (size_t n = gen.Below(4); n > 0; --n) after.Add(rel, gen.Fact(rel));
    }
    std::vector<std::string> outputs = {""};
    for (RelId rel : c.rels) outputs.push_back(u.RelName(rel));
    for (const std::string& out : outputs) {
      Result<std::string> old_text = RenderOutput(u, before, out);
      Result<std::string> want = RenderOutput(u, after, out);
      ASSERT_TRUE(old_text.ok() && want.ok());
      SCOPED_TRACE("seed " + std::to_string(seed) + ", output \"" + out +
                   "\"\nbefore:\n" + *old_text + "after:\n" + *want);
      Result<std::string> got = PatchOutput(u, *old_text, before, after, out);
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      ASSERT_EQ(*got, *want);
      ++patches;
    }
    std::string diff;  // the lines that differ, for the coverage counts
    for (RelId rel : c.rels) {
      const TupleSet& was = before.Tuples(rel);
      const TupleSet& is = after.Tuples(rel);
      appeared += was.empty() && !is.empty();
      vanished += !was.empty() && is.empty();
      size_t gone = 0, added = 0;
      Instance changed;
      for (TupleRef t : was) {
        if (!is.Contains(t)) gone += changed.Add(rel, t);
      }
      for (TupleRef t : is) {
        if (!was.Contains(t)) added += changed.Add(rel, t);
      }
      both_ways += gone > 0 && added > 0;
      diff += changed.ToString(u);
    }
    quoted_atom += diff.find("\"p q\"") != std::string::npos;
    quoted_rel += diff.find("\"my rel\"") != std::string::npos;
    nested += diff.find("<<") != std::string::npos;
    eps += diff.find("()") != std::string::npos;
    arity0 += diff.find("R.\n") != std::string::npos ||
              diff.find("S.\n") != std::string::npos ||
              diff.find("\".\n") != std::string::npos;
  }
  EXPECT_GE(patches, cases * 2);
  EXPECT_GT(quoted_atom, cases / 4) << "cases changing a quoted-atom line";
  EXPECT_GT(quoted_rel, cases / 10) << "cases changing a quoted relation";
  EXPECT_GT(nested, cases / 20) << "cases changing a pack inside a pack";
  EXPECT_GT(eps, cases / 4) << "cases changing a line with eps";
  EXPECT_GT(arity0, cases / 20) << "cases changing an arity-0 fact";
  EXPECT_GT(appeared, cases / 10) << "cases where a relation appears";
  EXPECT_GT(vanished, cases / 20) << "cases where a relation vanishes";
  EXPECT_GT(both_ways, cases / 10) << "relations losing and gaining facts";
}

// The splice finds lines by their newlines, and its gone lines must be
// in the old text: a patch of any other text fails rather than guess.
TEST(InstanceTest, RenderPatchRejectsTextItCannotSplice) {
  Universe u;
  Instance before = MustInstance(u, "R(a). R(\"x\ny\"). S(b).");
  Instance after = MustInstance(u, "R(a). S(b). S(c).");
  Result<std::string> old_text = RenderOutput(u, before, "");
  ASSERT_TRUE(old_text.ok());
  // A quoted newline splits a line.
  EXPECT_EQ(PatchOutput(u, *old_text, before, after, "").status().code(),
            StatusCode::kFailedPrecondition);
  // A text missing the line of a fact that left, a line short, or
  // without its last newline.
  Instance small = MustInstance(u, "R(a). S(b).");
  Instance only_s = MustInstance(u, "S(b).");
  EXPECT_EQ(PatchOutput(u, "R(x).\nS(b).\n", small, only_s, "").status().code(),
            StatusCode::kFailedPrecondition);
  EXPECT_FALSE(PatchOutput(u, "S(b).\n", small, after, "").ok());
  EXPECT_FALSE(PatchOutput(u, "R(a).\nS(b).", small, after, "").ok());
  // The same facts, patched from their true rendering, work; an added
  // line may hold a newline, since lines are compared whole.
  Instance grown = MustInstance(u, "R(a). R(\"x\ny\"). S(b).");
  Result<std::string> got =
      PatchOutput(u, "R(a).\nS(b).\n", small, grown, "");
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(*got, *RenderOutput(u, grown, ""));
  EXPECT_EQ(PatchOutput(u, "", small, after, "Nope").status().code(),
            StatusCode::kNotFound);
}

TEST(InstanceTest, RenderSortsWholeLinesAsUnsignedBytes) {
  Universe u;
  // RS and é are interned first, so relation-id or atom-id order would
  // put them first.
  RelId rs = *u.InternRel("RS", 1);
  Value e_acute = Value::Atom(u.InternAtom("é"));
  Instance i = MustInstance(
      u, "R(a ++ b, c). R(a, b). RS(a). R(b, c). R(z, a). Q. QS(a).");
  RelId r = *u.FindRel("R");
  i.Add(r, {u.SingletonPath(e_acute), u.PathOfChars("a")});
  // ',' (0x2C) sorts before the interpunct's first byte (0xC2), the
  // arity-0 line's '.' (0x2E) before any name character, '(' (0x28)
  // before 'S', and ASCII 'z' before 'é' (0xC3 0xA9). A comparator on
  // signed char would move both lines with a multi-byte character ahead
  // of the other R lines. (`R(a).` and `R.` cannot meet in one instance:
  // a relation has one arity.)
  const char* want =
      "Q.\n"
      "QS(a).\n"
      "R(a, b).\n"
      "R(a·b, c).\n"
      "R(b, c).\n"
      "R(z, a).\n"
      "R(é, a).\n"
      "RS(a).\n";
  EXPECT_EQ(i.ToString(u), want);
  EXPECT_EQ(ReferenceRender(u, i), want);
  std::vector<RelId> both = {rs, r};
  EXPECT_EQ(i.ToString(u, both),
            "R(a, b).\nR(a·b, c).\nR(b, c).\nR(z, a).\nR(é, a).\nRS(a).\n");
}

// --- Matching ----------------------------------------------------------------

size_t CountMatches(Universe& u, const std::string& expr,
                    const std::string& path_expr) {
  PathExpr e = MustExpr(u, expr);
  Result<PathId> p = EvalGroundExpr(u, MustExpr(u, path_expr));
  EXPECT_TRUE(p.ok());
  size_t count = 0;
  Valuation v;
  MatchExpr(u, e, *p, v, [&count](Valuation&) {
    ++count;
    return true;
  });
  return count;
}

TEST(MatchTest, GroundMatch) {
  Universe u;
  EXPECT_EQ(CountMatches(u, "a ++ b", "a ++ b"), 1u);
  EXPECT_EQ(CountMatches(u, "a ++ b", "a ++ c"), 0u);
  EXPECT_EQ(CountMatches(u, "eps", "eps"), 1u);
  EXPECT_EQ(CountMatches(u, "eps", "a"), 0u);
}

TEST(MatchTest, PathVariableSplits) {
  Universe u;
  // $x ++ $y over a·b: 3 splits.
  EXPECT_EQ(CountMatches(u, "$x ++ $y", "a ++ b"), 3u);
  // $x ++ $x over a·a: only ($x = a).
  EXPECT_EQ(CountMatches(u, "$x ++ $x", "a ++ a"), 1u);
  EXPECT_EQ(CountMatches(u, "$x ++ $x", "a ++ b"), 0u);
}

TEST(MatchTest, AtomVariableRequiresAtom) {
  Universe u;
  EXPECT_EQ(CountMatches(u, "@x", "a"), 1u);
  EXPECT_EQ(CountMatches(u, "@x", "<a>"), 0u);
  EXPECT_EQ(CountMatches(u, "@x", "a ++ b"), 0u);
  EXPECT_EQ(CountMatches(u, "@x ++ @x", "a ++ a"), 1u);
  EXPECT_EQ(CountMatches(u, "@x ++ @x", "a ++ b"), 0u);
}

TEST(MatchTest, PackMatchesRecursively) {
  Universe u;
  EXPECT_EQ(CountMatches(u, "<$x>", "<a ++ b>"), 1u);
  EXPECT_EQ(CountMatches(u, "<$x ++ $y>", "<a ++ b>"), 3u);
  EXPECT_EQ(CountMatches(u, "<a>", "a"), 0u);
  EXPECT_EQ(CountMatches(u, "$u ++ <$s> ++ $v", "c ++ <a ++ b> ++ d"), 1u);
}

TEST(MatchTest, SharedVariableAcrossPackBoundary) {
  Universe u;
  EXPECT_EQ(CountMatches(u, "$x ++ <$x>", "a ++ b ++ <a ++ b>"), 1u);
  EXPECT_EQ(CountMatches(u, "$x ++ <$x>", "a ++ <b>"), 0u);
}

TEST(MatchTest, PreboundVariableConstrains) {
  Universe u;
  PathExpr e = MustExpr(u, "$x ++ $y");
  PathId p = u.PathOfChars("ab");
  Valuation v;
  v.Bind(u.InternVar(VarKind::kPath, "x"), u.PathOfChars("a"));
  size_t count = 0;
  MatchExpr(u, e, p, v, [&count](Valuation&) {
    ++count;
    return true;
  });
  EXPECT_EQ(count, 1u);
}

TEST(MatchTest, EarlyStopViaCallback) {
  Universe u;
  PathExpr e = MustExpr(u, "$x ++ $y");
  PathId p = u.PathOfChars("abcd");
  Valuation v;
  size_t count = 0;
  bool completed = MatchExpr(u, e, p, v, [&count](Valuation&) {
    ++count;
    return count < 2;
  });
  EXPECT_FALSE(completed);
  EXPECT_EQ(count, 2u);
}

TEST(MatchTest, EvalExprBuildsPacks) {
  Universe u;
  Valuation v;
  v.Bind(u.InternVar(VarKind::kPath, "x"), u.PathOfChars("ab"));
  Result<PathId> p = EvalExpr(u, MustExpr(u, "c ++ <$x>"), v);
  ASSERT_TRUE(p.ok());
  EXPECT_EQ(u.FormatPath(*p), "c·<a·b>");
}

// Paths one MatchExpr call adds to the Universe; *matches counts the
// valuations it yielded.
size_t PathsInternedByMatch(Universe& u, const std::string& expr, PathId p,
                            size_t* matches) {
  PathExpr e = MustExpr(u, expr);
  size_t before = u.num_paths();
  Valuation v;
  *matches = 0;
  MatchExpr(u, e, p, v, [matches](Valuation&) {
    ++*matches;
    return true;
  });
  return u.num_paths() - before;
}

// Only the bindings of a completed match reach the Universe, whose path
// store never shrinks. An eager matcher interned every candidate split
// before testing it: 7, 12 and 8 paths for the three matches below.
TEST(MatchTest, FailedSplitsInternNoPaths) {
  size_t matches = 0;
  {
    // $s binds the matched path itself, which is interned already.
    Universe u;
    PathId p = u.PathOfChars("acgtacca");
    EXPECT_EQ(PathsInternedByMatch(u, "$s", p, &matches), 0u);
    EXPECT_EQ(matches, 1u);
  }
  {
    // $u = a·c and $v = t·a·c·c·a are new; no failed split is kept.
    Universe u;
    PathId p = u.PathOfChars("acgtacca");
    EXPECT_EQ(PathsInternedByMatch(u, "$u ++ g ++ $v", p, &matches), 2u);
    EXPECT_EQ(matches, 1u);
  }
  {
    // A keyed lookup: $s = a·c·g·t·a·c·c·a is the one new path.
    Universe u;
    PathId p = u.PathOfChars("kacgtacca");
    EXPECT_EQ(PathsInternedByMatch(u, "k ++ $s", p, &matches), 1u);
    EXPECT_EQ(matches, 1u);
  }
}

// The matcher before span bindings, kept as the oracle of
// SpanBindingsMatchReferenceMatcher: it interns every candidate split and
// binds it in the valuation before matching the items after it.
class EagerMatcher {
 public:
  explicit EagerMatcher(Universe& u) : u_(u) {}

  bool Match(const std::vector<ExprItem>& items, size_t item_idx,
             std::span<const Value> path, size_t pos, Valuation& v,
             const std::function<bool(Valuation&)>& next) {
    if (item_idx == items.size()) {
      if (pos != path.size()) return true;
      return next(v);
    }
    const ExprItem& it = items[item_idx];
    switch (it.kind) {
      case ExprItem::Kind::kConst: {
        if (pos < path.size() && path[pos] == it.atom) {
          return Match(items, item_idx + 1, path, pos + 1, v, next);
        }
        return true;
      }
      case ExprItem::Kind::kAtomVar: {
        if (pos >= path.size()) return true;
        Value val = path[pos];
        if (!val.is_atom()) return true;
        if (v.IsBound(it.var)) {
          if (v.Get(it.var) != u_.SingletonPath(val)) return true;
          return Match(items, item_idx + 1, path, pos + 1, v, next);
        }
        v.Bind(it.var, u_.SingletonPath(val));
        bool cont = Match(items, item_idx + 1, path, pos + 1, v, next);
        v.Unbind(it.var);
        return cont;
      }
      case ExprItem::Kind::kPathVar: {
        if (v.IsBound(it.var)) {
          std::span<const Value> bound = u_.GetPath(v.Get(it.var));
          if (pos + bound.size() > path.size()) return true;
          for (size_t i = 0; i < bound.size(); ++i) {
            if (path[pos + i] != bound[i]) return true;
          }
          return Match(items, item_idx + 1, path, pos + bound.size(), v, next);
        }
        size_t remaining = path.size() - pos;
        size_t reserve = MinRemainingLength(items, item_idx + 1, v);
        if (reserve > remaining) return true;
        for (size_t len = 0; len <= remaining - reserve; ++len) {
          PathId sub = u_.InternPath(path.subspan(pos, len));
          v.Bind(it.var, sub);
          bool cont = Match(items, item_idx + 1, path, pos + len, v, next);
          v.Unbind(it.var);
          if (!cont) return false;
        }
        return true;
      }
      case ExprItem::Kind::kPack: {
        if (pos >= path.size() || !path[pos].is_packed()) return true;
        std::span<const Value> inner = u_.GetPath(path[pos].packed_path());
        auto continue_outer = [&](Valuation& v2) {
          return Match(items, item_idx + 1, path, pos + 1, v2, next);
        };
        return Match(it.pack->items, 0, inner, 0, v, continue_outer);
      }
    }
    return true;
  }

 private:
  size_t MinRemainingLength(const std::vector<ExprItem>& items, size_t idx,
                            const Valuation& v) const {
    size_t n = 0;
    for (size_t i = idx; i < items.size(); ++i) {
      const ExprItem& it = items[i];
      switch (it.kind) {
        case ExprItem::Kind::kConst:
        case ExprItem::Kind::kAtomVar:
        case ExprItem::Kind::kPack:
          ++n;
          break;
        case ExprItem::Kind::kPathVar:
          if (v.IsBound(it.var)) n += u_.PathLength(v.Get(it.var));
          break;
      }
    }
    return n;
  }

  Universe& u_;
};

// Componentwise eager matching of args against tuple, from argument idx.
bool EagerMatchArgs(Universe& u, const std::vector<PathExpr>& args,
                    const std::vector<PathId>& tuple, size_t idx,
                    Valuation& v, const std::function<bool(Valuation&)>& cb) {
  if (idx == args.size()) return cb(v);
  auto next = [&](Valuation& v2) {
    return EagerMatchArgs(u, args, tuple, idx + 1, v2, cb);
  };
  EagerMatcher m(u);
  return m.Match(args[idx].items, 0, u.GetPath(tuple[idx]), 0, v, next);
}

using Bindings = std::vector<std::pair<VarId, PathId>>;

Bindings SortedBindings(const Valuation& v) {
  Bindings b(v.bindings().begin(), v.bindings().end());
  std::sort(b.begin(), b.end());
  return b;
}

// Random matching problems: patterns over a two-letter alphabet, three
// path and two atomic variables (repeats are common) and packs nested up
// to two deep; tuples are the patterns instantiated under a random
// valuation, so matches are likely, and sometimes perturbed; the base
// valuation pre-binds some variables, mostly to their instantiated value.
class MatchCaseGenerator {
 public:
  MatchCaseGenerator(Universe& u, uint64_t seed) : u_(u), rng_(seed) {
    atoms_ = {Value::Atom(u.InternAtom("a")), Value::Atom(u.InternAtom("b"))};
    path_vars_ = {u.InternVar(VarKind::kPath, "x"),
                  u.InternVar(VarKind::kPath, "y"),
                  u.InternVar(VarKind::kPath, "z")};
    atom_vars_ = {u.InternVar(VarKind::kAtomic, "p"),
                  u.InternVar(VarKind::kAtomic, "q")};
  }

  struct Case {
    std::vector<PathExpr> args;
    std::vector<PathId> tuple;
    Valuation base;
  };

  Case Generate() {
    Case c;
    size_t nargs = Coin(2) ? 1 : 1 + Uniform(2);
    for (size_t i = 0; i < nargs; ++i) c.args.push_back(Pattern(0));
    Valuation full;
    for (VarId var : path_vars_) full.Bind(var, RandomPath(3, 1));
    for (VarId var : atom_vars_) full.Bind(var, u_.SingletonPath(Atom()));
    for (VarId var : path_vars_) {
      if (Coin(4)) c.base.Bind(var, Coin(4) ? RandomPath(3, 1) : full.Get(var));
    }
    for (VarId var : atom_vars_) {
      if (Coin(4)) {
        c.base.Bind(var, Coin(4) ? u_.SingletonPath(Atom()) : full.Get(var));
      }
    }
    for (const PathExpr& e : c.args) {
      Result<PathId> p = EvalExpr(u_, e, full);
      EXPECT_TRUE(p.ok()) << p.status().ToString();
      c.tuple.push_back(Coin(4) ? Perturb(*p) : *p);
    }
    return c;
  }

 private:
  PathExpr Pattern(int depth) {
    PathExpr e;
    size_t n = Uniform(5);
    for (size_t i = 0; i < n; ++i) {
      size_t pick = Uniform(10);
      if (pick < 2) {
        e.items.push_back(ExprItem::Const(Atom()));
      } else if (pick < 4) {
        e.items.push_back(ExprItem::AtomVar(atom_vars_[Uniform(2)]));
      } else if (pick < 8 || depth == 2) {
        e.items.push_back(ExprItem::PathVar(path_vars_[Uniform(3)]));
      } else {
        e.items.push_back(ExprItem::Pack(Pattern(depth + 1)));
      }
    }
    return e;
  }

  // Up to max_len values; packed values (up to `depth` deep) are rare.
  PathId RandomPath(size_t max_len, int depth) {
    std::vector<Value> values;
    size_t n = Uniform(max_len + 1);
    for (size_t i = 0; i < n; ++i) {
      if (depth > 0 && Coin(6)) {
        values.push_back(Value::Packed(RandomPath(2, depth - 1)));
      } else {
        values.push_back(Atom());
      }
    }
    return u_.InternPath(values);
  }

  // Replaces, drops or inserts one value.
  PathId Perturb(PathId p) {
    std::span<const Value> src = u_.GetPath(p);
    std::vector<Value> values(src.begin(), src.end());
    size_t at = Uniform(values.size() + 1);
    size_t op = Uniform(3);
    if (op == 0 && at < values.size()) {
      values[at] = Atom();
    } else if (op == 1 && at < values.size()) {
      values.erase(values.begin() + static_cast<std::ptrdiff_t>(at));
    } else {
      values.insert(values.begin() + static_cast<std::ptrdiff_t>(at), Atom());
    }
    return u_.InternPath(values);
  }

  Value Atom() { return atoms_[Uniform(2)]; }
  size_t Uniform(size_t n) {
    return std::uniform_int_distribution<size_t>(0, n - 1)(rng_);
  }
  bool Coin(size_t one_in) { return Uniform(one_in) == 0; }

  Universe& u_;
  std::mt19937_64 rng_;
  std::vector<Value> atoms_;
  std::vector<VarId> path_vars_;
  std::vector<VarId> atom_vars_;
};

bool HasPack(const std::vector<PathExpr>& args) {
  for (const PathExpr& e : args) {
    for (const ExprItem& it : e.items) {
      if (it.kind == ExprItem::Kind::kPack) return true;
    }
  }
  return false;
}

// The span-binding matcher against the eager oracle on random problems:
// the same valuations in the same order, the same prefix when the callback
// stops early, and the base valuation untouched on return.
TEST(MatchTest, SpanBindingsMatchReferenceMatcher) {
  size_t cases = 10 * DiffIterations();
  size_t matched = 0, multi = 0, packed = 0, prebound = 0, multi_arg = 0;
  for (uint64_t seed = 1; seed <= cases; ++seed) {
    Universe u;
    MatchCaseGenerator gen(u, seed);
    MatchCaseGenerator::Case c = gen.Generate();
    SCOPED_TRACE("seed " + std::to_string(seed));
    Bindings base = SortedBindings(c.base);
    // Runs the span-binding matcher, stopping after `stop_after` matches
    // (0 = never); returns whether enumeration completed.
    auto run = [&](size_t stop_after, std::vector<Bindings>* out) {
      auto cb = [&](Valuation& v) {
        out->push_back(SortedBindings(v));
        return out->size() != stop_after;
      };
      bool completed = c.args.size() == 1
                           ? MatchExpr(u, c.args[0], c.tuple[0], c.base, cb)
                           : MatchArgs(u, c.args, c.tuple, c.base, cb);
      EXPECT_EQ(SortedBindings(c.base), base);
      return completed;
    };
    std::vector<Bindings> got;
    EXPECT_TRUE(run(0, &got));
    std::vector<Bindings> want;
    Valuation ref_base = c.base;
    EagerMatchArgs(u, c.args, c.tuple, 0, ref_base, [&](Valuation& v) {
      want.push_back(SortedBindings(v));
      return true;
    });
    ASSERT_EQ(got, want);
    if (!want.empty()) {
      size_t k = 1 + seed % want.size();
      std::vector<Bindings> prefix;
      EXPECT_FALSE(run(k, &prefix));
      EXPECT_EQ(prefix, std::vector<Bindings>(want.begin(), want.begin() + k));
    }
    matched += !want.empty();
    multi += want.size() > 1;
    packed += HasPack(c.args) && !want.empty();
    prebound += c.base.size() > 0 && !want.empty();
    multi_arg += c.args.size() > 1 && !want.empty();
  }
  // The generator must keep reaching every shape it is meant to cover.
  EXPECT_GT(matched, cases / 2) << "cases with a match";
  EXPECT_GT(multi, cases / 40) << "cases with several matches";
  EXPECT_GT(packed, cases / 10) << "matched cases with a pack";
  EXPECT_GT(prebound, cases / 4) << "matched cases with a pre-bound variable";
  EXPECT_GT(multi_arg, cases / 20) << "matched cases with several arguments";
}

// --- Evaluation of the paper's examples ---------------------------------------

TEST(EvalTest, FactsOnly) {
  Universe u;
  Program p = MustParse(u, "S(a ++ b). S(c).");
  Result<PreparedProgram> prog = Engine::Compile(u, p);
  ASSERT_TRUE(prog.ok()) << prog.status().ToString();
  Result<Instance> out = prog->Run(Instance{});
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->NumFacts(), 2u);
}

TEST(EvalTest, OnlyAsWithEquation) {
  Universe u;
  Program p = MustParse(u, "S($x) <- R($x), a ++ $x = $x ++ a.");
  Instance in = MustInstance(u, "R(a ++ a ++ a). R(a ++ b). R(eps). R(a).");
  Result<PreparedProgram> prog = Engine::Compile(u, p);
  ASSERT_TRUE(prog.ok()) << prog.status().ToString();
  Result<Instance> out = prog->Run(in);
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  RelId s = *u.FindRel("S");
  EXPECT_EQ(out->Tuples(s).size(), 3u);  // aaa, eps, a
  EXPECT_TRUE(out->Contains(s, {u.PathOfChars("aaa")}));
  EXPECT_TRUE(out->Contains(s, {kEmptyPath}));
  EXPECT_TRUE(out->Contains(s, {u.PathOfChars("a")}));
}

TEST(EvalTest, OnlyAsWithRecursionAgrees) {
  Universe u;
  Program p = MustParse(u,
                        "T($x, $x) <- R($x).\n"
                        "T($x, $y) <- T($x, $y ++ a).\n"
                        "S($x) <- T($x, eps).\n");
  Instance in = MustInstance(u, "R(a ++ a ++ a). R(a ++ b). R(eps). R(a).");
  Result<PreparedProgram> prog = Engine::Compile(u, p);
  ASSERT_TRUE(prog.ok()) << prog.status().ToString();
  Result<Instance> out = prog->Run(in);
  ASSERT_TRUE(out.ok());
  RelId s = *u.FindRel("S");
  EXPECT_EQ(out->Tuples(s).size(), 3u);
}

TEST(EvalTest, ReversalExample43) {
  Universe u;
  Program p = MustParse(u,
                        "T($x, eps) <- R($x).\n"
                        "T($x, $y ++ @u) <- T($x ++ @u, $y).\n"
                        "S($x) <- T(eps, $x).\n");
  Instance in = MustInstance(u, "R(a ++ b ++ c). R(eps).");
  Result<PreparedProgram> prog = Engine::Compile(u, p);
  ASSERT_TRUE(prog.ok()) << prog.status().ToString();
  Result<Instance> out = prog->Run(in);
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  RelId s = *u.FindRel("S");
  EXPECT_EQ(out->Tuples(s).size(), 2u);
  EXPECT_TRUE(out->Contains(s, {u.PathOfChars("cba")}));
  EXPECT_TRUE(out->Contains(s, {kEmptyPath}));
}

TEST(EvalTest, Example22PackingAndNonequalities) {
  Universe u;
  Program p = MustParse(u,
                        "T($u ++ <$s> ++ $v) <- R($u ++ $s ++ $v), S($s).\n"
                        "A <- T($x), T($y), T($z), $x != $y, $x != $z, "
                        "$y != $z.\n");
  // "abab" contains "ab" twice and "ba" once: 3 distinct marked strings.
  Instance in3 = MustInstance(u, "R(a ++ b ++ a ++ b). S(a ++ b). S(b ++ a).");
  Result<PreparedProgram> prog3 = Engine::Compile(u, p);
  ASSERT_TRUE(prog3.ok()) << prog3.status().ToString();
  Result<Instance> out3 = prog3->Run(in3);
  ASSERT_TRUE(out3.ok()) << out3.status().ToString();
  EXPECT_TRUE(out3->Contains(*u.FindRel("A"), {}));

  Universe u2;
  Program p2 = MustParse(u2,
                         "T($u ++ <$s> ++ $v) <- R($u ++ $s ++ $v), S($s).\n"
                         "A <- T($x), T($y), T($z), $x != $y, $x != $z, "
                         "$y != $z.\n");
  // Only two occurrences of "ab" in "abab" - not enough.
  Instance in2 = MustInstance(u2, "R(a ++ b ++ a ++ b). S(a ++ b).");
  Result<PreparedProgram> prog2 = Engine::Compile(u2, p2);
  ASSERT_TRUE(prog2.ok()) << prog2.status().ToString();
  Result<Instance> out2 = prog2->Run(in2);
  ASSERT_TRUE(out2.ok());
  EXPECT_FALSE(out2->Contains(*u2.FindRel("A"), {}));
}

TEST(EvalTest, Example23DoesNotTerminate) {
  Universe u;
  Result<PreparedProgram> prog =
      Engine::Compile(u, MustParse(u, "T(a). T(a ++ $x) <- T($x)."));
  ASSERT_TRUE(prog.ok()) << prog.status().ToString();
  RunOptions opts;
  opts.max_facts = 1000;
  Result<Instance> out = prog->Run(Instance{}, opts);
  ASSERT_FALSE(out.ok());
  EXPECT_EQ(out.status().code(), StatusCode::kResourceExhausted);
}

TEST(EvalTest, NonterminationCaughtByIterationBudget) {
  Universe u;
  Result<PreparedProgram> prog =
      Engine::Compile(u, MustParse(u, "T(a). T(a ++ $x) <- T($x)."));
  ASSERT_TRUE(prog.ok()) << prog.status().ToString();
  RunOptions opts;
  opts.max_iterations = 50;
  Result<Instance> out = prog->Run(Instance{}, opts);
  ASSERT_FALSE(out.ok());
  EXPECT_EQ(out.status().code(), StatusCode::kResourceExhausted);
}

TEST(EvalTest, SquaringQuery) {
  Universe u;
  Program p = MustParse(u,
                        "T(eps, $x, $x) <- R($x).\n"
                        "T($y ++ $x, $x, $z) <- T($y, $x, a ++ $z).\n"
                        "S($y) <- T($y, $x, eps).\n");
  Instance in = MustInstance(u, "R(a ++ a ++ a).");
  Result<PreparedProgram> prog = Engine::Compile(u, p);
  ASSERT_TRUE(prog.ok()) << prog.status().ToString();
  Result<Instance> out = prog->Run(in);
  ASSERT_TRUE(out.ok());
  RelId s = *u.FindRel("S");
  ASSERT_EQ(out->Tuples(s).size(), 1u);
  EXPECT_TRUE(out->Contains(s, {u.PathOfChars(std::string(9, 'a'))}));
}

TEST(EvalTest, StratifiedNegationBlackNodes) {
  Universe u;
  Program p = MustParse(u,
                        "W(@x) <- R(@x ++ @y), !B(@y).\n"
                        "---\n"
                        "S(@x) <- R(@x ++ @y), !W(@x).\n");
  // Edges: a->b, a->c, d->b. Black: {b}. W = nodes with an edge to a
  // non-black node = {a}. S = nodes with only-black successors = {d}.
  Instance in = MustInstance(u, "R(a ++ b). R(a ++ c). R(d ++ b). B(b).");
  Result<PreparedProgram> prog = Engine::Compile(u, p);
  ASSERT_TRUE(prog.ok()) << prog.status().ToString();
  Result<Instance> out = prog->Run(in);
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  RelId s = *u.FindRel("S");
  EXPECT_EQ(out->Tuples(s).size(), 1u);
  EXPECT_TRUE(out->Contains(s, {u.PathOfChars("d")}));
}

TEST(EvalTest, UnstratifiedProgramRejected) {
  Universe u;
  Program p = MustParse(u, "P0($x) <- R($x), !Q0($x). Q0($x) <- P0($x).");
  Result<PreparedProgram> prog = Engine::Compile(u, p);
  ASSERT_FALSE(prog.ok());
  EXPECT_EQ(prog.status().code(), StatusCode::kInvalidArgument);
}

TEST(EvalTest, NaiveAndSeminaiveAgree) {
  Universe u;
  Program p = MustParse(u,
                        "T(@x ++ @y) <- R(@x ++ @y).\n"
                        "T(@x ++ @z) <- T(@x ++ @y), R(@y ++ @z).\n"
                        "S <- T(a ++ b).\n");
  Instance in = MustInstance(u, "R(a ++ c). R(c ++ d). R(d ++ b). R(b ++ a).");
  Result<PreparedProgram> prog = Engine::Compile(u, p);
  ASSERT_TRUE(prog.ok()) << prog.status().ToString();
  RunOptions naive;
  naive.seminaive = false;
  Result<Instance> o1 = prog->Run(in);
  Result<Instance> o2 = prog->Run(in, naive);
  ASSERT_TRUE(o1.ok());
  ASSERT_TRUE(o2.ok());
  EXPECT_EQ(*o1, *o2);
  EXPECT_TRUE(o1->Contains(*u.FindRel("S"), {}));
}

TEST(EvalTest, EmptyBodyArityZeroRule) {
  Universe u;
  Program p = MustParse(u, "A <- .");
  Result<PreparedProgram> prog = Engine::Compile(u, p);
  ASSERT_TRUE(prog.ok()) << prog.status().ToString();
  Result<Instance> out = prog->Run(Instance{});
  ASSERT_TRUE(out.ok());
  EXPECT_TRUE(out->Contains(*u.FindRel("A"), {}));
}

TEST(EvalTest, EquationBindingBothDirections) {
  Universe u;
  // The equation binds $y from the ground lhs; head uses $y.
  Program p = MustParse(u, "S($y) <- R($x), $x = b ++ $y.");
  Instance in = MustInstance(u, "R(b ++ c ++ d). R(a ++ c).");
  Result<PreparedProgram> prog = Engine::Compile(u, p);
  ASSERT_TRUE(prog.ok()) << prog.status().ToString();
  Result<Instance> out = prog->Run(in);
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  RelId s = *u.FindRel("S");
  EXPECT_EQ(out->Tuples(s).size(), 1u);
  EXPECT_TRUE(out->Contains(s, {u.PathOfChars("cd")}));
}

TEST(EvalTest, NegatedGroundEquationFilters) {
  Universe u;
  Program p = MustParse(u, "S($x) <- R($x), $x != a ++ b.");
  Instance in = MustInstance(u, "R(a ++ b). R(a ++ c).");
  Result<PreparedProgram> prog = Engine::Compile(u, p);
  ASSERT_TRUE(prog.ok()) << prog.status().ToString();
  Result<Instance> out = prog->Run(in);
  ASSERT_TRUE(out.ok());
  RelId s = *u.FindRel("S");
  EXPECT_EQ(out->Tuples(s).size(), 1u);
  EXPECT_TRUE(out->Contains(s, {u.PathOfChars("ac")}));
}

TEST(EvalTest, ProjectKeepsTheOutputRelation) {
  Universe u;
  Program p = MustParse(u, "T($x) <- R($x). S($x) <- T($x).");
  Instance in = MustInstance(u, "R(a).");
  Result<PreparedProgram> prog = Engine::Compile(u, p);
  ASSERT_TRUE(prog.ok()) << prog.status().ToString();
  Result<Instance> out = prog->Run(in);
  ASSERT_TRUE(out.ok());
  Instance s = out->Project({*u.FindRel("S")});
  EXPECT_EQ(s.NumFacts(), 1u);
  EXPECT_TRUE(s.Contains(*u.FindRel("S"), {u.PathOfChars("a")}));
}

TEST(EvalTest, MaxPathLengthGuard) {
  Universe u;
  Result<PreparedProgram> prog =
      Engine::Compile(u, MustParse(u, "T(a). T($x ++ $x) <- T($x)."));
  ASSERT_TRUE(prog.ok()) << prog.status().ToString();
  RunOptions opts;
  opts.max_path_length = 64;
  Result<Instance> out = prog->Run(Instance{}, opts);
  ASSERT_FALSE(out.ok());
  EXPECT_EQ(out.status().code(), StatusCode::kResourceExhausted);
}

// --- Differential tests against the direct baselines --------------------------

TEST(EvalDifferentialTest, NfaAcceptanceMatchesSimulator) {
  for (uint64_t seed = 1; seed <= 5; ++seed) {
    Universe u;
    Program p = MustParse(
        u,
        "S(@q ++ $x, eps) <- R($x), N(@q).\n"
        "S(@q2 ++ $y, $z ++ @a) <- S(@q1 ++ @a ++ $y, $z), D(@q1, @a, @q2).\n"
        "A($x) <- S(@q, $x), F(@q).\n");
    NfaWorkload nw;
    nw.num_states = 4;
    nw.alphabet = 2;
    nw.seed = seed;
    Nfa nfa = RandomNfa(nw);
    Result<Instance> in = NfaToInstance(u, nfa);
    ASSERT_TRUE(in.ok());
    StringWorkload sw;
    sw.count = 12;
    sw.max_len = 6;
    sw.seed = seed + 100;
    Result<Instance> strings = RandomStrings(u, sw);
    ASSERT_TRUE(strings.ok());
    in->UnionWith(*strings);

    Result<PreparedProgram> prog = Engine::Compile(u, p);
    ASSERT_TRUE(prog.ok()) << prog.status().ToString();
    Result<Instance> out = prog->Run(*in);
    ASSERT_TRUE(out.ok()) << out.status().ToString();
    RelId a_rel = *u.FindRel("A");
    RelId r_rel = *u.FindRel("R");
    for (TupleRef t : out->Tuples(r_rel)) {
      std::vector<uint32_t> word;
      bool skip = false;
      for (Value v : u.GetPath(t[0])) {
        const std::string& name = u.AtomName(v.atom());
        uint32_t letter = static_cast<uint32_t>(name[0] - 'a');
        if (letter >= nfa.alphabet) skip = true;
        word.push_back(letter);
      }
      if (skip) continue;
      EXPECT_EQ(out->Contains(a_rel, t), nfa.Accepts(word))
          << "string " << u.FormatPath(t[0]) << " seed " << seed;
    }
  }
}

TEST(EvalDifferentialTest, ReachabilityMatchesBfs) {
  for (uint64_t seed = 1; seed <= 5; ++seed) {
    Universe u;
    Program p = MustParse(u,
                          "T(@x ++ @y) <- R(@x ++ @y).\n"
                          "T(@x ++ @z) <- T(@x ++ @y), R(@y ++ @z).\n"
                          "S <- T(a ++ b).\n");
    GraphWorkload gw;
    gw.nodes = 7;
    gw.edges = 10;
    gw.seed = seed;
    Graph g = RandomGraph(gw);
    Result<Instance> in = GraphToInstance(u, g, "R");
    ASSERT_TRUE(in.ok());
    Result<PreparedProgram> prog = Engine::Compile(u, p);
    ASSERT_TRUE(prog.ok()) << prog.status().ToString();
    Result<Instance> out = prog->Run(*in);
    ASSERT_TRUE(out.ok());
    EXPECT_EQ(out->Contains(*u.FindRel("S"), {}), Reachable(g, 0, 1))
        << "seed " << seed;
  }
}

TEST(EvalDifferentialTest, MarkedPairsMatchBaseline) {
  Universe u;
  Program p = MustParse(u,
                        "U($x, $x) <- R($x).\n"
                        "U($x, $y) <- U($x, @a ++ $y ++ @b), @a != @b.\n"
                        "S($x) <- U($x, eps).\n");
  StringWorkload sw;
  sw.count = 30;
  sw.max_len = 6;
  sw.alphabet = 3;
  sw.seed = 7;
  Result<Instance> in = RandomStrings(u, sw);
  ASSERT_TRUE(in.ok());
  Result<PreparedProgram> prog = Engine::Compile(u, p);
  ASSERT_TRUE(prog.ok()) << prog.status().ToString();
  Result<Instance> out = prog->Run(*in);
  ASSERT_TRUE(out.ok());
  RelId s = *u.FindRel("S");
  RelId r = *u.FindRel("R");
  for (TupleRef t : out->Tuples(r)) {
    std::string str;
    for (Value v : u.GetPath(t[0])) str += u.AtomName(v.atom());
    EXPECT_EQ(out->Contains(s, t), IsMarkedPair(str)) << str;
  }
}

TEST(EvalDifferentialTest, ProcessMiningMatchesBaseline) {
  Universe u;
  Program p = MustParse(
      u,
      "HasRp($v) <- R($u ++ co ++ $v), $v = $s ++ rp ++ $t.\n"
      "---\n"
      "Bad($x) <- R($x), $x = $u ++ co ++ $v, !HasRp($v).\n"
      "---\n"
      "Good($x) <- R($x), !Bad($x).\n");
  EventLogWorkload ew;
  ew.count = 25;
  ew.len = 8;
  ew.seed = 3;
  Result<Instance> in = RandomEventLogs(u, ew);
  ASSERT_TRUE(in.ok());
  Result<PreparedProgram> prog = Engine::Compile(u, p);
  ASSERT_TRUE(prog.ok()) << prog.status().ToString();
  Result<Instance> out = prog->Run(*in);
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  RelId good = *u.FindRel("Good");
  RelId r = *u.FindRel("R");
  for (TupleRef t : out->Tuples(r)) {
    std::vector<std::string> events;
    for (Value v : u.GetPath(t[0])) events.push_back(u.AtomName(v.atom()));
    EXPECT_EQ(out->Contains(good, t), EveryCoFollowedByRp(events))
        << u.FormatPath(t[0]);
  }
}

// --- Doubling / undoubling round-trip (Theorem 4.15 rules) --------------------

TEST(EvalTest, DoubleThenUndoubleIsIdentity) {
  Universe u2;
  Program both = MustParse(u2,
                           "T(eps, $x) <- R($x).\n"
                           "T($x ++ @y ++ @y, $z) <- T($x, @y ++ $z).\n"
                           "Rd($x) <- T($x, eps).\n"
                           "---\n"
                           "V($x, eps) <- Rd($x).\n"
                           "V($x, @y ++ $z) <- V($x ++ @y ++ @y, $z).\n"
                           "Back($x) <- V(eps, $x).\n");
  Instance in = MustInstance(u2, "R(a ++ b ++ c). R(eps). R(a).");
  Result<PreparedProgram> prog = Engine::Compile(u2, both);
  ASSERT_TRUE(prog.ok()) << prog.status().ToString();
  Result<Instance> out = prog->Run(in);
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  RelId back = *u2.FindRel("Back");
  RelId r = *u2.FindRel("R");
  EXPECT_EQ(out->Tuples(back).size(), out->Tuples(r).size());
  for (TupleRef t : out->Tuples(r)) {
    EXPECT_TRUE(out->Contains(back, t)) << u2.FormatPath(t[0]);
  }
  // And the doubled relation contains the doubled paths.
  RelId rd = *u2.FindRel("Rd");
  EXPECT_TRUE(out->Contains(rd, {u2.PathOfChars("aabbcc")}));
}

}  // namespace
}  // namespace seqdl
