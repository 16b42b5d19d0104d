// Abstract syntax of Sequence Datalog (paper §2.2).
//
// A *path expression* is a (flattened) sequence of items, where an item is
// an atomic constant, an atomic variable @x, a path variable $x, or a packed
// subexpression <e>. A *predicate* applies a relation name to path
// expressions; an *equation* equates two path expressions. Literals are
// possibly negated atoms; rules are head <- body; programs are sequences of
// strata.
//
// Passes that only read an expression walk it with one fold: FoldExpr calls
// a callable on every item at every packing depth, in text order, a packed
// item before its inside, and stops when the callable returns false;
// ForEachVar is the same fold over the variable occurrences. Passes over a
// literal or a rule visit its expressions with ForEachExpr: the head's
// arguments, then each body literal's arguments or its two sides. Both are
// templates over the callable and allocate nothing. Walks that build,
// compare or match expressions (SubstituteExpr, EvalGroundExpr, the
// printer, unification, the matcher) treat a pack each in their own way
// and recurse themselves.
#ifndef SEQDL_SYNTAX_AST_H_
#define SEQDL_SYNTAX_AST_H_

#include <concepts>
#include <cstddef>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <type_traits>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/base/source_span.h"
#include "src/base/status.h"
#include "src/term/universe.h"
#include "src/term/value.h"

namespace seqdl {

struct PathExpr;

/// One item of a path expression.
struct ExprItem {
  enum class Kind : uint8_t { kConst, kAtomVar, kPathVar, kPack };

  Kind kind = Kind::kConst;
  Value atom;  // kConst: an atomic value (always Value::Atom).
  VarId var = 0;  // kAtomVar / kPathVar
  std::shared_ptr<const PathExpr> pack;  // kPack

  static ExprItem Const(Value v);
  static ExprItem AtomVar(VarId v);
  static ExprItem PathVar(VarId v);
  static ExprItem Pack(PathExpr inner);

  bool is_var() const {
    return kind == Kind::kAtomVar || kind == Kind::kPathVar;
  }

  friend bool operator==(const ExprItem& a, const ExprItem& b);
  friend bool operator!=(const ExprItem& a, const ExprItem& b) {
    return !(a == b);
  }
};

/// A path expression: a flat sequence of items (concatenation is
/// associative, so nesting of concatenations is never represented).
struct PathExpr {
  std::vector<ExprItem> items;

  PathExpr() = default;
  explicit PathExpr(std::vector<ExprItem> its) : items(std::move(its)) {}

  bool empty() const { return items.empty(); }
  size_t size() const { return items.size(); }

  /// True iff no variable occurs (at any packing depth).
  bool IsGround() const;
  /// True iff a <...> item occurs (at any depth).
  bool HasPacking() const;
  /// True iff the expression is exactly one variable item.
  bool IsSingleVar() const {
    return items.size() == 1 && items[0].is_var();
  }

  friend bool operator==(const PathExpr& a, const PathExpr& b) {
    return a.items == b.items;
  }
  friend bool operator!=(const PathExpr& a, const PathExpr& b) {
    return !(a == b);
  }
};

/// e1 · e2 (flattening).
PathExpr ConcatExpr(const PathExpr& a, const PathExpr& b);
/// Concatenation of many expressions.
PathExpr ConcatExprs(const std::vector<PathExpr>& parts);
/// Single-item expressions.
PathExpr ConstExpr(Value atom);
PathExpr VarExpr(const Universe& u, VarId v);
PathExpr PackExpr(PathExpr inner);
/// The ground expression denoting an interned path (packs become <...>).
PathExpr ExprOfPath(const Universe& u, PathId p);

namespace internal {
/// Calls `fn(args...)`; true unless it returned false. A callable that
/// returns nothing never stops a walk.
template <typename Fn, typename... Args>
bool Continues(Fn& fn, Args&&... args) {
  if constexpr (std::is_void_v<std::invoke_result_t<Fn&, Args...>>) {
    fn(std::forward<Args>(args)...);
    return true;
  } else {
    return static_cast<bool>(fn(std::forward<Args>(args)...));
  }
}
}  // namespace internal

/// Calls `fn(item, depth)` on `item` and then, for a pack, on every item
/// inside it at `depth + 1`, and so on down. Stops as soon as `fn` returns
/// false, and returns false iff it stopped.
template <typename Fn>
bool FoldItem(const ExprItem& item, Fn&& fn, size_t depth = 0) {
  if (!internal::Continues(fn, item, depth)) return false;
  if (item.kind != ExprItem::Kind::kPack) return true;
  for (const ExprItem& inner : item.pack->items) {
    if (!FoldItem(inner, fn, depth + 1)) return false;
  }
  return true;
}

/// FoldItem over every item of `e`, in text order; `e`'s own items are at
/// depth 0.
template <typename Fn>
bool FoldExpr(const PathExpr& e, Fn&& fn) {
  for (const ExprItem& item : e.items) {
    if (!FoldItem(item, fn)) return false;
  }
  return true;
}

/// Calls `fn(var)` on every variable occurrence of `e` (at any depth), in
/// text order; stops and returns false as soon as `fn` returns false.
template <typename Fn>
bool ForEachVar(const PathExpr& e, Fn&& fn) {
  return FoldExpr(e, [&fn](const ExprItem& item, size_t) {
    return !item.is_var() || internal::Continues(fn, item.var);
  });
}

/// Collects all variables of `e` (at any depth) into `out`, in order of
/// first occurrence, without duplicates (nor repeats of what `out` holds).
void CollectVars(const PathExpr& e, std::vector<VarId>* out);
/// Adds the number of occurrences of each variable of `e` (at any depth)
/// to `counts`.
void CountVars(const PathExpr& e, std::map<VarId, int>* counts);

/// Evaluates a ground expression to an interned path.
Result<PathId> EvalGroundExpr(Universe& u, const PathExpr& e);

/// A substitution mapping variables to path expressions. Atomic variables
/// may only map to a single atomic-constant or atomic-variable item.
using ExprSubst = std::unordered_map<VarId, PathExpr>;

/// Applies `subst` to `e` (splicing path-variable images in place).
PathExpr SubstituteExpr(const PathExpr& e, const ExprSubst& subst);

/// P(e1, ..., en). Arity 0 predicates have no arguments.
struct Predicate {
  RelId rel = 0;
  std::vector<PathExpr> args;

  friend bool operator==(const Predicate& a, const Predicate& b) {
    return a.rel == b.rel && a.args == b.args;
  }
};

/// A body literal: possibly negated predicate or equation.
struct Literal {
  enum class Kind : uint8_t { kPredicate, kEquation };

  Kind kind = Kind::kPredicate;
  bool negated = false;
  Predicate pred;      // kPredicate
  PathExpr lhs, rhs;   // kEquation

  static Literal Pred(Predicate p, bool negated = false);
  static Literal Eq(PathExpr lhs, PathExpr rhs, bool negated = false);

  bool is_predicate() const { return kind == Kind::kPredicate; }
  bool is_equation() const { return kind == Kind::kEquation; }

  friend bool operator==(const Literal& a, const Literal& b);
};

/// H <- B.
struct Rule {
  Predicate head;
  std::vector<Literal> body;
  /// Where the rule sits in the source text it was parsed from (start of
  /// the head through the terminating '.'). Invalid (line 0) for rules
  /// built programmatically — diagnostics then render without a
  /// location. Ignored by operator-free comparisons elsewhere (rules
  /// have no operator==).
  SourceSpan span;
};

/// A set of rules evaluated jointly to a fixpoint.
struct Stratum {
  std::vector<Rule> rules;
};

/// A finite sequence of strata (paper §2.2). Negation must be stratified;
/// analysis/safety.h validates this.
struct Program {
  std::vector<Stratum> strata;

  /// Flat view over all rules in stratum order.
  std::vector<const Rule*> AllRules() const;
  size_t NumRules() const;
};

/// Relation names appearing in some head (IDB) of the whole program.
std::set<RelId> IdbRels(const Program& p);
/// Relation names appearing anywhere but in no head (EDB).
std::set<RelId> EdbRels(const Program& p);
/// All relation names used by the program.
std::set<RelId> AllRels(const Program& p);

/// Calls `fn(e)` on every expression of a literal: a predicate's arguments
/// in order, or an equation's left and then right side. `l` may be const
/// (fn takes `const PathExpr&`) or not (fn may rewrite `PathExpr&`).
template <typename L, typename Fn>
  requires std::same_as<std::remove_const_t<L>, Literal>
void ForEachExpr(L& l, Fn&& fn) {
  if (l.is_predicate()) {
    for (auto& e : l.pred.args) fn(e);
  } else {
    fn(l.lhs);
    fn(l.rhs);
  }
}

/// ForEachExpr over a rule: the head's arguments, then each body literal's
/// expressions in body order.
template <typename R, typename Fn>
  requires std::same_as<std::remove_const_t<R>, Rule>
void ForEachExpr(R& r, Fn&& fn) {
  for (auto& e : r.head.args) fn(e);
  for (auto& l : r.body) ForEachExpr(l, fn);
}

/// Variables occurring anywhere in the literal / rule.
void CollectVars(const Literal& l, std::vector<VarId>* out);
void CollectVars(const Rule& r, std::vector<VarId>* out);

/// Applies a substitution to every expression of a literal / rule.
Literal SubstituteLiteral(const Literal& l, const ExprSubst& subst);
Rule SubstituteRule(const Rule& r, const ExprSubst& subst);

/// True iff any expression in the rule (head or body) uses packing.
bool RuleHasPacking(const Rule& r);

}  // namespace seqdl

#endif  // SEQDL_SYNTAX_AST_H_
