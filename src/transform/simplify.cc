#include "src/transform/simplify.h"

#include <algorithm>
#include <map>
#include <set>
#include <unordered_set>

#include "src/syntax/printer.h"

namespace seqdl {

namespace {

// Attempts one copy-propagation step; returns true if the rule changed.
// Only equations that remain sound to inline are touched:
//   $v = e with $v not in e  ->  substitute $v := e everywhere;
//   @v = @w / @v = a         ->  substitute;
//   @v = e with |e| != 1     ->  handled by the ground/shape checks below.
bool PropagateOnce(Universe& u, Rule* r) {
  for (size_t i = 0; i < r->body.size(); ++i) {
    const Literal& l = r->body[i];
    if (!l.is_equation() || l.negated) continue;
    for (bool flip : {false, true}) {
      const PathExpr& var_side = flip ? l.rhs : l.lhs;
      const PathExpr& expr_side = flip ? l.lhs : l.rhs;
      if (!var_side.IsSingleVar()) continue;
      VarId v = var_side.items[0].var;
      // Occurs check.
      if (!ForEachVar(expr_side, [v](VarId w) { return w != v; })) continue;
      if (u.VarKindOf(v) == VarKind::kAtomic) {
        // An atomic variable can only absorb a single atomic item.
        if (expr_side.items.size() != 1) continue;
        const ExprItem& it = expr_side.items[0];
        if (it.kind != ExprItem::Kind::kConst &&
            it.kind != ExprItem::Kind::kAtomVar) {
          continue;
        }
      }
      ExprSubst subst;
      subst[v] = expr_side;
      // Drop the equation and substitute the rest of the rule.
      r->body.erase(r->body.begin() + static_cast<ptrdiff_t>(i));
      *r = SubstituteRule(*r, subst);
      return true;
    }
  }
  return false;
}

}  // namespace

std::optional<Rule> SimplifyRule(Universe& u, const Rule& r) {
  Rule out = r;
  bool changed = true;
  while (changed) {
    changed = false;

    // Evaluate ground equations and drop trivial ones.
    std::vector<Literal> kept;
    for (const Literal& l : out.body) {
      if (l.is_equation()) {
        if (l.lhs == l.rhs) {
          if (l.negated) return std::nullopt;  // e != e: never satisfiable
          changed = true;
          continue;  // e = e: drop
        }
        if (l.lhs.IsGround() && l.rhs.IsGround()) {
          Result<PathId> a = EvalGroundExpr(u, l.lhs);
          Result<PathId> b = EvalGroundExpr(u, l.rhs);
          if (a.ok() && b.ok()) {
            bool holds = l.negated ? (*a != *b) : (*a == *b);
            if (!holds) return std::nullopt;
            changed = true;
            continue;  // literal is true: drop
          }
        }
      }
      kept.push_back(l);
    }
    out.body = std::move(kept);

    changed |= PropagateOnce(u, &out);
  }

  // Drop exact duplicate literals (preserving order of first occurrence).
  std::vector<Literal> dedup;
  for (const Literal& l : out.body) {
    bool seen = false;
    for (const Literal& d : dedup) seen |= (d == l);
    if (!seen) dedup.push_back(l);
  }
  out.body = std::move(dedup);
  return out;
}

namespace {

void AppendCanonExpr(const Universe& u, const PathExpr& e,
                     std::map<VarId, int>* ids, std::string* out) {
  for (const ExprItem& it : e.items) {
    switch (it.kind) {
      case ExprItem::Kind::kConst:
        out->append("c").append(u.AtomName(it.atom.atom()));
        break;
      case ExprItem::Kind::kAtomVar:
      case ExprItem::Kind::kPathVar: {
        auto [pos, inserted] =
            ids->emplace(it.var, static_cast<int>(ids->size()));
        out->append(it.kind == ExprItem::Kind::kAtomVar ? "@" : "$");
        out->append(std::to_string(pos->second));
        (void)inserted;
        break;
      }
      case ExprItem::Kind::kPack:
        out->append("[");
        AppendCanonExpr(u, *it.pack, ids, out);
        out->append("]");
        break;
    }
    out->append(".");
  }
}

std::string CanonLiteral(const Universe& u, const Literal& l,
                         std::map<VarId, int>* ids) {
  std::string out = l.negated ? "!" : "";
  if (l.is_predicate()) {
    out += "P" + u.RelName(l.pred.rel) + "(";
    for (const PathExpr& e : l.pred.args) {
      AppendCanonExpr(u, e, ids, &out);
      out += ",";
    }
    out += ")";
  } else {
    out += "E";
    AppendCanonExpr(u, l.lhs, ids, &out);
    out += "=";
    AppendCanonExpr(u, l.rhs, ids, &out);
  }
  return out;
}

}  // namespace

std::string AlphaCanonicalKey(const Universe& u, const Rule& r) {
  // Sort body literals by a naming-independent shape key first, then assign
  // canonical variable numbers by traversal order. (A best-effort canonical
  // form: literals with identical shapes may still admit orderings that a
  // perfect graph canonizer would merge; for transformation outputs this is
  // more than enough.)
  std::vector<size_t> order(r.body.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  auto shape = [&](const Literal& l) {
    std::map<VarId, int> local;
    return CanonLiteral(u, l, &local);
  };
  std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return shape(r.body[a]) < shape(r.body[b]);
  });

  std::map<VarId, int> ids;
  std::string key = "H" + u.RelName(r.head.rel) + "(";
  for (const PathExpr& e : r.head.args) {
    AppendCanonExpr(u, e, &ids, &key);
    key += ",";
  }
  key += ")<-";
  for (size_t i : order) {
    key += CanonLiteral(u, r.body[i], &ids);
    key += ";";
  }
  return key;
}

Program SimplifyProgram(Universe& u, const Program& p) {
  Program out;
  for (const Stratum& s : p.strata) {
    Stratum ns;
    std::unordered_set<std::string> seen;
    for (const Rule& r : s.rules) {
      std::optional<Rule> simp = SimplifyRule(u, r);
      if (!simp.has_value()) continue;
      std::string key = AlphaCanonicalKey(u, *simp);
      if (seen.insert(key).second) ns.rules.push_back(std::move(*simp));
    }
    out.strata.push_back(std::move(ns));
  }
  return out;
}

}  // namespace seqdl
