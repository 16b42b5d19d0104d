#include "src/unify/unify.h"

#include <map>
#include <set>
#include <unordered_set>

#include "src/syntax/printer.h"

namespace seqdl {

namespace {

// Structural key of an equation, used for cycle detection in the rewrite
// graph. Variables are not canonicalized: the pig-pug rules reuse variable
// names, so a diverging rewrite reproduces a literally identical equation.
void AppendExprKey(const PathExpr& e, std::string* out) {
  for (const ExprItem& it : e.items) {
    switch (it.kind) {
      case ExprItem::Kind::kConst:
        out->append("c");
        out->append(std::to_string(it.atom.bits()));
        break;
      case ExprItem::Kind::kAtomVar:
        out->append("a");
        out->append(std::to_string(it.var));
        break;
      case ExprItem::Kind::kPathVar:
        out->append("p");
        out->append(std::to_string(it.var));
        break;
      case ExprItem::Kind::kPack:
        out->append("[");
        AppendExprKey(*it.pack, out);
        out->append("]");
        break;
    }
    out->append(".");
  }
}

std::string EquationKey(const PathExpr& lhs, const PathExpr& rhs) {
  std::string key;
  AppendExprKey(lhs, &key);
  key.append("=");
  AppendExprKey(rhs, &key);
  return key;
}

// σ = τ ∘ ρ: apply ρ first, then refine with τ (the pig-pug rules reuse
// variable names, so images of ρ may mention variables bound by τ).
ExprSubst Compose(const ExprSubst& rho, const ExprSubst& tau) {
  ExprSubst out;
  for (const auto& [v, image] : rho) {
    out[v] = SubstituteExpr(image, tau);
  }
  for (const auto& [v, image] : tau) {
    if (!out.count(v)) out[v] = image;
  }
  return out;
}

PathExpr Rest(const PathExpr& e) {
  PathExpr out;
  out.items.assign(e.items.begin() + 1, e.items.end());
  return out;
}

PathExpr ConsExpr(ExprItem head, const PathExpr& tail) {
  PathExpr out;
  out.items.push_back(std::move(head));
  out.items.insert(out.items.end(), tail.items.begin(), tail.items.end());
  return out;
}

class PigPug {
 public:
  PigPug(Universe& u, const UnifyOptions& opts) : u_(u), opts_(opts) {}

  Result<UnifyResult> Solve(const PathExpr& lhs, const PathExpr& rhs) {
    UnifyResult result;
    std::vector<VarId> eq_vars;
    CollectVars(lhs, &eq_vars);
    CollectVars(rhs, &eq_vars);
    if (opts_.allow_empty) {
      // Footnote-4 closure: for every subset Y of path variables, solve the
      // equation with Y replaced by ϵ under nonempty semantics, and extend
      // the solutions with Y -> ϵ.
      std::map<VarId, int> counts;
      CountVars(lhs, &counts);
      CountVars(rhs, &counts);
      std::vector<VarId> path_vars;
      for (const auto& [v, _] : counts) {
        if (u_.VarKindOf(v) == VarKind::kPath) path_vars.push_back(v);
      }
      if (path_vars.size() > 20) {
        return Status::ResourceExhausted(
            "too many path variables for the empty-word closure");
      }
      for (uint32_t mask = 0; mask < (1u << path_vars.size()); ++mask) {
        ExprSubst to_empty;
        for (size_t i = 0; i < path_vars.size(); ++i) {
          if (mask & (1u << i)) to_empty[path_vars[i]] = PathExpr();
        }
        PathExpr l2 = SubstituteExpr(lhs, to_empty);
        PathExpr r2 = SubstituteExpr(rhs, to_empty);
        SEQDL_ASSIGN_OR_RETURN(std::vector<ExprSubst> subs,
                               SolveNonempty(l2, r2, &result));
        for (ExprSubst& s : subs) {
          for (const auto& [v, image] : to_empty) s[v] = image;
          AddSolution(&result, std::move(s));
        }
      }
    } else {
      SEQDL_ASSIGN_OR_RETURN(std::vector<ExprSubst> subs,
                             SolveNonempty(lhs, rhs, &result));
      for (ExprSubst& s : subs) AddSolution(&result, std::move(s));
    }
    if (opts_.minimize) Minimize(eq_vars, &result.solutions);
    return result;
  }

 private:
  // Removes solutions that are instances of other solutions; the set stays
  // complete. Mutual instances (alpha-variants) keep the earlier entry.
  void Minimize(const std::vector<VarId>& eq_vars,
                std::vector<ExprSubst>* solutions) {
    std::vector<bool> dropped(solutions->size(), false);
    for (size_t i = 0; i < solutions->size(); ++i) {
      if (dropped[i]) continue;
      for (size_t j = 0; j < solutions->size(); ++j) {
        if (i == j || dropped[j] || dropped[i]) continue;
        if (!IsSymbolicInstance(u_, eq_vars, (*solutions)[j], (*solutions)[i],
                                opts_.allow_empty)) {
          continue;
        }
        bool mutual = IsSymbolicInstance(u_, eq_vars, (*solutions)[i],
                                         (*solutions)[j], opts_.allow_empty);
        if (mutual) {
          dropped[std::max(i, j)] = true;
        } else {
          dropped[i] = true;
        }
      }
    }
    std::vector<ExprSubst> kept;
    for (size_t i = 0; i < solutions->size(); ++i) {
      if (!dropped[i]) kept.push_back(std::move((*solutions)[i]));
    }
    *solutions = std::move(kept);
  }

  void AddSolution(UnifyResult* result, ExprSubst s) {
    ++result->successful_branches;
    for (const ExprSubst& existing : result->solutions) {
      if (SubstEquals(existing, s)) return;
    }
    result->solutions.push_back(std::move(s));
  }

  // The core rewriting search under nonempty-assignment semantics.
  Result<std::vector<ExprSubst>> SolveNonempty(const PathExpr& lhs,
                                               const PathExpr& rhs,
                                               UnifyResult* result) {
    if (++result->nodes_explored > opts_.max_nodes) {
      return Status::ResourceExhausted(
          "associative unification exceeded node budget");
    }
    std::vector<ExprSubst> out;

    // Leaf cases.
    if (lhs.empty() && rhs.empty()) {
      out.push_back(ExprSubst{});
      return out;
    }
    if (lhs.empty() || rhs.empty()) return out;  // (ϵ = w), w nonempty: fail

    const ExprItem& x = lhs.items.front();
    const ExprItem& y = rhs.items.front();

    // Cycle detection: the rewrite rules reuse variable names, so a
    // divergent search revisits a literally identical equation.
    std::string key = EquationKey(lhs, rhs);
    if (in_progress_.count(key)) {
      return Status::InvalidArgument(
          "equation has no finite complete set of symbolic solutions "
          "(cycle in the pig-pug rewrite graph); the equation is not "
          "one-sided nonlinear");
    }
    in_progress_.insert(key);
    Status status = Status::OK();
    ExpandNode(lhs, rhs, x, y, result, &out, &status);
    in_progress_.erase(key);
    if (!status.ok()) return status;
    return out;
  }

  // Applies every applicable rewrite rule to the equation (x·w1 = y·w2) and
  // collects composed solutions into *out.
  void ExpandNode(const PathExpr& lhs, const PathExpr& rhs, const ExprItem& x,
                  const ExprItem& y, UnifyResult* result,
                  std::vector<ExprSubst>* out, Status* status) {
    using K = ExprItem::Kind;

    // Cancellation rule: identical heads (atom constants or same variable).
    if ((x.kind != K::kPack && x == y)) {
      Branch(ExprSubst{}, Rest(lhs), Rest(rhs), result, out, status);
      if (x.kind == K::kConst) return;  // no other rule applies
      // For identical variables, cancellation is the only sensible step
      // (the main rules require *distinct* variables).
      return;
    }

    if (x.kind == K::kPathVar && y.kind == K::kPathVar) {
      // Main rules (a), (b), (c) for distinct path variables.
      //   (a) x -> y·x : x is longer than y
      Branch(Subst1(x.var, ConsExpr(y, VarTail(x.var))),
             /*new_lhs=*/nullptr, lhs, rhs, x, result, out, status,
             RuleShape::kKeepLhsHead);
      //   (b) x -> y : equal
      Branch(Subst1(x.var, SingleExpr(y)), ApplyRest(lhs, x.var, SingleExpr(y)),
             ApplyRest(rhs, x.var, SingleExpr(y)), result, out, status);
      //   (c) y -> x·y : y is longer than x
      Branch(Subst1(y.var, ConsExpr(x, VarTail(y.var))),
             /*new_lhs=*/nullptr, rhs, lhs, y, result, out, status,
             RuleShape::kKeepLhsHeadSwapped);
      return;
    }

    // Path variable head on the left vs a "rigid" item (constant, atomic
    // variable, or pack): rules (d)/(e) and their extensions (j), (m).
    if (x.kind == K::kPathVar && IsRigid(y)) {
      //   x -> y·x (x continues)
      Branch(Subst1(x.var, ConsExpr(y, VarTail(x.var))),
             /*new_lhs=*/nullptr, lhs, rhs, x, result, out, status,
             RuleShape::kKeepLhsHead);
      //   x -> y (x consumed)
      Branch(Subst1(x.var, SingleExpr(y)), ApplyRest(lhs, x.var, SingleExpr(y)),
             ApplyRest(rhs, x.var, SingleExpr(y)), result, out, status);
      return;
    }
    if (y.kind == K::kPathVar && IsRigid(x)) {  // rules (f)/(g), (i), (l)
      Branch(Subst1(y.var, ConsExpr(x, VarTail(y.var))),
             /*new_lhs=*/nullptr, rhs, lhs, y, result, out, status,
             RuleShape::kKeepLhsHeadSwapped);
      Branch(Subst1(y.var, SingleExpr(x)), ApplyRest(lhs, y.var, SingleExpr(x)),
             ApplyRest(rhs, y.var, SingleExpr(x)), result, out, status);
      return;
    }

    // Atomic-variable heads: rule (h) and the constant analogues.
    if (x.kind == K::kAtomVar && y.kind == K::kAtomVar) {
      Branch(Subst1(x.var, SingleExpr(y)), ApplyRest(lhs, x.var, SingleExpr(y)),
             ApplyRest(rhs, x.var, SingleExpr(y)), result, out, status);
      return;
    }
    if (x.kind == K::kAtomVar && y.kind == K::kConst) {
      Branch(Subst1(x.var, SingleExpr(y)), ApplyRest(lhs, x.var, SingleExpr(y)),
             ApplyRest(rhs, x.var, SingleExpr(y)), result, out, status);
      return;
    }
    if (x.kind == K::kConst && y.kind == K::kAtomVar) {
      Branch(Subst1(y.var, SingleExpr(x)), ApplyRest(lhs, y.var, SingleExpr(x)),
             ApplyRest(rhs, y.var, SingleExpr(x)), result, out, status);
      return;
    }

    // Pack vs pack: rule (k) — solve the inner equation, then continue with
    // each inner solution applied to the tails.
    if (x.kind == K::kPack && y.kind == K::kPack) {
      Result<std::vector<ExprSubst>> inner =
          SolveInner(*x.pack, *y.pack, result);
      if (!inner.ok()) {
        *status = inner.status();
        return;
      }
      for (const ExprSubst& rho : *inner) {
        Branch(rho, SubstituteExpr(Rest(lhs), rho),
               SubstituteExpr(Rest(rhs), rho), result, out, status);
      }
      return;
    }

    // Remaining head combinations (atom vs different atom, atom vs pack,
    // atomic variable vs pack, ...) cannot be unified: non-successful leaf.
  }

  // Inner pack equations get the full treatment, including the empty-word
  // closure (components inside packs may be empty even under the outer
  // nonempty semantics).
  Result<std::vector<ExprSubst>> SolveInner(const PathExpr& lhs,
                                            const PathExpr& rhs,
                                            UnifyResult* result) {
    std::map<VarId, int> counts;
    CountVars(lhs, &counts);
    CountVars(rhs, &counts);
    std::vector<VarId> path_vars;
    for (const auto& [v, _] : counts) {
      if (u_.VarKindOf(v) == VarKind::kPath) path_vars.push_back(v);
    }
    if (path_vars.size() > 20) {
      return Status::ResourceExhausted(
          "too many path variables in packed subequation");
    }
    std::vector<ExprSubst> all;
    for (uint32_t mask = 0; mask < (1u << path_vars.size()); ++mask) {
      ExprSubst to_empty;
      for (size_t i = 0; i < path_vars.size(); ++i) {
        if (mask & (1u << i)) to_empty[path_vars[i]] = PathExpr();
      }
      PathExpr l2 = SubstituteExpr(lhs, to_empty);
      PathExpr r2 = SubstituteExpr(rhs, to_empty);
      SEQDL_ASSIGN_OR_RETURN(std::vector<ExprSubst> subs,
                             SolveNonempty(l2, r2, result));
      for (ExprSubst& s : subs) {
        for (const auto& [v, image] : to_empty) {
          if (!s.count(v)) s[v] = image;
        }
        bool dup = false;
        for (const ExprSubst& e : all) {
          if (SubstEquals(e, s)) {
            dup = true;
            break;
          }
        }
        if (!dup) all.push_back(std::move(s));
      }
    }
    return all;
  }

  enum class RuleShape { kPlain, kKeepLhsHead, kKeepLhsHeadSwapped };

  static bool IsRigid(const ExprItem& it) {
    return it.kind == ExprItem::Kind::kConst ||
           it.kind == ExprItem::Kind::kAtomVar ||
           it.kind == ExprItem::Kind::kPack;
  }

  PathExpr VarTail(VarId v) const { return VarExpr(u_, v); }
  static PathExpr SingleExpr(const ExprItem& it) {
    return PathExpr({it});
  }
  static ExprSubst Subst1(VarId v, PathExpr image) {
    ExprSubst s;
    s[v] = std::move(image);
    return s;
  }
  // Applies {v -> image} to the *rest* of e (dropping e's head).
  static PathExpr ApplyRest(const PathExpr& e, VarId v, PathExpr image) {
    ExprSubst s = Subst1(v, std::move(image));
    return SubstituteExpr(Rest(e), s);
  }

  // Plain branch: recurse on (new_lhs = new_rhs), composing rho with each
  // child solution.
  void Branch(const ExprSubst& rho, PathExpr new_lhs, PathExpr new_rhs,
              UnifyResult* result, std::vector<ExprSubst>* out,
              Status* status) {
    if (!status->ok()) return;
    Result<std::vector<ExprSubst>> children =
        SolveNonempty(new_lhs, new_rhs, result);
    if (!children.ok()) {
      *status = children.status();
      return;
    }
    for (const ExprSubst& tau : *children) {
      out->push_back(Compose(rho, tau));
    }
  }

  // Branch for rules of shape (x·w1 = y·w2) => (x·ρ(w1) = ρ(w2)) with
  // ρ(x) = y·x: the head variable x stays in front of the rewritten lhs.
  // `shape` selects whether (kept_side, other_side) corresponds to
  // (lhs, rhs) or swapped; the recursive equation keeps orientation.
  void Branch(const ExprSubst& rho, std::nullptr_t, const PathExpr& kept_side,
              const PathExpr& other_side, const ExprItem& head_var,
              UnifyResult* result, std::vector<ExprSubst>* out, Status* status,
              RuleShape shape) {
    if (!status->ok()) return;
    PathExpr new_kept =
        ConsExpr(head_var, SubstituteExpr(Rest(kept_side), rho));
    PathExpr new_other = SubstituteExpr(Rest(other_side), rho);
    PathExpr new_lhs, new_rhs;
    if (shape == RuleShape::kKeepLhsHeadSwapped) {
      new_lhs = std::move(new_other);
      new_rhs = std::move(new_kept);
    } else {
      new_lhs = std::move(new_kept);
      new_rhs = std::move(new_other);
    }
    Branch(rho, std::move(new_lhs), std::move(new_rhs), result, out, status);
  }

  Universe& u_;
  UnifyOptions opts_;
  std::unordered_set<std::string> in_progress_;
};

}  // namespace

Result<UnifyResult> UnifyExprs(Universe& u, const PathExpr& lhs,
                               const PathExpr& rhs, const UnifyOptions& opts) {
  PigPug p(u, opts);
  return p.Solve(lhs, rhs);
}

bool IsOneSidedNonlinear(const PathExpr& lhs, const PathExpr& rhs) {
  std::map<VarId, int> left, right;
  CountVars(lhs, &left);
  CountVars(rhs, &right);
  std::set<VarId> all;
  for (const auto& [v, _] : left) all.insert(v);
  for (const auto& [v, _] : right) all.insert(v);
  for (VarId v : all) {
    int l = left.count(v) ? left.at(v) : 0;
    int r = right.count(v) ? right.at(v) : 0;
    if (l + r >= 2 && l > 0 && r > 0) return false;
  }
  return true;
}

std::string FormatSubst(const Universe& u, const ExprSubst& subst) {
  // Sort by variable name for determinism.
  std::map<std::string, std::string> entries;
  for (const auto& [v, image] : subst) {
    std::string sigil = u.VarKindOf(v) == VarKind::kAtomic ? "@" : "$";
    entries[sigil + u.VarName(v)] = FormatExpr(u, image);
  }
  std::string out = "{";
  bool first = true;
  for (const auto& [name, image] : entries) {
    if (!first) out += ", ";
    out += name + " -> " + image;
    first = false;
  }
  out += "}";
  return out;
}

bool SubstEquals(const ExprSubst& a, const ExprSubst& b) {
  if (a.size() != b.size()) return false;
  for (const auto& [v, image] : a) {
    auto it = b.find(v);
    if (it == b.end() || !(it->second == image)) return false;
  }
  return true;
}

namespace {

// One-way symbolic matching: find σ with σ(pattern) = target (syntactic
// identity of expressions). Pattern variables bind to subexpressions of the
// target; path variables to item sequences (possibly empty if
// `allow_empty`), atomic variables to a single atom-kinded item.
class SymbolicMatcher {
 public:
  SymbolicMatcher(const Universe& u, bool allow_empty)
      : u_(u), allow_empty_(allow_empty) {}

  // Matches a whole list of (pattern, target) pairs under one shared σ.
  bool MatchPairs(const std::vector<std::pair<PathExpr, PathExpr>>& pairs) {
    return MatchPair(pairs, 0);
  }

 private:
  bool MatchPair(const std::vector<std::pair<PathExpr, PathExpr>>& pairs,
                 size_t idx) {
    if (idx == pairs.size()) return true;
    const auto& [pattern, target] = pairs[idx];
    return MatchItems(pattern.items, 0, target.items, 0,
                      [&]() { return MatchPair(pairs, idx + 1); });
  }

  bool MatchItems(const std::vector<ExprItem>& pattern, size_t pi,
                  const std::vector<ExprItem>& target, size_t ti,
                  const std::function<bool()>& next) {
    if (pi == pattern.size()) {
      if (ti != target.size()) return false;
      return next();
    }
    const ExprItem& it = pattern[pi];
    switch (it.kind) {
      case ExprItem::Kind::kConst: {
        if (ti >= target.size() || !(target[ti] == it)) return false;
        return MatchItems(pattern, pi + 1, target, ti + 1, next);
      }
      case ExprItem::Kind::kAtomVar: {
        if (ti >= target.size()) return false;
        const ExprItem& t = target[ti];
        bool atom_kinded = t.kind == ExprItem::Kind::kConst ||
                           t.kind == ExprItem::Kind::kAtomVar;
        if (!atom_kinded) return false;
        auto bound = sigma_.find(it.var);
        if (bound != sigma_.end()) {
          if (!(bound->second.items.size() == 1 &&
                bound->second.items[0] == t)) {
            return false;
          }
          return MatchItems(pattern, pi + 1, target, ti + 1, next);
        }
        sigma_[it.var] = PathExpr({t});
        bool ok = MatchItems(pattern, pi + 1, target, ti + 1, next);
        sigma_.erase(it.var);
        return ok;
      }
      case ExprItem::Kind::kPack: {
        if (ti >= target.size() ||
            target[ti].kind != ExprItem::Kind::kPack) {
          return false;
        }
        const std::vector<ExprItem>& inner_t = target[ti].pack->items;
        return MatchItems(it.pack->items, 0, inner_t, 0, [&]() {
          return MatchItems(pattern, pi + 1, target, ti + 1, next);
        });
      }
      case ExprItem::Kind::kPathVar: {
        auto bound = sigma_.find(it.var);
        if (bound != sigma_.end()) {
          const std::vector<ExprItem>& image = bound->second.items;
          if (ti + image.size() > target.size()) return false;
          for (size_t k = 0; k < image.size(); ++k) {
            if (!(target[ti + k] == image[k])) return false;
          }
          return MatchItems(pattern, pi + 1, target, ti + image.size(), next);
        }
        size_t remaining = target.size() - ti;
        size_t min_len = allow_empty_ ? 0 : 1;
        for (size_t len = min_len; len <= remaining; ++len) {
          PathExpr image;
          image.items.assign(target.begin() + static_cast<ptrdiff_t>(ti),
                             target.begin() + static_cast<ptrdiff_t>(ti + len));
          sigma_[it.var] = std::move(image);
          if (MatchItems(pattern, pi + 1, target, ti + len, next)) {
            sigma_.erase(it.var);
            return true;
          }
          sigma_.erase(it.var);
        }
        return false;
      }
    }
    return false;
  }

  const Universe& u_;
  bool allow_empty_;
  ExprSubst sigma_;
};

PathExpr ImageOrIdentity(const Universe& u, const ExprSubst& s, VarId v) {
  auto it = s.find(v);
  if (it != s.end()) return it->second;
  return VarExpr(u, v);
}

}  // namespace

bool IsSymbolicInstance(const Universe& u, const std::vector<VarId>& eq_vars,
                        const ExprSubst& general, const ExprSubst& specific,
                        bool allow_empty) {
  std::vector<std::pair<PathExpr, PathExpr>> pairs;
  for (VarId v : eq_vars) {
    pairs.emplace_back(ImageOrIdentity(u, general, v),
                       ImageOrIdentity(u, specific, v));
  }
  SymbolicMatcher m(u, allow_empty);
  return m.MatchPairs(pairs);
}

}  // namespace seqdl
