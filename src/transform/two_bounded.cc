#include "src/transform/two_bounded.h"

#include <deque>
#include <optional>
#include <vector>

#include "src/syntax/printer.h"
#include "src/transform/simplify.h"

namespace seqdl {

Status CheckTwoBounded(const Universe& u, const Instance& i) {
  for (RelId rel : i.Relations()) {
    for (TupleRef t : i.Tuples(rel)) {
      for (PathId p : t) {
        size_t len = u.PathLength(p);
        if (len < 1 || len > 2 || !u.IsFlatPath(p)) {
          return Status::FailedPrecondition(
              "instance is not two-bounded: " + u.RelName(rel) + "(" +
              u.FormatPath(p) + ")");
        }
      }
    }
  }
  return Status::OK();
}

namespace {

std::pair<RelId, RelId> EncodedRels(Universe& u, RelId rel,
                                    ClassicalEncoding* enc) {
  auto it = enc->rels.find(rel);
  if (it != enc->rels.end()) return it->second;
  RelId r1 = u.FreshRel(u.RelName(rel) + "_c1", 1);
  RelId r2 = u.FreshRel(u.RelName(rel) + "_c2", 2);
  enc->rels[rel] = {r1, r2};
  return {r1, r2};
}

// Collects all path variables appearing in *predicates* of the rule (the
// head first), in order of first occurrence.
std::vector<VarId> PredicatePathVars(const Universe& u, const Rule& r) {
  std::vector<VarId> vars;
  auto collect = [&vars](const PathExpr& e) { CollectVars(e, &vars); };
  for (const PathExpr& e : r.head.args) collect(e);
  for (const Literal& l : r.body) {
    if (l.is_predicate()) ForEachExpr(l, collect);
  }
  std::erase_if(vars,
                [&u](VarId v) { return u.VarKindOf(v) != VarKind::kPath; });
  return vars;
}

}  // namespace

Result<Instance> EncodeTwoBounded(Universe& u, const Instance& i,
                                  ClassicalEncoding* enc) {
  SEQDL_RETURN_IF_ERROR(CheckTwoBounded(u, i));
  Instance out;
  for (RelId rel : i.Relations()) {
    if (u.RelArity(rel) != 1) {
      return Status::FailedPrecondition(
          "EncodeTwoBounded: relation " + u.RelName(rel) + " is not unary");
    }
    auto [r1, r2] = EncodedRels(u, rel, enc);
    for (TupleRef t : i.Tuples(rel)) {
      std::span<const Value> p = u.GetPath(t[0]);
      if (p.size() == 1) {
        out.Add(r1, {t[0]});
      } else {
        out.Add(r2, {u.SingletonPath(p[0]), u.SingletonPath(p[1])});
      }
    }
  }
  return out;
}

Result<Program> SimulateTwoBounded(Universe& u, const Program& p,
                                   ClassicalEncoding* enc) {
  // Preconditions: fragment {E, N, R} — unary predicates, no packing.
  for (const Rule* r : p.AllRules()) {
    if (RuleHasPacking(*r)) {
      return Status::FailedPrecondition(
          "SimulateTwoBounded: program uses packing");
    }
    if (r->head.args.size() > 1) {
      return Status::FailedPrecondition(
          "SimulateTwoBounded: program uses arity");
    }
    for (const Literal& l : r->body) {
      if (l.is_predicate() && l.pred.args.size() > 1) {
        return Status::FailedPrecondition(
            "SimulateTwoBounded: program uses arity");
      }
    }
  }

  Program out;
  for (const Stratum& s : p.strata) {
    // Step 1: eliminate path variables from predicates — each becomes
    // ϵ, a fresh atomic variable, or two fresh atomic variables.
    std::deque<Rule> work(s.rules.begin(), s.rules.end());
    std::deque<Rule> no_pred_pathvars;
    while (!work.empty()) {
      Rule r = std::move(work.front());
      work.pop_front();
      std::vector<VarId> pvars = PredicatePathVars(u, r);
      if (pvars.empty()) {
        no_pred_pathvars.push_back(std::move(r));
        continue;
      }
      VarId v = pvars.front();
      // ϵ
      {
        ExprSubst subst;
        subst[v] = PathExpr();
        work.push_back(SubstituteRule(r, subst));
      }
      // one atomic variable
      {
        ExprSubst subst;
        subst[v] = VarExpr(u, u.FreshVar(VarKind::kAtomic, u.VarName(v)));
        work.push_back(SubstituteRule(r, subst));
      }
      // two atomic variables
      {
        ExprSubst subst;
        subst[v] =
            ConcatExpr(VarExpr(u, u.FreshVar(VarKind::kAtomic, u.VarName(v))),
                       VarExpr(u, u.FreshVar(VarKind::kAtomic, u.VarName(v))));
        work.push_back(SubstituteRule(r, subst));
      }
    }

    // Step 2: residuate path variables out of the equations. By safety,
    // some positive equation has a path-variable-free side.
    std::deque<Rule> eq_work(no_pred_pathvars.begin(), no_pred_pathvars.end());
    std::deque<Rule> no_pathvars;
    auto has_path_var = [&u](const PathExpr& e) {
      return !ForEachVar(
          e, [&u](VarId v) { return u.VarKindOf(v) != VarKind::kPath; });
    };
    while (!eq_work.empty()) {
      Rule r = std::move(eq_work.front());
      eq_work.pop_front();
      // Find a positive equation with a path variable whose other side has
      // no path variables.
      size_t idx = r.body.size();
      bool lhs_free = false;
      for (size_t i = 0; i < r.body.size(); ++i) {
        const Literal& l = r.body[i];
        if (!l.is_equation() || l.negated) continue;
        bool lp = has_path_var(l.lhs), rp = has_path_var(l.rhs);
        if (!lp && !rp) continue;
        if (!lp || !rp) {
          idx = i;
          lhs_free = !lp;
          break;
        }
      }
      if (idx == r.body.size()) {
        // No such equation; if path variables remain anywhere the rule was
        // unsafe (ValidateProgram would have rejected it), so it is safe to
        // check and keep.
        bool any = false;
        for (const Literal& l : r.body) {
          if (l.is_equation()) {
            any |= has_path_var(l.lhs) || has_path_var(l.rhs);
          }
        }
        if (any) {
          return Status::InvalidArgument(
              "SimulateTwoBounded: unresolved path variable in rule " +
              FormatRule(u, r));
        }
        no_pathvars.push_back(std::move(r));
        continue;
      }
      const Literal eq = r.body[idx];
      const PathExpr& free_side = lhs_free ? eq.lhs : eq.rhs;   // a1···an
      const PathExpr& var_side = lhs_free ? eq.rhs : eq.lhs;    // b1···bm·$x·e
      size_t n = free_side.items.size();
      // Find the first path variable in var_side; m = its offset.
      size_t m = 0;
      while (m < var_side.items.size() &&
             var_side.items[m].kind != ExprItem::Kind::kPathVar) {
        ++m;
      }
      VarId x = var_side.items[m].var;
      if (m > n) continue;  // unsatisfiable: drop the rule
      // Replace $x by a_{m+1}···a_i for m <= i <= n (n - m + 1 versions).
      for (size_t i = m; i <= n; ++i) {
        ExprSubst subst;
        PathExpr seg;
        seg.items.assign(
            free_side.items.begin() + static_cast<ptrdiff_t>(m),
            free_side.items.begin() + static_cast<ptrdiff_t>(i));
        subst[x] = std::move(seg);
        eq_work.push_back(SubstituteRule(r, subst));
      }
    }

    // Step 3: all equations are over atomic variables/values. Positive
    // equations of unequal length are unsatisfiable; equal-length ones are
    // handled by copy propagation in SimplifyRule. Negated equations of
    // unequal length are vacuously true; equal-length ones become a
    // disjunction of per-position nonequalities (one rule per position).
    std::deque<Rule> neq_work(no_pathvars.begin(), no_pathvars.end());
    std::vector<Rule> classical;
    while (!neq_work.empty()) {
      Rule r = std::move(neq_work.front());
      neq_work.pop_front();
      size_t idx = r.body.size();
      for (size_t i = 0; i < r.body.size(); ++i) {
        const Literal& l = r.body[i];
        if (l.is_equation() && l.lhs.items.size() != l.rhs.items.size()) {
          idx = i;
          break;
        }
        if (l.is_equation() && l.negated && l.lhs.items.size() > 1) {
          idx = i;
          break;
        }
        if (l.is_equation() && !l.negated && l.lhs.items.size() > 1) {
          idx = i;
          break;
        }
      }
      if (idx == r.body.size()) {
        classical.push_back(std::move(r));
        continue;
      }
      const Literal eq = r.body[idx];
      Rule base;
      base.head = r.head;
      for (size_t i = 0; i < r.body.size(); ++i) {
        if (i != idx) base.body.push_back(r.body[i]);
      }
      size_t ln = eq.lhs.items.size(), rn = eq.rhs.items.size();
      if (ln != rn) {
        if (eq.negated) {
          neq_work.push_back(std::move(base));  // literal is true
        }
        // positive unequal-length equation: rule dropped
        continue;
      }
      if (!eq.negated) {
        for (size_t i = 0; i < ln; ++i) {
          base.body.push_back(Literal::Eq(PathExpr({eq.lhs.items[i]}),
                                          PathExpr({eq.rhs.items[i]}),
                                          /*negated=*/false));
        }
        neq_work.push_back(std::move(base));
      } else {
        for (size_t i = 0; i < ln; ++i) {
          Rule split = base;
          split.body.push_back(Literal::Eq(PathExpr({eq.lhs.items[i]}),
                                           PathExpr({eq.rhs.items[i]}),
                                           /*negated=*/true));
          neq_work.push_back(std::move(split));
        }
      }
    }

    // Steps 4 + 5: drop predicates of impossible lengths and split into
    // R1/R2; simplify (substituting positive atomic equations away).
    Stratum ns;
    for (const Rule& r : classical) {
      std::optional<Rule> simplified = SimplifyRule(u, r);
      if (!simplified.has_value()) continue;
      Rule& sr = *simplified;
      Rule nr;
      bool dead = false;
      auto convert = [&](const Predicate& pred) -> std::optional<Predicate> {
        if (pred.args.empty()) return pred;  // arity-0 predicates untouched
        size_t len = pred.args[0].items.size();
        if (len < 1 || len > 2) return std::nullopt;
        auto [r1, r2] = EncodedRels(u, pred.rel, enc);
        Predicate np;
        if (len == 1) {
          np.rel = r1;
          np.args.push_back(pred.args[0]);
        } else {
          np.rel = r2;
          np.args.push_back(PathExpr({pred.args[0].items[0]}));
          np.args.push_back(PathExpr({pred.args[0].items[1]}));
        }
        return np;
      };
      std::optional<Predicate> head = convert(sr.head);
      if (!head.has_value()) continue;  // head of impossible length
      nr.head = *head;
      for (const Literal& l : sr.body) {
        if (!l.is_predicate()) {
          nr.body.push_back(l);
          continue;
        }
        std::optional<Predicate> np = convert(l.pred);
        if (!np.has_value()) {
          if (l.negated) continue;  // vacuously true
          dead = true;              // positive predicate can never hold
          break;
        }
        nr.body.push_back(Literal::Pred(std::move(*np), l.negated));
      }
      if (!dead) ns.rules.push_back(std::move(nr));
    }
    // Deduplicate alpha-equivalent rules.
    Program tmp;
    tmp.strata.push_back(std::move(ns));
    tmp = SimplifyProgram(u, tmp);
    out.strata.push_back(std::move(tmp.strata[0]));
  }
  return out;
}

}  // namespace seqdl
