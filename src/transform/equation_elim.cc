#include "src/transform/equation_elim.h"

#include "src/analysis/safety.h"
#include "src/syntax/printer.h"
#include "src/transform/rewrite.h"

namespace seqdl {

namespace {

bool HasNegatedEquation(const Rule& r) {
  for (const Literal& l : r.body) {
    if (l.is_equation() && l.negated) return true;
  }
  return false;
}

// Removes the positive equations of one rule, producing the rule itself (if
// it has none) or an auxiliary chain (Example 4.4). Output rules belong to
// the same stratum as `r`.
Status EliminatePositiveFromRule(Universe& u, const Rule& r,
                                 std::vector<Rule>* out) {
  EquationSchedule schedule = ScheduleEquations(r, PredicateVars(r));
  if (!schedule.complete) {
    return Status::InvalidArgument("unsafe rule in equation elimination: " +
                                   FormatRule(u, r));
  }
  if (schedule.steps.empty()) {  // no positive equation
    out->push_back(r);
    return Status::OK();
  }
  // Process the *last* scheduled equation: everything before it in the
  // schedule is self-contained, so the auxiliary rule (which receives the
  // rest of the positive body) stays safe. Its bound side is the one whose
  // variables were bound before it.
  const EquationStep& last = schedule.steps.back();
  const Literal& eq = r.body[last.lit_idx];
  const PathExpr& bound_side = last.lhs_bound ? eq.lhs : eq.rhs;
  const PathExpr& other_side = last.lhs_bound ? eq.rhs : eq.lhs;

  // Auxiliary body: all positive literals except the processed equation.
  // Negated literals stay in the main rule (their variables are bound there
  // through the auxiliary predicate).
  Rule aux;
  std::vector<Literal> negs;
  for (size_t i = 0; i < r.body.size(); ++i) {
    const Literal& l = r.body[i];
    if (i == last.lit_idx) continue;
    if (l.negated) {
      negs.push_back(l);
    } else {
      aux.body.push_back(l);
    }
  }
  std::vector<VarId> vs;
  for (const Literal& l : aux.body) CollectVars(l, &vs);

  RelId t = u.FreshRel(u.RelName(r.head.rel) + "_eq",
                       static_cast<uint32_t>(1 + vs.size()));
  aux.head.rel = t;
  aux.head.args.push_back(bound_side);
  for (PathExpr& e : VarExprs(u, vs)) aux.head.args.push_back(std::move(e));

  Rule main;
  main.head = r.head;
  Predicate call;
  call.rel = t;
  call.args.push_back(other_side);
  for (PathExpr& e : VarExprs(u, vs)) call.args.push_back(std::move(e));
  main.body.push_back(Literal::Pred(std::move(call)));
  for (Literal& l : negs) main.body.push_back(std::move(l));

  // The auxiliary rule carries the remaining positive equations; recurse.
  SEQDL_RETURN_IF_ERROR(EliminatePositiveFromRule(u, aux, out));
  out->push_back(std::move(main));
  return Status::OK();
}

}  // namespace

Result<Program> EliminateNegatedEquations(Universe& u, const Program& p) {
  Program out;
  for (const Stratum& delta : p.strata) {
    bool any = false;
    for (const Rule& r : delta.rules) any |= HasNegatedEquation(r);
    if (!any) {
      out.strata.push_back(delta);
      continue;
    }

    // Renaming ρ: heads of ∆ to fresh names; body-only relations unchanged.
    std::map<RelId, RelId> rho;
    for (const Rule& r : delta.rules) {
      if (!rho.count(r.head.rel)) {
        rho[r.head.rel] =
            u.FreshRel(u.RelName(r.head.rel) + "_pre",
                       static_cast<uint32_t>(r.head.args.size()));
      }
    }

    Stratum pre;    // ∆'
    Stratum fixed;  // ∆ with negated equations replaced by ¬T(...)
    for (const Rule& r : delta.rules) {
      if (!HasNegatedEquation(r)) {
        pre.rules.push_back(RenameRels(r, rho));
        fixed.rules.push_back(r);
        continue;
      }
      // Split the body: B (everything else) and the negated equations.
      Rule b_only;
      b_only.head = r.head;
      std::vector<Literal> neg_eqs;
      for (const Literal& l : r.body) {
        if (l.is_equation() && l.negated) {
          neg_eqs.push_back(l);
        } else {
          b_only.body.push_back(l);
        }
      }
      // ρ(H) <- ρ(B).
      pre.rules.push_back(RenameRels(b_only, rho));

      // T(v1, ..., vm) <- ρ(B) ∧ ei = ei', one rule per negated equation.
      std::vector<VarId> vs;
      for (const Literal& l : b_only.body) CollectVars(l, &vs);
      RelId t = u.FreshRel(u.RelName(r.head.rel) + "_viol",
                           static_cast<uint32_t>(vs.size()));
      for (const Literal& ne : neg_eqs) {
        Rule viol;
        viol.head.rel = t;
        viol.head.args = VarExprs(u, vs);
        Rule renamed_b = RenameRels(b_only, rho);
        viol.body = renamed_b.body;
        viol.body.push_back(Literal::Eq(ne.lhs, ne.rhs, /*negated=*/false));
        pre.rules.push_back(std::move(viol));
      }

      // In ∆: H <- B ∧ ¬T(v1, ..., vm).
      Rule replaced = b_only;
      Predicate tcall;
      tcall.rel = t;
      tcall.args = VarExprs(u, vs);
      replaced.body.push_back(Literal::Pred(std::move(tcall), /*neg=*/true));
      fixed.rules.push_back(std::move(replaced));
    }
    out.strata.push_back(std::move(pre));
    out.strata.push_back(std::move(fixed));
  }
  return out;
}

Result<Program> EliminatePositiveEquations(Universe& u, const Program& p) {
  for (const Rule* r : p.AllRules()) {
    if (HasNegatedEquation(*r)) {
      return Status::FailedPrecondition(
          "EliminatePositiveEquations: program still has negated equations; "
          "run EliminateNegatedEquations first");
    }
  }
  Program out;
  for (const Stratum& s : p.strata) {
    Stratum ns;
    for (const Rule& r : s.rules) {
      SEQDL_RETURN_IF_ERROR(EliminatePositiveFromRule(u, r, &ns.rules));
    }
    out.strata.push_back(std::move(ns));
  }
  return out;
}

Result<Program> EliminateEquations(Universe& u, const Program& p) {
  SEQDL_ASSIGN_OR_RETURN(Program q, EliminateNegatedEquations(u, p));
  return EliminatePositiveEquations(u, q);
}

}  // namespace seqdl
