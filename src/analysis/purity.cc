#include "src/analysis/purity.h"

#include <vector>

namespace seqdl {

bool PurityInfo::AllVarsPure(const PathExpr& e) const {
  return ForEachVar(e, [this](VarId v) { return IsPure(v); });
}

bool PurityInfo::RuleAllPure(const Rule& r) const {
  std::vector<VarId> all;
  CollectVars(r, &all);
  for (VarId v : all) {
    if (!pure_vars.count(v)) return false;
  }
  return true;
}

PurityInfo AnalyzePurity(const Rule& r, const std::set<RelId>& flat_rels) {
  PurityInfo info;

  // Base: source variables.
  for (const Literal& l : r.body) {
    if (l.is_predicate() && !l.negated && flat_rels.count(l.pred.rel)) {
      std::vector<VarId> vars;
      CollectVars(l, &vars);
      info.pure_vars.insert(vars.begin(), vars.end());
    }
  }

  // Fixpoint over positive equations: a packing-free all-pure side makes
  // the other side's variables pure.
  bool changed = true;
  while (changed) {
    changed = false;
    for (const Literal& l : r.body) {
      if (!l.is_equation() || l.negated) continue;
      auto propagate = [&](const PathExpr& from, const PathExpr& to) {
        if (from.HasPacking()) return;
        if (!info.AllVarsPure(from)) return;
        ForEachVar(to, [&](VarId v) {
          changed |= info.pure_vars.insert(v).second;
        });
      };
      propagate(l.lhs, l.rhs);
      propagate(l.rhs, l.lhs);
    }
  }

  // Classify positive equations.
  for (size_t i = 0; i < r.body.size(); ++i) {
    const Literal& l = r.body[i];
    if (!l.is_equation() || l.negated) continue;
    bool lhs_pure = info.AllVarsPure(l.lhs);
    bool rhs_pure = info.AllVarsPure(l.rhs);
    if (lhs_pure && rhs_pure) {
      info.equation_class[i] = EquationPurity::kPure;
    } else if (lhs_pure || rhs_pure) {
      info.equation_class[i] = EquationPurity::kHalfPure;
    } else {
      info.equation_class[i] = EquationPurity::kFullyImpure;
    }
  }
  return info;
}

}  // namespace seqdl
