#include "src/transform/rewrite.h"

namespace seqdl {

Rule RenameRels(const Rule& r, const std::map<RelId, RelId>& mapping) {
  Rule out = r;
  auto rename = [&mapping](RelId rel) {
    auto it = mapping.find(rel);
    return it == mapping.end() ? rel : it->second;
  };
  out.head.rel = rename(out.head.rel);
  for (Literal& l : out.body) {
    if (l.is_predicate()) l.pred.rel = rename(l.pred.rel);
  }
  return out;
}

Rule FreshenVars(Universe& u, const Rule& r) {
  std::vector<VarId> vars;
  CollectVars(r, &vars);
  ExprSubst subst;
  for (VarId v : vars) {
    VarId fresh = u.FreshVar(u.VarKindOf(v), u.VarName(v));
    subst[v] = VarExpr(u, fresh);
  }
  return SubstituteRule(r, subst);
}

std::vector<PathExpr> VarExprs(const Universe& u,
                               const std::vector<VarId>& vars) {
  std::vector<PathExpr> out;
  out.reserve(vars.size());
  for (VarId v : vars) out.push_back(VarExpr(u, v));
  return out;
}

}  // namespace seqdl
