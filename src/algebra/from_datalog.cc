#include "src/algebra/from_datalog.h"

#include <functional>
#include <map>

#include "src/analysis/dependency_graph.h"
#include "src/syntax/printer.h"
#include "src/transform/equation_elim.h"
#include "src/transform/normal_form.h"

namespace seqdl {

namespace {

class Translator {
 public:
  explicit Translator(Universe& u) : u_(u) {}

  Result<AlgebraPtr> Run(const Program& p, RelId target) {
    std::set<RelId> idb = IdbRels(p);
    if (!idb.count(target)) {
      return Status::InvalidArgument("DatalogToAlgebra: " +
                                     u_.RelName(target) +
                                     " is not an IDB relation");
    }
    for (const Rule* r : p.AllRules()) {
      defs_[r->head.rel].push_back(r);
    }
    idb_ = std::move(idb);
    return ExprFor(target);
  }

 private:
  Result<AlgebraPtr> ExprFor(RelId rel) {
    auto memo = memo_.find(rel);
    if (memo != memo_.end()) return memo->second;
    if (!idb_.count(rel)) return AlgRel(rel);

    AlgebraPtr acc;
    for (const Rule* r : defs_[rel]) {
      SEQDL_ASSIGN_OR_RETURN(AlgebraPtr e, RuleExpr(*r));
      acc = acc ? AlgUnion(acc, e) : e;
    }
    if (!acc) {
      return Status::Internal("IDB relation with no rules: " +
                              u_.RelName(rel));
    }
    memo_[rel] = acc;
    return acc;
  }

  Result<AlgebraPtr> RuleExpr(const Rule& r) {
    SEQDL_ASSIGN_OR_RETURN(int form, NormalFormOf(u_, r));
    switch (form) {
      case 6: {
        Tuple t;
        for (const PathExpr& e : r.head.args) {
          SEQDL_ASSIGN_OR_RETURN(PathId p, EvalGroundExpr(u_, e));
          t.push_back(p);
        }
        return AlgConst(static_cast<uint32_t>(t.size()), {t});
      }
      case 1:
        return Form1(r);
      case 2:
        return Form2(r);
      case 3:
        return Form3(r);
      case 4:
        return Form4(r);
      case 5:
        return Form5(r);
      default:
        return Status::Internal("unknown normal form");
    }
  }

  // Positions (1-based) of variables in a predicate of distinct vars.
  static std::map<VarId, size_t> VarPositions(const Predicate& p) {
    std::map<VarId, size_t> out;
    for (size_t i = 0; i < p.args.size(); ++i) {
      out[p.args[i].items[0].var] = i + 1;
    }
    return out;
  }

  // Rewrites `e`, mapping each variable to the column expression given by
  // `positions` (plus `offset`).
  PathExpr ToColumns(const PathExpr& e, const std::map<VarId, size_t>& pos,
                     size_t offset) {
    ExprSubst subst;
    ForEachVar(e, [&](VarId v) {
      auto it = pos.find(v);
      if (it != pos.end()) subst[v] = ColExpr(u_, it->second + offset);
    });
    return SubstituteExpr(e, subst);
  }

  // Form 2: R1(v1..vn, e) <- R2(v1..vn): generalized projection.
  Result<AlgebraPtr> Form2(const Rule& r) {
    const Predicate& body = r.body[0].pred;
    SEQDL_ASSIGN_OR_RETURN(AlgebraPtr child, ExprFor(body.rel));
    std::map<VarId, size_t> pos = VarPositions(body);
    std::vector<PathExpr> projections;
    for (size_t i = 1; i <= body.args.size(); ++i) {
      projections.push_back(ColExpr(u_, i));
    }
    projections.push_back(ToColumns(r.head.args.back(), pos, 0));
    return AlgProject(child, std::move(projections));
  }

  // Form 5: projection onto a subset of columns.
  Result<AlgebraPtr> Form5(const Rule& r) {
    const Predicate& body = r.body[0].pred;
    SEQDL_ASSIGN_OR_RETURN(AlgebraPtr child, ExprFor(body.rel));
    std::map<VarId, size_t> pos = VarPositions(body);
    std::vector<PathExpr> projections;
    for (const PathExpr& e : r.head.args) {
      projections.push_back(ColExpr(u_, pos.at(e.items[0].var)));
    }
    return AlgProject(child, std::move(projections));
  }

  // Form 3: join.
  Result<AlgebraPtr> Form3(const Rule& r) {
    const Predicate& b1 = r.body[0].pred;
    const Predicate& b2 = r.body[1].pred;
    SEQDL_ASSIGN_OR_RETURN(AlgebraPtr l, ExprFor(b1.rel));
    SEQDL_ASSIGN_OR_RETURN(AlgebraPtr r2, ExprFor(b2.rel));
    AlgebraPtr prod = AlgProduct(l, r2);
    std::map<VarId, size_t> pos1 = VarPositions(b1);
    std::map<VarId, size_t> pos2 = VarPositions(b2);
    size_t k = b1.args.size();
    for (const auto& [v, p2] : pos2) {
      auto it = pos1.find(v);
      if (it != pos1.end()) {
        prod = AlgSelect(prod, ColExpr(u_, it->second),
                         ColExpr(u_, k + p2));
      }
    }
    std::vector<PathExpr> projections;
    for (const PathExpr& e : r.head.args) {
      VarId v = e.items[0].var;
      auto it = pos1.find(v);
      size_t col = it != pos1.end() ? it->second : k + pos2.at(v);
      projections.push_back(ColExpr(u_, col));
    }
    return AlgProject(prod, std::move(projections));
  }

  // Form 4: antijoin R2 − matches(R3).
  Result<AlgebraPtr> Form4(const Rule& r) {
    const Literal& pos_lit = r.body[0].negated ? r.body[1] : r.body[0];
    const Literal& neg_lit = r.body[0].negated ? r.body[0] : r.body[1];
    SEQDL_ASSIGN_OR_RETURN(AlgebraPtr l, ExprFor(pos_lit.pred.rel));
    SEQDL_ASSIGN_OR_RETURN(AlgebraPtr n, ExprFor(neg_lit.pred.rel));
    std::map<VarId, size_t> pos = VarPositions(pos_lit.pred);
    size_t k = pos_lit.pred.args.size();
    AlgebraPtr prod = AlgProduct(l, n);
    for (size_t j = 0; j < neg_lit.pred.args.size(); ++j) {
      VarId v = neg_lit.pred.args[j].items[0].var;
      prod = AlgSelect(prod, ColExpr(u_, pos.at(v)), ColExpr(u_, k + j + 1));
    }
    std::vector<PathExpr> keep;
    for (size_t i = 1; i <= k; ++i) keep.push_back(ColExpr(u_, i));
    AlgebraPtr matched = AlgProject(prod, std::move(keep));
    return AlgDiff(l, matched);
  }

  // Form 1: extraction R1(v1..vn) <- R2(e1..em). Candidate values for the
  // variables come from the substring/unpacking closure of R2's columns;
  // atomic variables are additionally restricted to atoms (paper §7:
  // "by compositions of unpacking and substring operations, we can
  // generate all subpaths until the maximum packing depth ... using
  // cartesian product and selection, we then select the desired paths").
  Result<AlgebraPtr> Form1(const Rule& r) {
    const Predicate& body = r.body[0].pred;
    SEQDL_ASSIGN_OR_RETURN(AlgebraPtr r2, ExprFor(body.rel));
    size_t m = body.args.size();

    // The deepest packing nesting of the body.
    size_t depth = 0;
    for (const PathExpr& e : body.args) {
      FoldExpr(e, [&depth](const ExprItem& it, size_t d) {
        if (it.kind == ExprItem::Kind::kPack) depth = std::max(depth, d + 1);
      });
    }

    // U = substring closure of all columns, unpacked `depth` + 1 times.
    AlgebraPtr universe;
    for (size_t j = 1; j <= m; ++j) {
      AlgebraPtr col = AlgProject(r2, {ColExpr(u_, j)});
      universe = universe ? AlgUnion(universe, col) : col;
    }
    if (!universe) {
      // Arity-0 body: no variables can occur; the head must also be arity 0.
      // R1() holds iff R2() does.
      return r2;
    }
    AlgebraPtr level = AllSubstrings(universe);
    AlgebraPtr u_all = level;
    for (size_t d = 0; d < depth + 1; ++d) {
      level = AllSubstrings(AlgUnpack(level, 1));
      u_all = AlgUnion(u_all, level);
    }

    AlgebraPtr atoms = AtomsOf(u_all);

    // Product R2 × cand(v1) × ... × cand(vk), one candidate column per
    // *body* variable (head variables are a subset of those).
    std::vector<VarId> body_vars;
    for (const PathExpr& e : body.args) CollectVars(e, &body_vars);
    AlgebraPtr prod = r2;
    std::map<VarId, size_t> var_col;
    for (size_t i = 0; i < body_vars.size(); ++i) {
      VarId v = body_vars[i];
      bool atomic = u_.VarKindOf(v) == VarKind::kAtomic;
      prod = AlgProduct(prod, atomic ? atoms : u_all);
      var_col[v] = m + i + 1;
    }
    // Selections: e_i(vars -> columns) = $i.
    for (size_t i = 0; i < m; ++i) {
      PathExpr alpha = ToColumns(body.args[i], var_col, 0);
      prod = AlgSelect(prod, std::move(alpha), ColExpr(u_, i + 1));
    }
    std::vector<PathExpr> projections;
    for (const PathExpr& e : r.head.args) {
      projections.push_back(ColExpr(u_, var_col.at(e.items[0].var)));
    }
    return AlgProject(prod, std::move(projections));
  }

  // All substrings of a unary relation: π_{$2}(SUB_1(X)).
  AlgebraPtr AllSubstrings(AlgebraPtr x) {
    return AlgProject(AlgSub(std::move(x), 1), {ColExpr(u_, 2)});
  }

  // The atomic values among a (substring-closed) unary relation U:
  //   EPS       = σ_{$1=ϵ}(U)
  //   COMPOSITE = π_{$1}(σ_{$1=$2·$3}(U × (U−EPS) × (U−EPS)))
  //   PACKED    = π_{$1}(σ_{$1=<$2>}(UNPACK_2(SUB_1(U))))
  //   ATOMS     = U − EPS − COMPOSITE − PACKED
  AlgebraPtr AtomsOf(AlgebraPtr u_all) {
    AlgebraPtr eps = AlgSelect(u_all, ColExpr(u_, 1), PathExpr());
    AlgebraPtr nonempty = AlgDiff(u_all, eps);
    AlgebraPtr triple = AlgProduct(AlgProduct(u_all, nonempty), nonempty);
    AlgebraPtr composite = AlgProject(
        AlgSelect(triple, ColExpr(u_, 1),
                  ConcatExpr(ColExpr(u_, 2), ColExpr(u_, 3))),
        {ColExpr(u_, 1)});
    AlgebraPtr packed = AlgProject(
        AlgSelect(AlgUnpack(AlgSub(u_all, 1), 2), ColExpr(u_, 1),
                  PackExpr(ColExpr(u_, 2))),
        {ColExpr(u_, 1)});
    return AlgDiff(AlgDiff(AlgDiff(u_all, eps), composite), packed);
  }

  Universe& u_;
  std::set<RelId> idb_;
  std::map<RelId, std::vector<const Rule*>> defs_;
  std::map<RelId, AlgebraPtr> memo_;
};

}  // namespace

Result<AlgebraPtr> DatalogToAlgebra(Universe& u, const Program& p,
                                    RelId target) {
  if (HasCycle(BuildDependencyGraph(p))) {
    return Status::FailedPrecondition("DatalogToAlgebra: program is recursive");
  }
  // Equations are eliminated first (Theorem 4.7), then the program is
  // brought into the Lemma 7.2 normal form.
  bool has_equations = false;
  for (const Rule* r : p.AllRules()) {
    for (const Literal& l : r->body) has_equations |= l.is_equation();
  }
  Program staged = p;
  if (has_equations) {
    SEQDL_ASSIGN_OR_RETURN(staged, EliminateEquations(u, staged));
  }
  SEQDL_ASSIGN_OR_RETURN(Program normal, ToNormalForm(u, staged));
  Translator t(u);
  return t.Run(normal, target);
}

}  // namespace seqdl
