#include "src/syntax/ast.h"

#include <algorithm>
#include <cassert>

namespace seqdl {

ExprItem ExprItem::Const(Value v) {
  assert(v.is_atom() && "packed constants must use ExprItem::Pack");
  ExprItem it;
  it.kind = Kind::kConst;
  it.atom = v;
  return it;
}

ExprItem ExprItem::AtomVar(VarId v) {
  ExprItem it;
  it.kind = Kind::kAtomVar;
  it.var = v;
  return it;
}

ExprItem ExprItem::PathVar(VarId v) {
  ExprItem it;
  it.kind = Kind::kPathVar;
  it.var = v;
  return it;
}

ExprItem ExprItem::Pack(PathExpr inner) {
  ExprItem it;
  it.kind = Kind::kPack;
  it.pack = std::make_shared<const PathExpr>(std::move(inner));
  return it;
}

bool operator==(const ExprItem& a, const ExprItem& b) {
  if (a.kind != b.kind) return false;
  switch (a.kind) {
    case ExprItem::Kind::kConst:
      return a.atom == b.atom;
    case ExprItem::Kind::kAtomVar:
    case ExprItem::Kind::kPathVar:
      return a.var == b.var;
    case ExprItem::Kind::kPack:
      return *a.pack == *b.pack;
  }
  return false;
}

bool PathExpr::IsGround() const {
  return ForEachVar(*this, [](VarId) { return false; });
}

bool PathExpr::HasPacking() const {
  for (const ExprItem& it : items) {
    if (it.kind == ExprItem::Kind::kPack) return true;
  }
  return false;
}

PathExpr ConcatExpr(const PathExpr& a, const PathExpr& b) {
  PathExpr out;
  out.items.reserve(a.items.size() + b.items.size());
  out.items.insert(out.items.end(), a.items.begin(), a.items.end());
  out.items.insert(out.items.end(), b.items.begin(), b.items.end());
  return out;
}

PathExpr ConcatExprs(const std::vector<PathExpr>& parts) {
  PathExpr out;
  for (const PathExpr& p : parts) {
    out.items.insert(out.items.end(), p.items.begin(), p.items.end());
  }
  return out;
}

PathExpr ConstExpr(Value atom) {
  return PathExpr({ExprItem::Const(atom)});
}

PathExpr VarExpr(const Universe& u, VarId v) {
  if (u.VarKindOf(v) == VarKind::kAtomic) {
    return PathExpr({ExprItem::AtomVar(v)});
  }
  return PathExpr({ExprItem::PathVar(v)});
}

PathExpr PackExpr(PathExpr inner) {
  return PathExpr({ExprItem::Pack(std::move(inner))});
}

PathExpr ExprOfPath(const Universe& u, PathId p) {
  PathExpr out;
  for (Value v : u.GetPath(p)) {
    if (v.is_atom()) {
      out.items.push_back(ExprItem::Const(v));
    } else {
      out.items.push_back(ExprItem::Pack(ExprOfPath(u, v.packed_path())));
    }
  }
  return out;
}

void CollectVars(const PathExpr& e, std::vector<VarId>* out) {
  ForEachVar(e, [out](VarId v) {
    if (std::find(out->begin(), out->end(), v) == out->end()) {
      out->push_back(v);
    }
  });
}

void CountVars(const PathExpr& e, std::map<VarId, int>* counts) {
  ForEachVar(e, [counts](VarId v) { ++(*counts)[v]; });
}

Result<PathId> EvalGroundExpr(Universe& u, const PathExpr& e) {
  std::vector<Value> values;
  for (const ExprItem& it : e.items) {
    switch (it.kind) {
      case ExprItem::Kind::kConst:
        values.push_back(it.atom);
        break;
      case ExprItem::Kind::kPack: {
        SEQDL_ASSIGN_OR_RETURN(PathId inner, EvalGroundExpr(u, *it.pack));
        values.push_back(Value::Packed(inner));
        break;
      }
      case ExprItem::Kind::kAtomVar:
      case ExprItem::Kind::kPathVar:
        return Status::InvalidArgument(
            "EvalGroundExpr: expression contains variable " +
            u.VarName(it.var));
    }
  }
  return u.InternPath(values);
}

PathExpr SubstituteExpr(const PathExpr& e, const ExprSubst& subst) {
  PathExpr out;
  for (const ExprItem& it : e.items) {
    if (it.is_var()) {
      auto found = subst.find(it.var);
      if (found == subst.end()) {
        out.items.push_back(it);
      } else {
        const PathExpr& image = found->second;
        // An atomic variable must map to a single atom-valued item; a path
        // variable's image is spliced in place (associativity).
        assert(it.kind != ExprItem::Kind::kAtomVar || image.items.size() == 1);
        out.items.insert(out.items.end(), image.items.begin(),
                         image.items.end());
      }
    } else if (it.kind == ExprItem::Kind::kPack) {
      out.items.push_back(ExprItem::Pack(SubstituteExpr(*it.pack, subst)));
    } else {
      out.items.push_back(it);
    }
  }
  return out;
}

Literal Literal::Pred(Predicate p, bool negated) {
  Literal l;
  l.kind = Kind::kPredicate;
  l.negated = negated;
  l.pred = std::move(p);
  return l;
}

Literal Literal::Eq(PathExpr lhs, PathExpr rhs, bool negated) {
  Literal l;
  l.kind = Kind::kEquation;
  l.negated = negated;
  l.lhs = std::move(lhs);
  l.rhs = std::move(rhs);
  return l;
}

bool operator==(const Literal& a, const Literal& b) {
  if (a.kind != b.kind || a.negated != b.negated) return false;
  if (a.kind == Literal::Kind::kPredicate) return a.pred == b.pred;
  return a.lhs == b.lhs && a.rhs == b.rhs;
}

std::vector<const Rule*> Program::AllRules() const {
  std::vector<const Rule*> out;
  for (const Stratum& s : strata) {
    for (const Rule& r : s.rules) out.push_back(&r);
  }
  return out;
}

size_t Program::NumRules() const {
  size_t n = 0;
  for (const Stratum& s : strata) n += s.rules.size();
  return n;
}

std::set<RelId> IdbRels(const Program& p) {
  std::set<RelId> out;
  for (const Rule* r : p.AllRules()) out.insert(r->head.rel);
  return out;
}

std::set<RelId> AllRels(const Program& p) {
  std::set<RelId> out;
  for (const Rule* r : p.AllRules()) {
    out.insert(r->head.rel);
    for (const Literal& l : r->body) {
      if (l.is_predicate()) out.insert(l.pred.rel);
    }
  }
  return out;
}

std::set<RelId> EdbRels(const Program& p) {
  std::set<RelId> all = AllRels(p);
  std::set<RelId> idb = IdbRels(p);
  std::set<RelId> out;
  std::set_difference(all.begin(), all.end(), idb.begin(), idb.end(),
                      std::inserter(out, out.begin()));
  return out;
}

void CollectVars(const Literal& l, std::vector<VarId>* out) {
  ForEachExpr(l, [out](const PathExpr& e) { CollectVars(e, out); });
}

void CollectVars(const Rule& r, std::vector<VarId>* out) {
  ForEachExpr(r, [out](const PathExpr& e) { CollectVars(e, out); });
}

Literal SubstituteLiteral(const Literal& l, const ExprSubst& subst) {
  Literal out = l;
  ForEachExpr(out, [&subst](PathExpr& e) { e = SubstituteExpr(e, subst); });
  return out;
}

Rule SubstituteRule(const Rule& r, const ExprSubst& subst) {
  Rule out;  // The source span stays unset: the rule is a new one.
  out.head = r.head;
  out.body = r.body;
  ForEachExpr(out, [&subst](PathExpr& e) { e = SubstituteExpr(e, subst); });
  return out;
}

bool RuleHasPacking(const Rule& r) {
  bool packing = false;
  ForEachExpr(r, [&packing](const PathExpr& e) {
    packing = packing || e.HasPacking();
  });
  return packing;
}

}  // namespace seqdl
