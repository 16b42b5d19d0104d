#include "src/syntax/printer.h"

namespace seqdl {

namespace {
void AppendItem(const Universe& u, const ExprItem& it, std::string* out) {
  switch (it.kind) {
    case ExprItem::Kind::kConst:
      u.AppendAtom(it.atom.atom(), out);
      return;
    case ExprItem::Kind::kAtomVar:
      *out += "@";
      *out += u.VarName(it.var);
      return;
    case ExprItem::Kind::kPathVar:
      *out += "$";
      *out += u.VarName(it.var);
      return;
    case ExprItem::Kind::kPack:
      *out += "<";
      *out += FormatExpr(u, *it.pack);
      *out += ">";
      return;
  }
  *out += "?";
}
}  // namespace

std::string FormatExpr(const Universe& u, const PathExpr& e) {
  if (e.items.empty()) return "eps";
  std::string out;
  for (size_t i = 0; i < e.items.size(); ++i) {
    if (i > 0) out += "·";
    AppendItem(u, e.items[i], &out);
  }
  return out;
}

std::string FormatPredicate(const Universe& u, const Predicate& p) {
  std::string out = u.RelText(p.rel);
  if (!p.args.empty()) {
    out += "(";
    for (size_t i = 0; i < p.args.size(); ++i) {
      if (i > 0) out += ", ";
      out += FormatExpr(u, p.args[i]);
    }
    out += ")";
  }
  return out;
}

std::string FormatLiteral(const Universe& u, const Literal& l) {
  if (l.is_predicate()) {
    std::string out = l.negated ? "!" : "";
    return out + FormatPredicate(u, l.pred);
  }
  const char* op = l.negated ? " != " : " = ";
  return FormatExpr(u, l.lhs) + op + FormatExpr(u, l.rhs);
}

std::string FormatRule(const Universe& u, const Rule& r) {
  std::string out = FormatPredicate(u, r.head);
  if (!r.body.empty()) {
    out += " <- ";
    for (size_t i = 0; i < r.body.size(); ++i) {
      if (i > 0) out += ", ";
      out += FormatLiteral(u, r.body[i]);
    }
  }
  out += ".";
  return out;
}

std::string FormatProgram(const Universe& u, const Program& p) {
  std::string out;
  for (size_t s = 0; s < p.strata.size(); ++s) {
    if (s > 0) out += "---\n";
    for (const Rule& r : p.strata[s].rules) {
      out += FormatRule(u, r);
      out += "\n";
    }
  }
  return out;
}

}  // namespace seqdl
