#include "src/analysis/safety.h"

#include <vector>

#include "src/syntax/printer.h"

namespace seqdl {

std::set<VarId> PredicateVars(const Rule& r) {
  std::set<VarId> vars;
  auto collect = [&vars](const PathExpr& e) {
    ForEachVar(e, [&vars](VarId v) { vars.insert(v); });
  };
  for (const Literal& l : r.body) {
    if (l.is_predicate() && !l.negated) ForEachExpr(l, collect);
  }
  return vars;
}

EquationSchedule ScheduleEquations(const Rule& r, std::set<VarId> bound) {
  EquationSchedule s;
  s.bound = std::move(bound);
  std::vector<size_t> pending;
  for (size_t i = 0; i < r.body.size(); ++i) {
    if (r.body[i].is_equation() && !r.body[i].negated) pending.push_back(i);
  }
  auto all_bound = [&s](const PathExpr& e) {
    return ForEachVar(e, [&s](VarId v) { return s.bound.count(v) > 0; });
  };
  auto bind = [&s](const PathExpr& e) {
    ForEachVar(e, [&s](VarId v) { s.bound.insert(v); });
  };
  for (size_t k = 0; k < pending.size();) {
    const Literal& l = r.body[pending[k]];
    bool lhs_bound = all_bound(l.lhs);
    if (!lhs_bound && !all_bound(l.rhs)) {
      ++k;
      continue;
    }
    s.steps.push_back({pending[k], lhs_bound});
    bind(l.lhs);
    bind(l.rhs);
    pending.erase(pending.begin() + static_cast<ptrdiff_t>(k));
    k = 0;
  }
  s.complete = pending.empty();
  return s;
}

namespace {

/// The variables of `r` that are not limited, in order of first
/// occurrence.
std::vector<VarId> UnlimitedVars(const Rule& r) {
  std::set<VarId> limited = ScheduleEquations(r, PredicateVars(r)).bound;
  std::vector<VarId> all;
  CollectVars(r, &all);
  std::erase_if(all, [&limited](VarId v) { return limited.count(v) > 0; });
  return all;
}

}  // namespace

bool IsSafeRule(const Rule& r) { return UnlimitedVars(r).empty(); }

Status ValidateProgram(const Universe& u, const Program& p) {
  return ValidateProgram(u, p, nullptr);
}

namespace {

/// Display form of a variable, with its sigil ("@x" / "$x").
std::string FormatVar(const Universe& u, VarId v) {
  return (u.VarKindOf(v) == VarKind::kAtomic ? "@" : "$") + u.VarName(v);
}

/// Appends to `diags` (when non-null) and returns the error, remembering
/// the first one in `*first`.
void Report(DiagnosticList* diags, Status* first, const char* code,
            SourceSpan span, std::string message,
            std::vector<std::string> notes = {}) {
  if (first->ok()) *first = Status::InvalidArgument(message);
  if (diags != nullptr) {
    Diagnostic d = Diagnostic::Error(code, span, std::move(message));
    d.notes = std::move(notes);
    diags->Add(d);
  }
}

}  // namespace

Status ValidateProgram(const Universe& u, const Program& p,
                       DiagnosticList* diags) {
  Status first = Status::OK();
  for (const Rule* r : p.AllRules()) {
    std::vector<VarId> vars = UnlimitedVars(*r);
    if (vars.empty()) continue;
    std::string unlimited;
    for (VarId v : vars) {
      if (!unlimited.empty()) unlimited += ", ";
      unlimited += FormatVar(u, v);
    }
    Report(diags, &first, "SD010", r->span,
           "unsafe rule: " + FormatRule(u, *r),
           {"variables not limited by a positive body literal: " + unlimited});
    if (diags == nullptr) return first;
  }
  // Heads defined per stratum.
  std::vector<std::set<RelId>> heads_by_stratum(p.strata.size());
  for (size_t i = 0; i < p.strata.size(); ++i) {
    for (const Rule& r : p.strata[i].rules) {
      heads_by_stratum[i].insert(r.head.rel);
    }
  }
  // Stratified negation: a relation negated in stratum i must not be a head
  // in stratum i or later.
  for (size_t i = 0; i < p.strata.size(); ++i) {
    for (const Rule& r : p.strata[i].rules) {
      for (const Literal& l : r.body) {
        if (!l.is_predicate() || !l.negated) continue;
        for (size_t j = i; j < p.strata.size(); ++j) {
          if (heads_by_stratum[j].count(l.pred.rel)) {
            Report(diags, &first, "SD011", r.span,
                   "negation not stratified: relation " +
                       u.RelName(l.pred.rel) + " is negated in stratum " +
                       std::to_string(i) + " but defined in stratum " +
                       std::to_string(j));
            if (diags == nullptr) return first;
          }
        }
      }
    }
  }
  // A relation defined in one stratum must not gain rules in a later one
  // (the sequential semantics of strata would otherwise be ambiguous).
  for (size_t i = 0; i < p.strata.size(); ++i) {
    for (size_t j = i + 1; j < p.strata.size(); ++j) {
      for (RelId rel : heads_by_stratum[i]) {
        if (!heads_by_stratum[j].count(rel)) continue;
        SourceSpan span;
        for (const Rule& r : p.strata[j].rules) {
          if (r.head.rel == rel) {
            span = r.span;
            break;
          }
        }
        Report(diags, &first, "SD012", span,
               "relation " + u.RelName(rel) + " is defined in stratum " +
                   std::to_string(i) + " and again in stratum " +
                   std::to_string(j));
        if (diags == nullptr) return first;
      }
    }
  }
  // A relation used positively or negatively in stratum i and defined in a
  // later stratum j > i would read an incomplete relation; reject.
  for (size_t i = 0; i < p.strata.size(); ++i) {
    for (const Rule& r : p.strata[i].rules) {
      for (const Literal& l : r.body) {
        if (!l.is_predicate()) continue;
        for (size_t j = i + 1; j < p.strata.size(); ++j) {
          if (heads_by_stratum[j].count(l.pred.rel)) {
            Report(diags, &first, "SD013", r.span,
                   "relation " + u.RelName(l.pred.rel) +
                       " is used in stratum " + std::to_string(i) +
                       " before its definition in stratum " +
                       std::to_string(j));
            if (diags == nullptr) return first;
          }
        }
      }
    }
  }
  return first;
}

}  // namespace seqdl
