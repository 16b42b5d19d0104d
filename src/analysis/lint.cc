#include "src/analysis/lint.h"

#include <functional>
#include <map>
#include <string>
#include <vector>

#include "src/analysis/dependency_graph.h"
#include "src/syntax/printer.h"

namespace seqdl {

namespace {

/// Display form of a variable, with its sigil ("@x" / "$x").
std::string FormatVar(const Universe& u, VarId v) {
  return (u.VarKindOf(v) == VarKind::kAtomic ? "@" : "$") + u.VarName(v);
}

/// True iff the equation literal can never hold under any substitution:
/// a positive equation of two distinct ground expressions, or a negated
/// equation whose sides are syntactically identical. Ground expressions
/// are canonical (flat, with packs recursively canonical), so structural
/// equality coincides with path equality.
bool EquationTriviallyFalse(const Literal& l) {
  if (!l.is_equation()) return false;
  if (l.negated) return l.lhs == l.rhs;
  return l.lhs.IsGround() && l.rhs.IsGround() && !(l.lhs == l.rhs);
}

/// SD101: rule byte-identical (same head, same body literal sequence) to
/// an earlier rule of the program.
void LintDuplicateRules(const Universe& u, const Program& p,
                        DiagnosticList* diags) {
  std::vector<const Rule*> rules = p.AllRules();
  for (size_t i = 0; i < rules.size(); ++i) {
    for (size_t j = 0; j < i; ++j) {
      if (rules[i]->head == rules[j]->head && rules[i]->body == rules[j]->body) {
        Diagnostic d = Diagnostic::Warning(
            "SD101", rules[i]->span,
            "duplicate rule: identical to an earlier rule");
        if (rules[j]->span.valid()) {
          d.notes.push_back("first occurrence at line " +
                            std::to_string(rules[j]->span.line));
        }
        d.notes.push_back("rule: " + FormatRule(u, *rules[i]));
        diags->Add(std::move(d));
        break;  // report each duplicate once
      }
    }
  }
}

/// SD102: the same literal occurs twice in one body.
void LintDuplicateLiterals(const Universe& u, const Program& p,
                           DiagnosticList* diags) {
  for (const Rule* r : p.AllRules()) {
    for (size_t i = 0; i < r->body.size(); ++i) {
      for (size_t j = 0; j < i; ++j) {
        if (r->body[i] == r->body[j]) {
          Diagnostic d = Diagnostic::Warning(
              "SD102", r->span,
              "duplicate body literal: " + FormatLiteral(u, r->body[i]));
          d.notes.push_back("rule: " + FormatRule(u, *r));
          diags->Add(std::move(d));
          break;
        }
      }
    }
  }
}

/// SD103: a variable occurs exactly once in the whole rule. In a safe
/// rule such a variable only ranges over its predicate's matches without
/// constraining anything — usually a typo for another variable.
void LintSingletonVars(const Universe& u, const Program& p,
                       DiagnosticList* diags) {
  for (const Rule* r : p.AllRules()) {
    std::map<VarId, int> counts;
    ForEachExpr(*r, [&counts](const PathExpr& e) { CountVars(e, &counts); });
    std::vector<VarId> order;
    CollectVars(*r, &order);
    for (VarId v : order) {
      if (counts[v] != 1) continue;
      Diagnostic d = Diagnostic::Warning(
          "SD103", r->span,
          "singleton variable " + FormatVar(u, v) +
              ": occurs exactly once in the rule");
      d.notes.push_back("rule: " + FormatRule(u, *r));
      diags->Add(std::move(d));
    }
  }
}

/// SD104: the rule can never derive a fact — it reads a relation with no
/// possible facts (no EDB source and no fireable rule), or a body
/// equation is trivially false.
void LintNeverFires(const Universe& u, const Program& p,
                    DiagnosticList* diags) {
  std::set<RelId> idb = IdbRels(p);
  // Fixpoint of "may have facts": EDB relations are external sources and
  // assumed nonempty; an IDB relation may have facts once some rule for
  // it only reads may-have-facts relations and has no impossible
  // equation. (Negated literals never block firing — an empty negated
  // relation satisfies the negation.)
  std::set<RelId> derivable = EdbRels(p);
  auto can_fire = [&](const Rule& r) {
    for (const Literal& l : r.body) {
      if (EquationTriviallyFalse(l)) return false;
      if (l.is_predicate() && !l.negated && !derivable.count(l.pred.rel)) {
        return false;
      }
    }
    return true;
  };
  bool changed = true;
  while (changed) {
    changed = false;
    for (const Rule* r : p.AllRules()) {
      if (derivable.count(r->head.rel)) continue;
      if (can_fire(*r)) {
        derivable.insert(r->head.rel);
        changed = true;
      }
    }
  }
  for (const Rule* r : p.AllRules()) {
    if (can_fire(*r)) continue;
    Diagnostic d = Diagnostic::Warning("SD104", r->span,
                                       "rule can never fire");
    for (const Literal& l : r->body) {
      if (EquationTriviallyFalse(l)) {
        d.notes.push_back("equation " + FormatLiteral(u, l) +
                          " can never hold");
      } else if (l.is_predicate() && !l.negated &&
                 !derivable.count(l.pred.rel)) {
        d.notes.push_back("relation " + u.RelName(l.pred.rel) +
                          " can never contain facts");
      }
    }
    d.notes.push_back("rule: " + FormatRule(u, *r));
    diags->Add(std::move(d));
  }
}

/// SD105: the positive body literals split into independent groups that
/// share no variables (directly or through equations): the join
/// enumerates their cartesian product.
void LintCrossProducts(const Universe& u, const Program& p,
                       const LintOptions& opts, DiagnosticList* diags) {
  for (const Rule* r : p.AllRules()) {
    // Positive literals and their variable sets.
    std::vector<const Literal*> lits;
    std::vector<std::set<VarId>> vars;
    for (const Literal& l : r->body) {
      if (l.negated) continue;
      std::vector<VarId> vs;
      CollectVars(l, &vs);
      lits.push_back(&l);
      vars.push_back(std::set<VarId>(vs.begin(), vs.end()));
    }
    // Union-find over literal indices: connect literals sharing a var.
    std::vector<size_t> parent(lits.size());
    for (size_t i = 0; i < parent.size(); ++i) parent[i] = i;
    std::function<size_t(size_t)> find = [&](size_t x) {
      while (parent[x] != x) x = parent[x] = parent[parent[x]];
      return x;
    };
    for (size_t i = 0; i < lits.size(); ++i) {
      for (size_t j = 0; j < i; ++j) {
        bool shared = false;
        for (VarId v : vars[i]) {
          if (vars[j].count(v)) {
            shared = true;
            break;
          }
        }
        if (shared) parent[find(i)] = find(j);
      }
    }
    // A cross product exists iff predicates *with variables* land in
    // more than one component (variable-free predicates are membership
    // tests, not join inputs; equations only serve to connect).
    std::map<size_t, std::vector<size_t>> groups;
    for (size_t i = 0; i < lits.size(); ++i) {
      if (lits[i]->is_predicate() && !vars[i].empty()) {
        groups[find(i)].push_back(i);
      }
    }
    if (groups.size() < 2) continue;
    std::string joined;
    for (const auto& [root, members] : groups) {
      (void)root;
      if (!joined.empty()) joined += " | ";
      for (size_t k = 0; k < members.size(); ++k) {
        if (k > 0) joined += ", ";
        joined += FormatPredicate(u, lits[members[k]]->pred);
      }
    }
    Diagnostic d = Diagnostic::Warning(
        "SD105", r->span,
        "cross-product join: body predicates form " +
            std::to_string(groups.size()) +
            " groups sharing no variables: " + joined);
    if (opts.stats != nullptr) {
      std::string sizes;
      for (const auto& [root, members] : groups) {
        (void)root;
        for (size_t i : members) {
          RelId rel = lits[i]->pred.rel;
          if (!opts.stats->Knows(rel)) continue;
          if (!sizes.empty()) sizes += ", ";
          sizes += u.RelName(rel) + "=" +
                   std::to_string(opts.stats->relations.at(rel).tuples);
        }
      }
      if (!sizes.empty()) {
        d.notes.push_back("measured relation sizes: " + sizes);
      }
    }
    d.notes.push_back("rule: " + FormatRule(u, *r));
    diags->Add(std::move(d));
  }
}

/// SD106: rules whose head is not backward-reachable from the output.
void LintDeadRules(const Universe& u, const Program& p, RelId output,
                   DiagnosticList* diags) {
  std::set<RelId> live = LiveRels(p, output);
  for (const Rule* r : p.AllRules()) {
    if (live.count(r->head.rel)) continue;
    Diagnostic d = Diagnostic::Warning(
        "SD106", r->span,
        "dead rule: " + u.RelName(r->head.rel) +
            " is never used to compute the output " + u.RelName(output));
    d.notes.push_back("rule: " + FormatRule(u, *r));
    diags->Add(std::move(d));
  }
}

/// SD107: IDB relations derived but read by no body and not the output.
void LintUnusedRels(const Universe& u, const Program& p, RelId output,
                    DiagnosticList* diags) {
  std::set<RelId> read;
  for (const Rule* r : p.AllRules()) {
    for (const Literal& l : r->body) {
      if (l.is_predicate()) read.insert(l.pred.rel);
    }
  }
  for (RelId rel : IdbRels(p)) {
    if (rel == output || read.count(rel)) continue;
    SourceSpan span;
    for (const Rule* r : p.AllRules()) {
      if (r->head.rel == rel) {
        span = r->span;
        break;
      }
    }
    diags->Add(Diagnostic::Warning(
        "SD107", span,
        "relation " + u.RelName(rel) +
            " is derived but never read and is not the output"));
  }
}

}  // namespace

size_t LintProgram(const Universe& u, const Program& p,
                   const LintOptions& opts, DiagnosticList* diags) {
  size_t before = diags->size();
  LintDuplicateRules(u, p, diags);
  LintDuplicateLiterals(u, p, diags);
  LintSingletonVars(u, p, diags);
  LintNeverFires(u, p, diags);
  LintCrossProducts(u, p, opts, diags);
  if (opts.output.has_value()) {
    LintDeadRules(u, p, *opts.output, diags);
    LintUnusedRels(u, p, *opts.output, diags);
  }
  return diags->size() - before;
}

std::set<RelId> LiveRels(const Program& p, RelId output) {
  DependencyGraph g = BuildDependencyGraph(p);
  std::set<RelId> live = {output};
  std::vector<RelId> work = {output};
  while (!work.empty()) {
    RelId r = work.back();
    work.pop_back();
    auto it = g.edges.find(r);
    if (it == g.edges.end()) continue;
    for (RelId s : it->second) {
      if (live.insert(s).second) work.push_back(s);
    }
  }
  return live;
}

Program RemoveDeadRules(const Program& p, RelId output) {
  std::set<RelId> live = LiveRels(p, output);
  Program out;
  for (const Stratum& s : p.strata) {
    Stratum kept;
    for (const Rule& r : s.rules) {
      if (live.count(r.head.rel)) kept.rules.push_back(r);
    }
    if (!kept.rules.empty()) out.strata.push_back(std::move(kept));
  }
  return out;
}

}  // namespace seqdl
