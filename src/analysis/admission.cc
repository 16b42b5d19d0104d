#include "src/analysis/admission.h"

#include <map>

#include "src/analysis/dependency_graph.h"
#include "src/analysis/safety.h"
#include "src/fragments/fragments.h"
#include "src/syntax/printer.h"

namespace seqdl {

const char* AdmissionPolicyToString(AdmissionPolicy p) {
  switch (p) {
    case AdmissionPolicy::kOff:
      return "off";
    case AdmissionPolicy::kBudget:
      return "budget";
    case AdmissionPolicy::kStrict:
      return "strict";
  }
  return "?";
}

const char* AdmissionVerdictToString(AdmissionVerdict v) {
  switch (v) {
    case AdmissionVerdict::kTame:
      return "tame";
    case AdmissionVerdict::kGenerativeBudgeted:
      return "generative-budgeted";
    case AdmissionVerdict::kRejected:
      return "rejected";
  }
  return "?";
}

Result<AdmissionPolicy> ParseAdmissionPolicy(const std::string& s) {
  if (s == "off") return AdmissionPolicy::kOff;
  if (s == "budget") return AdmissionPolicy::kBudget;
  if (s == "strict") return AdmissionPolicy::kStrict;
  return Status::InvalidArgument("unknown admission policy '" + s +
                                 "' (expected off, budget, or strict)");
}

AdmissionVerdict AdmissionReport::Verdict(AdmissionPolicy policy) const {
  if (!generative) return AdmissionVerdict::kTame;
  switch (policy) {
    case AdmissionPolicy::kOff:
      return AdmissionVerdict::kTame;
    case AdmissionPolicy::kBudget:
      return AdmissionVerdict::kGenerativeBudgeted;
    case AdmissionPolicy::kStrict:
      return AdmissionVerdict::kRejected;
  }
  return AdmissionVerdict::kTame;
}

namespace {

/// Variables limited *directly* by a positive body predicate (without
/// the equation-propagation fixpoint of LimitedVars): these range over
/// subpaths of facts that already exist, so they cannot be a source of
/// growth.
std::set<VarId> PredicateLimitedVars(const Rule& r) {
  std::set<VarId> limited;
  for (const Literal& l : r.body) {
    if (!l.is_predicate() || l.negated) continue;
    std::vector<VarId> vs;
    CollectVars(l, &vs);
    limited.insert(vs.begin(), vs.end());
  }
  return limited;
}

/// True iff the positive equation can assign some variable an image
/// longer than (or nested deeper than) any existing path: one side is a
/// multi-item or packed expression over known (predicate-limited)
/// variables, and the other side receives it through a variable that is
/// not predicate-limited. Decomposing equations (multi-item side made of
/// *unknown* variables matched against a known path) only split existing
/// paths and are not flagged.
bool IsExpandingEquation(const Literal& l, const std::set<VarId>& limited) {
  if (!l.is_equation() || l.negated) return false;
  auto expands = [&](const PathExpr& s, const PathExpr& t) {
    if (s.size() < 2 && !s.HasPacking()) return false;
    if (VarSet(s).empty()) return false;  // fixed-length ground image
    for (VarId v : VarSet(t)) {
      if (!limited.count(v)) return true;  // t receives the longer image
    }
    return false;
  };
  return expands(l.lhs, l.rhs) || expands(l.rhs, l.lhs);
}

}  // namespace

AdmissionReport AnalyzeAdmission(const Universe& u, const Program& p) {
  AdmissionReport report;
  report.features = DetectFeatures(p);
  report.fragment_class = CoreClassLabel(report.features);

  DependencyGraph g = BuildDependencyGraph(p);
  std::vector<std::set<RelId>> sccs = StronglyConnectedComponents(g);
  std::map<RelId, size_t> scc_of;
  for (size_t i = 0; i < sccs.size(); ++i) {
    for (RelId r : sccs[i]) scc_of[r] = i;
  }

  for (const Rule* r : p.AllRules()) {
    auto it = scc_of.find(r->head.rel);
    if (it == scc_of.end()) continue;
    const std::set<RelId>& scc = sccs[it->second];
    // A *recursive-step* rule derives into an SCC while reading from the
    // same SCC: it can fire again on its own output. Base-case rules of
    // a recursive relation (reading only from below) run once per
    // outside fact and cannot drive growth.
    bool recursive_step = false;
    for (const Literal& l : r->body) {
      if (l.is_predicate() && !l.negated && scc.count(l.pred.rel) &&
          (scc.size() > 1 || l.pred.rel == r->head.rel)) {
        recursive_step = true;
        break;
      }
    }
    if (!recursive_step) continue;

    // SD301: a head argument concatenates around a variable, so each
    // round can derive a strictly longer path than it consumed.
    for (const PathExpr& arg : r->head.args) {
      if (arg.size() >= 2 && !VarSet(arg).empty()) {
        Diagnostic d = Diagnostic::Warning(
            "SD301", r->span,
            "recursive rule grows paths: head argument " +
                FormatExpr(u, arg) + " of " + u.RelName(r->head.rel) +
                " concatenates around a variable");
        d.notes.push_back("rule: " + FormatRule(u, *r));
        report.diagnostics.Add(std::move(d));
        break;
      }
    }
    // SD302: packing in the head of a recursive rule nests one level
    // deeper per round (body packing only pattern-matches and is fine).
    for (const PathExpr& arg : r->head.args) {
      if (arg.HasPacking()) {
        Diagnostic d = Diagnostic::Warning(
            "SD302", r->span,
            "packing in recursive rule: head of " + u.RelName(r->head.rel) +
                " packs a subexpression, nesting grows every round");
        d.notes.push_back("rule: " + FormatRule(u, *r));
        report.diagnostics.Add(std::move(d));
        break;
      }
    }
    // SD303: an equation that manufactures a longer path and feeds it
    // back into the recursion.
    std::set<VarId> limited = PredicateLimitedVars(*r);
    for (const Literal& l : r->body) {
      if (!IsExpandingEquation(l, limited)) continue;
      Diagnostic d = Diagnostic::Warning(
          "SD303", r->span,
          "expanding equation in recursive rule: " + FormatLiteral(u, l) +
              " binds a variable to a longer path each round");
      d.notes.push_back("rule: " + FormatRule(u, *r));
      report.diagnostics.Add(std::move(d));
    }
  }
  report.generative = !report.diagnostics.empty();
  return report;
}

DiagnosticList PolicyDiagnostics(const AdmissionReport& r,
                                 AdmissionPolicy policy) {
  DiagnosticList out;
  for (const Diagnostic& d : r.diagnostics.all()) {
    Diagnostic copy = d;
    if (policy == AdmissionPolicy::kStrict) copy.severity = Severity::kError;
    out.Add(std::move(copy));
  }
  if (r.generative && policy == AdmissionPolicy::kBudget) {
    out.Add(Diagnostic::Note(
        "SD300", SourceSpan(),
        "potentially non-terminating program admitted under enforced "
        "budgets (derived facts, rounds, and path length are capped)"));
  }
  return out;
}

}  // namespace seqdl
