#include "src/analysis/locality.h"

#include <optional>
#include <string>
#include <vector>

namespace seqdl {

namespace {

/// The partition-key variable of a predicate: its first argument when
/// that argument is exactly one variable (the only shape whose binding
/// *is* the fact's partition key). nullopt for ground, compound, or
/// missing first arguments, and for arity-0 predicates.
std::optional<VarId> KeyVar(const Predicate& pred) {
  if (pred.args.empty() || !pred.args[0].IsSingleVar()) return std::nullopt;
  return pred.args[0].items[0].var;
}

/// Body predicate literals over relations that are actually partitioned
/// (not broadcast-replicated).
std::vector<const Literal*> PartitionedLits(const Rule& r,
                                            const std::set<RelId>& broadcast) {
  std::vector<const Literal*> out;
  for (const Literal& l : r.body) {
    if (l.is_predicate() && broadcast.count(l.pred.rel) == 0) {
      out.push_back(&l);
    }
  }
  return out;
}

/// True iff `r` preserves the co-partitioning invariant for its head,
/// given the current candidate set `co`: partitioned body literals (if
/// any) all key on one shared variable over co-partitioned relations,
/// at least one positively, and the head's first argument is that same
/// variable. A rule reading only broadcast relations derives its head on
/// every shard, which satisfies the invariant trivially.
bool PreservesCoPartitioning(const Rule& r, const std::set<RelId>& broadcast,
                             const std::set<RelId>& co) {
  std::vector<const Literal*> lits = PartitionedLits(r, broadcast);
  if (lits.empty()) return true;
  std::optional<VarId> key;
  bool any_positive = false;
  for (const Literal* l : lits) {
    if (co.count(l->pred.rel) == 0) return false;
    std::optional<VarId> v = KeyVar(l->pred);
    if (!v.has_value()) return false;
    if (key.has_value() && *key != *v) return false;
    key = v;
    any_positive = any_positive || !l->negated;
  }
  if (!any_positive) return false;
  std::optional<VarId> head_key = KeyVar(r.head);
  return head_key.has_value() && *head_key == *key;
}

void AddFinding(DiagnosticList* diags, const char* code, const Rule& r,
                std::string message, std::vector<std::string> notes) {
  if (diags == nullptr) return;
  Diagnostic d = Diagnostic::Warning(code, r.span, std::move(message));
  d.notes = std::move(notes);
  diags->Add(std::move(d));
}

}  // namespace

LocalityReport AnalyzeLocality(const Universe& u, const Program& p,
                               const LocalityOptions& opts,
                               DiagnosticList* diags) {
  LocalityReport report;

  // Greatest fixpoint for the co-partitioned set: start from every
  // non-broadcast relation the program touches and peel off derived
  // relations with a rule that breaks the invariant, until stable.
  std::set<RelId> co;
  for (RelId rel : AllRels(p)) {
    if (opts.broadcast.count(rel) == 0) co.insert(rel);
  }
  bool changed = true;
  while (changed) {
    changed = false;
    for (const Rule* r : p.AllRules()) {
      if (co.count(r->head.rel) == 0) continue;
      if (!PreservesCoPartitioning(*r, opts.broadcast, co)) {
        co.erase(r->head.rel);
        changed = true;
      }
    }
  }
  report.co_partitioned = co;

  // Per-rule transparency: a rule is shard-local iff its partitioned
  // body literals are (a) absent, (b) one positive scan (every global
  // fact lives on some shard, so the distributed union covers it), or
  // (c) a join keyed on one shared first-column variable over
  // co-partitioned relations, with at least one positive member pinning
  // the evaluation to the key's owning shard.
  for (const Rule* r : p.AllRules()) {
    std::vector<const Literal*> lits = PartitionedLits(*r, opts.broadcast);
    if (lits.empty()) continue;
    if (lits.size() == 1 && !lits[0]->negated) continue;

    // Any negated partitioned literal without a positive co-partitioned
    // anchor fires from local absence, which proves nothing globally.
    bool any_positive = false;
    for (const Literal* l : lits) any_positive = any_positive || !l->negated;
    if (!any_positive) {
      ++report.violations;
      AddFinding(diags, "SD202", *r,
                 "negation over partitioned relation '" +
                     u.RelName(lits[0]->pred.rel) +
                     "' is not shard-local: a shard's missing fact may "
                     "exist on another shard",
                 {"the coordinator will gather and evaluate this program "
                  "itself (residual evaluation)"});
      continue;
    }

    std::optional<VarId> key;
    bool keyed = true;
    for (const Literal* l : lits) {
      std::optional<VarId> v = KeyVar(l->pred);
      if (!v.has_value() || (key.has_value() && *key != *v)) {
        keyed = false;
        break;
      }
      key = v;
    }
    if (!keyed) {
      ++report.violations;
      std::vector<std::string> notes;
      for (const Literal* l : lits) {
        notes.push_back("partitioned relation '" + u.RelName(l->pred.rel) +
                        "' is keyed by its first argument");
      }
      AddFinding(diags, "SD201", *r,
                 "join over partitioned relations does not key on the "
                 "partition column: the joined facts may live on "
                 "different shards",
                 std::move(notes));
      continue;
    }

    bool all_co = true;
    for (const Literal* l : lits) {
      if (co.count(l->pred.rel) != 0) continue;
      all_co = false;
      ++report.violations;
      AddFinding(diags, l->negated ? "SD202" : "SD203", *r,
                 "derived relation '" + u.RelName(l->pred.rel) +
                     "' is not co-partitioned: a defining rule drops the "
                     "partition key from the head's first argument",
                 {"its facts may live on a different shard than the key "
                  "they join on"});
    }
    (void)all_co;
  }

  report.cls = report.violations == 0 ? LocalityClass::kTransparent
                                      : LocalityClass::kResidual;
  if (report.cls == LocalityClass::kTransparent && diags != nullptr) {
    diags->Add(Diagnostic::Note(
        "SD200", SourceSpan(),
        "program is distribution-transparent: every rule evaluates "
        "shard-locally"));
  }
  return report;
}

}  // namespace seqdl
