#include "src/engine/engine.h"

#include <cassert>
#include <chrono>
#include <cstdio>
#include <map>
#include <set>
#include <utility>

#include "src/analysis/safety.h"
#include "src/engine/index.h"
#include "src/engine/match.h"
#include "src/syntax/printer.h"

namespace seqdl {

namespace {

double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

/// Sentinel for "no scan step is restricted to the delta this pass".
constexpr size_t kNoDeltaStep = static_cast<size_t>(-1);

/// How many rule firings pass between cancellation polls.
constexpr size_t kCancelPollInterval = 256;

/// One explain line for a plan step: the access path the executor will
/// take, the planner's selectivity estimate (when compiled with
/// statistics), and whether measured data — rather than a heuristic or an
/// unknown-relation prior — made the choice.
std::string DescribeStep(const Universe& u, const RulePlan& plan,
                         size_t step_idx) {
  const PlanStep& step = plan.steps[step_idx];
  const Literal& lit = plan.rule->body[step.lit_idx];
  std::string out;
  switch (step.kind) {
    case PlanStep::Kind::kScan: {
      out = "scan " + u.RelName(lit.pred.rel) + ": ";
      if (step.index_arg >= 0) {
        out += "whole-value key col " + std::to_string(step.index_arg);
      } else if (step.prefix_arg >= 0) {
        out += "first-value key col " + std::to_string(step.prefix_arg) +
               " (prefix " + FormatExpr(u, step.prefix_expr) + ")";
      } else if (step.suffix_arg >= 0) {
        out += "last-value key col " + std::to_string(step.suffix_arg) +
               " (suffix " + FormatExpr(u, step.suffix_expr) + ")";
      } else {
        out += "full scan";
      }
      if (step.est_cost >= 0) {
        char buf[32];
        std::snprintf(buf, sizeof(buf), ", est %.2f", step.est_cost);
        out += buf;
        out += step.stats_chosen ? " [stats]" : " [prior]";
      }
      for (size_t rec : plan.recursive_scan_steps) {
        if (rec == step_idx) {
          out += " [delta]";
          break;
        }
      }
      return out;
    }
    case PlanStep::Kind::kEq:
      return "eq " + FormatLiteral(u, lit);
    case PlanStep::Kind::kNegPred:
    case PlanStep::Kind::kNegEq:
      return "check " + FormatLiteral(u, lit);
  }
  return out;
}

}  // namespace

namespace internal {

// One run of a prepared program. Owns all mutable evaluation state (the
// private IDB overlay, pending facts, deltas), so a (const)
// PreparedProgram can execute any number of runs — concurrently, when
// they share an immutable BaseStore: the base is only ever read, and the
// Universe interns with synchronization.
class Executor {
 public:
  Executor(Universe& u, const PreparedProgram& prog, const RunOptions& opts,
           EvalStats* stats)
      : u_(u), prog_(prog), opts_(opts), stats_(stats) {}

  // Evaluates over the (shared, never mutated) base segments; returns the
  // derived IDB overlay only. Segments are scanned in stack order (oldest
  // epoch first), which preserves the single-base enumeration order
  // bit-for-bit when there is one segment. `kinds` (empty = all facts)
  // makes tombstoned facts invisible throughout.
  Result<Instance> Run(std::span<const BaseStore* const> segments,
                       std::span<const SegmentKind> kinds) {
    store_ = LayeredStore(u_, segments, kinds);
    for (const auto& stratum : StrataOf(prog_)) {
      if (stats_) stats_->per_stratum.emplace_back();
      SEQDL_RETURN_IF_ERROR(EvalStratum(stratum));
    }
    return store_.TakeOverlay();
  }

  // Incremental maintenance over the full current segment stack: adopts
  // the stored view where sound, delta-evaluates the net additions, runs
  // DRed deletion + re-derivation for the net retractions, and recomputes
  // exactly the strata reading a changed relation through negation (see
  // PreparedProgram::RunDelta's contract).
  Result<PreparedProgram::DeltaRun> RunDelta(
      std::span<const BaseStore* const> segments,
      std::span<const SegmentKind> kinds, size_t base_prefix,
      const Instance& view, const SupportLookup& stored_support) {
    store_ = LayeredStore(u_, segments, kinds);
    std::span<const BaseStore* const> base_span = segments.first(base_prefix);
    std::span<const BaseStore* const> delta_span =
        segments.subspan(base_prefix);
    std::span<const SegmentKind> base_kinds =
        kinds.empty() ? kinds : kinds.first(base_prefix);
    std::span<const SegmentKind> delta_kinds =
        kinds.empty() ? kinds : kinds.subspan(base_prefix);

    // Net effect of the delta suffix, fact by fact: visibility before
    // (base prefix only) vs after (full stack) — a fact appended then
    // retracted inside the window, or the reverse, nets out entirely.
    // `added` and `removed` then cascade down the strata, growing by
    // what each stratum derives or deletes.
    std::map<RelId, TupleSet> added, removed;
    for (const BaseStore* seg : delta_span) {
      const Instance& inst = seg->instance();
      for (RelId rel : inst.Relations()) {
        for (const Tuple& t : inst.Tuples(rel)) {
          bool was = VisibleIn(base_span, base_kinds, rel, t);
          bool is = store_.ContainsBase(rel, t);
          if (was == is) continue;
          if (is) {
            // A view fact the suffix promoted to EDB is not an addition:
            // the relation held the tuple before (as a derived fact), so
            // no new consequences can follow — and re-enumerating its
            // firings would inflate the stored support past the true
            // derivation count, which DRed can never recover from.
            if (!view.Contains(rel, t)) added[rel].insert(t);
          } else {
            removed[rel].insert(t);
          }
        }
      }
    }
    if (stats_) {
      for (const auto& [rel, ts] : added) {
        stats_->delta_seed_facts += ts.size();
      }
      for (const auto& [rel, ts] : removed) {
        stats_->delta_seed_facts += ts.size();
      }
    }

    PreparedProgram::DeltaRun out;
    const std::vector<Stratum>& strata = prog_.program().strata;
    for (size_t s = 0; s < strata.size(); ++s) {
      const CompiledStratum& compiled = StrataOf(prog_)[s];
      if (stats_) stats_->per_stratum.emplace_back();

      // Only a changed *negated* input forces a wholesale recompute (a
      // gained fact can invalidate stored tuples, a lost one can enable
      // new ones, and delta passes express neither). A shrunk positive
      // input no longer does — the DRed deletion phase handles it in
      // place; additions take the classic delta pass.
      bool recompute = false;
      for (const Rule& r : strata[s].rules) {
        for (const Literal& l : r.body) {
          if (!l.is_predicate() || !l.negated) continue;
          if (added.count(l.pred.rel) != 0 || removed.count(l.pred.rel) != 0) {
            recompute = true;
          }
        }
      }

      std::set<RelId> heads;
      for (const Rule& r : strata[s].rules) heads.insert(r.head.rel);

      // Everything this stratum's evaluation accepts into the overlay,
      // recorded by MergePending for the cascade bookkeeping below.
      Instance stratum_added;
      stratum_added_ = &stratum_added;
      Status st;
      if (!recompute) {
        // Adopt the stored facts wholesale, then delete, re-derive, and
        // delta-evaluate. The view holds no fact of the segments it was
        // computed over (a view never contains EDB-visible facts, and a
        // folded segment keeps its newest publish stamp, so every
        // non-delta segment predates the view), which lets Adopt dedupe
        // against the delta segments only — view facts the suffix
        // promoted to EDB drop out of the overlay exactly as a cold run
        // would leave them, and promoted-then-retracted ones stay view
        // state (visible membership, not raw membership).
        for (RelId rel : heads) {
          store_.Adopt(rel, view.Tuples(rel), delta_span, delta_kinds);
        }
        st = Status::OK();
        if (!removed.empty()) {
          st = DeleteAndRederive(compiled, heads, &removed, stored_support,
                                 &out.decrements);
        }
        if (st.ok()) st = EvalStratumDelta(compiled, added);
      } else {
        st = EvalStratum(compiled);
      }
      stratum_added_ = nullptr;
      SEQDL_RETURN_IF_ERROR(st);

      if (!recompute) {
        if (stats_) ++stats_->strata_delta_maintained;
        for (RelId rel : stratum_added.Relations()) {
          TupleSet& ts = added[rel];
          for (const Tuple& t : stratum_added.Tuples(rel)) ts.insert(t);
        }
      } else {
        if (stats_) ++stats_->strata_recomputed;
        out.recomputed_strata.push_back(s);
        // Diff the fresh result against the stored facts; additions and
        // retractions join their respective cascades. A stored fact that
        // is EDB-visible in the new stack merely moved layers; a fresh
        // fact that was EDB-visible at the view's epoch (its occurrence
        // since retracted, but still derivable) never left the relation.
        for (RelId rel : heads) {
          const TupleSet& fresh = stratum_added.Tuples(rel);
          const TupleSet& stored = view.Tuples(rel);
          for (const Tuple& t : stored) {
            if (fresh.count(t) != 0 || store_.ContainsBase(rel, t)) continue;
            removed[rel].insert(t);
          }
          for (const Tuple& t : fresh) {
            if (stored.count(t) != 0) continue;
            if (VisibleIn(base_span, base_kinds, rel, t)) continue;
            added[rel].insert(t);
          }
        }
      }
    }
    out.idb = store_.TakeOverlay();
    return out;
  }

 private:
  using CompiledStratum = PreparedProgram::CompiledStratum;

  static const std::vector<CompiledStratum>& StrataOf(
      const PreparedProgram& prog) {
    return prog.strata_;
  }

  StratumStats* CurrentStratumStats() {
    return stats_ ? &stats_->per_stratum.back() : nullptr;
  }

  Status EvalStratum(const CompiledStratum& stratum) {
    if (!opts_.seminaive) return EvalStratumNaive(stratum);

    // Round 0: all rules, full scans.
    std::map<RelId, TupleSet> delta;
    pending_.clear();
    for (const RulePlan& plan : stratum.plans) {
      SEQDL_RETURN_IF_ERROR(ApplyRule(plan, kNoDeltaStep, nullptr, nullptr));
    }
    SEQDL_RETURN_IF_ERROR(MergePending(&delta));

    // Delta rounds: re-run each rule once per recursive scan occurrence,
    // with that occurrence restricted to the previous round's delta. The
    // round's deltas are immutable while the round runs, so one
    // DeltaIndexer per round can index the large ones (see index.h).
    while (!delta.empty()) {
      SEQDL_RETURN_IF_ERROR(BumpRound());
      pending_.clear();
      DeltaIndexer delta_idx(u_, delta, opts_.delta_index_threshold);
      for (const RulePlan& plan : stratum.plans) {
        for (size_t step_idx : plan.recursive_scan_steps) {
          SEQDL_RETURN_IF_ERROR(ApplyRule(plan, step_idx, &delta, &delta_idx));
        }
      }
      std::map<RelId, TupleSet> new_delta;
      SEQDL_RETURN_IF_ERROR(MergePending(&new_delta));
      delta = std::move(new_delta);
    }
    return Status::OK();
  }

  // One maintenance pass for a stratum whose stored facts were adopted:
  // each rule re-runs once per scan step over a changed relation, with
  // that step restricted to the changed set (the appended EDB facts plus
  // everything earlier strata added — the other steps see the full
  // store, which already includes both the new segments and the adopted
  // view). The standard recursive delta rounds then close the fixpoint
  // over whatever the pass derived. Exactly the semi-naive argument:
  // every new derivation must use at least one changed fact somewhere,
  // and each such use is enumerated by the application restricting that
  // occurrence.
  Status EvalStratumDelta(const CompiledStratum& stratum,
                          const std::map<RelId, TupleSet>& changed) {
    std::map<RelId, TupleSet> delta;
    pending_.clear();
    SEQDL_RETURN_IF_ERROR(BumpRound());
    DeltaIndexer changed_idx(u_, changed, opts_.delta_index_threshold);
    for (size_t r = 0; r < stratum.plans.size(); ++r) {
      const RulePlan& plan = stratum.plans[r];
      for (size_t i = 0; i < plan.steps.size(); ++i) {
        const PlanStep& st = plan.steps[i];
        if (st.kind != PlanStep::Kind::kScan) continue;
        if (changed.count(plan.rule->body[st.lit_idx].pred.rel) == 0) continue;
        SEQDL_RETURN_IF_ERROR(ApplyRestricted(stratum, r, st.lit_idx, i,
                                              &changed, &changed_idx));
      }
    }
    SEQDL_RETURN_IF_ERROR(MergePending(&delta));

    while (!delta.empty()) {
      SEQDL_RETURN_IF_ERROR(BumpRound());
      pending_.clear();
      DeltaIndexer delta_idx(u_, delta, opts_.delta_index_threshold);
      for (size_t r = 0; r < stratum.plans.size(); ++r) {
        const RulePlan& plan = stratum.plans[r];
        for (size_t step_idx : plan.recursive_scan_steps) {
          SEQDL_RETURN_IF_ERROR(
              ApplyRestricted(stratum, r, plan.steps[step_idx].lit_idx,
                              step_idx, &delta, &delta_idx));
        }
      }
      std::map<RelId, TupleSet> new_delta;
      SEQDL_RETURN_IF_ERROR(MergePending(&new_delta));
      delta = std::move(new_delta);
    }
    return Status::OK();
  }

  // Applies rule `r` with the scan of body literal `lit_idx` restricted
  // to `*delta`, through the delta-first plan variant when the compiler
  // built one (so the restricted scan is the outermost loop and the
  // application costs O(|delta|) probes, not an outer full scan).
  // `fallback_step` is the restricted literal's step in the base plan,
  // used when no variant exists.
  Status ApplyRestricted(const CompiledStratum& stratum, size_t r,
                         size_t lit_idx, size_t fallback_step,
                         const std::map<RelId, TupleSet>* delta,
                         DeltaIndexer* delta_idx) {
    if (r < stratum.delta_plans.size()) {
      auto it = stratum.delta_plans[r].find(lit_idx);
      if (it != stratum.delta_plans[r].end()) {
        return ApplyRule(it->second, 0, delta, delta_idx);
      }
    }
    return ApplyRule(stratum.plans[r], fallback_step, delta, delta_idx);
  }

  // Visibility of `t` in a (segments, kinds) stack prefix: the newest
  // occurrence wins, and it is visible iff that occurrence is a fact
  // segment (empty kinds = all facts).
  static bool VisibleIn(std::span<const BaseStore* const> segments,
                        std::span<const SegmentKind> kinds, RelId rel,
                        const Tuple& t) {
    for (size_t i = segments.size(); i-- > 0;) {
      if (segments[i]->Contains(rel, t)) {
        return kinds.empty() || kinds[i] == SegmentKind::kFacts;
      }
    }
    return false;
  }

  static bool InMap(const std::map<RelId, TupleSet>& m, RelId rel,
                    const Tuple& t) {
    auto it = m.find(rel);
    return it != m.end() && it->second.count(t) != 0;
  }

  // Head relations that can reach themselves through positive body
  // literals of this stratum's own heads — the rels whose stored support
  // counts may include *cyclic* firings (P supported by Q, Q by P).
  // Counting deletion is exact only for acyclic support: a cyclic firing
  // inflates the count with a derivation that dies together with the
  // tuple, so a count-gated delete would leave the pair propping each
  // other up forever. These rels fall back to classic DRed — delete on
  // the first decrement, let re-derivation rescue the true survivors.
  static std::set<RelId> CyclicHeads(const CompiledStratum& stratum,
                                     const std::set<RelId>& heads) {
    std::map<RelId, std::set<RelId>> edges;
    for (const RulePlan& plan : stratum.plans) {
      std::set<RelId>& out = edges[plan.rule->head.rel];
      for (const Literal& l : plan.rule->body) {
        if (!l.is_predicate() || l.negated) continue;
        if (heads.count(l.pred.rel)) out.insert(l.pred.rel);
      }
    }
    std::set<RelId> cyclic;
    for (RelId start : heads) {
      std::set<RelId> seen;
      std::vector<RelId> stack(edges[start].begin(), edges[start].end());
      bool found = false;
      while (!found && !stack.empty()) {
        RelId cur = stack.back();
        stack.pop_back();
        if (cur == start) {
          found = true;
          break;
        }
        if (!seen.insert(cur).second) continue;
        stack.insert(stack.end(), edges[cur].begin(), edges[cur].end());
      }
      if (found) cyclic.insert(start);
    }
    return cyclic;
  }

  // The DRed deletion + re-derivation phases for one maintained stratum.
  // `removed` is the accumulated retraction cascade (EDB facts the delta
  // suffix retracted plus everything upstream strata deleted); tuples
  // this stratum deletes for good join it, and retracted facts this
  // stratum re-derives leave it. Cumulative support decrements are
  // reported through `decrements` for the caller to fold into the
  // stored counts.
  Status DeleteAndRederive(const CompiledStratum& stratum,
                           const std::set<RelId>& heads,
                           std::map<RelId, TupleSet>* removed,
                           const SupportLookup& stored_support,
                           SupportCounts* decrements) {
    // --- Deletion: cascade support decrements until no tuple dies. ---
    // Round 0 processes everything removed so far; later rounds process
    // the tuples the previous round deleted. Dead facts stay enumerable
    // as *ghosts* at non-restricted scan positions, so a derivation
    // joining several dead facts is still found from each one's
    // restricted pass (SkipCount then attributes it to exactly one).
    std::map<RelId, TupleSet> dminus = *removed;
    std::map<RelId, TupleSet> deleted;  // this stratum's deletions
    const std::set<RelId> cyclic = CyclicHeads(stratum, heads);
    ghosts_removed_ = removed;
    ghosts_deleted_ = &deleted;
    Status st = Status::OK();
    while (st.ok() && !dminus.empty()) {
      st = BumpRound();
      if (!st.ok()) break;
      dec_round_.clear();
      decrement_mode_ = true;
      DeltaIndexer didx(u_, dminus, opts_.delta_index_threshold);
      for (size_t r = 0; r < stratum.plans.size() && st.ok(); ++r) {
        const RulePlan& plan = stratum.plans[r];
        for (size_t i = 0; i < plan.steps.size() && st.ok(); ++i) {
          const PlanStep& step = plan.steps[i];
          if (step.kind != PlanStep::Kind::kScan) continue;
          if (dminus.count(plan.rule->body[step.lit_idx].pred.rel) == 0) {
            continue;
          }
          st = ApplyRestricted(stratum, r, step.lit_idx, i, &dminus, &didx);
        }
      }
      decrement_mode_ = false;
      if (!st.ok()) break;

      // Apply the round's decrements, deferred so a removal never
      // invalidates an enumeration in flight. The compare saturates: a
      // high-fan-in tuple decremented past its stored count cannot wrap
      // back to "supported" — it dies here, and the re-derivation pass
      // below decides whether it survives. An unknown stored count
      // (lookup returns 0) is treated as 1, as is any count for a
      // relation in `cyclic`: both fall back to classic over-deleting
      // DRed, because a cyclic stored count can be propped up entirely
      // by firings that die with the tuple itself.
      std::map<RelId, TupleSet> next_dminus;
      for (const auto& [rel, tuples] : dec_round_) {
        for (const auto& [t, n] : tuples) {
          uint32_t& cum = (*decrements)[rel][t];
          cum = cum > UINT32_MAX - n ? UINT32_MAX : cum + n;
          if (stats_) stats_->dred_decrements += n;
          if (!store_.overlay().Contains(rel, t)) continue;
          uint32_t stored = stored_support ? stored_support(rel, t) : 0;
          if (stored == 0 || cyclic.count(rel) != 0) stored = 1;
          if (cum < stored) continue;
          store_.RemoveOverlay(rel, t);
          deleted[rel].insert(t);
          next_dminus[rel].insert(t);
          if (stats_) ++stats_->dred_over_deleted;
        }
      }
      dminus = std::move(next_dminus);
    }
    ghosts_removed_ = nullptr;
    ghosts_deleted_ = nullptr;
    SEQDL_RETURN_IF_ERROR(st);

    // --- Re-derivation: rescue what still has a proof, to a fixpoint
    // (a rescued tuple can be the missing body atom of another). The
    // candidates are every deleted tuple plus the retracted EDB facts of
    // this stratum's head relations — a fact can be both asserted and
    // derivable, and retracting its EDB occurrence must not lose the
    // derivation.
    std::vector<std::pair<RelId, Tuple>> candidates;
    for (const auto& [rel, ts] : deleted) {
      for (const Tuple& t : ts) candidates.emplace_back(rel, t);
    }
    for (RelId rel : heads) {
      auto it = removed->find(rel);
      if (it == removed->end()) continue;
      for (const Tuple& t : it->second) {
        if (!InMap(deleted, rel, t)) candidates.emplace_back(rel, t);
      }
    }
    std::vector<bool> rescued(candidates.size(), false);
    bool progress = true;
    while (progress) {
      progress = false;
      for (size_t c = 0; c < candidates.size(); ++c) {
        if (rescued[c]) continue;
        SEQDL_ASSIGN_OR_RETURN(
            bool ok,
            CheckDerivable(stratum, candidates[c].first, candidates[c].second));
        if (!ok) continue;
        // Back into the overlay it goes (a candidate is never visible in
        // the base stack). Survivors do not re-count their firings: the
        // insertion phase counts any genuinely new derivations, and the
        // stored-count floor of one covers the rest — undercounting only
        // risks a future over-delete, which this very pass repairs.
        store_.Add(candidates[c].first, candidates[c].second);
        rescued[c] = true;
        progress = true;
        if (stats_) ++stats_->dred_re_derived;
      }
    }
    for (size_t c = 0; c < candidates.size(); ++c) {
      const auto& [rel, t] = candidates[c];
      bool was_deleted = InMap(deleted, rel, t);
      if (rescued[c]) {
        if (!was_deleted) {
          // A retracted EDB fact that re-derives: the relation never
          // lost it, so downstream strata must not see a removal.
          auto it = removed->find(rel);
          if (it != removed->end()) {
            it->second.erase(t);
            if (it->second.empty()) removed->erase(it);
          }
        }
      } else if (was_deleted) {
        (*removed)[rel].insert(t);
      }
    }
    return Status::OK();
  }

  // Does (rel, t) still have a derivation from the current store? Runs
  // each candidate rule's body with the head matched against `t`
  // (MatchArgs enumerates every way the head expressions can produce
  // it), unwinding on the first satisfying valuation. Uses the
  // head-bound plan variants: the head match binds the head's variables
  // before the body starts, so the body scans key on them instead of
  // running the cold plan's unbound step order (whose first scan is a
  // full sweep of the relation — per candidate).
  Result<bool> CheckDerivable(const CompiledStratum& stratum, RelId rel,
                              const Tuple& t) {
    SEQDL_RETURN_IF_ERROR(PollCancel());
    for (const RulePlan& plan : stratum.check_plans) {
      if (plan.rule->head.rel != rel) continue;
      check_mode_ = true;
      check_found_ = false;
      status_ = Status::OK();
      Valuation v;
      MatchArgs(u_, plan.rule->head.args, t, v, [&](Valuation& v2) {
        return ExecuteStep(plan, 0, v2, kNoDeltaStep, nullptr, nullptr);
      });
      check_mode_ = false;
      SEQDL_RETURN_IF_ERROR(status_);
      if (check_found_) return true;
    }
    return false;
  }

  Status EvalStratumNaive(const CompiledStratum& stratum) {
    while (true) {
      SEQDL_RETURN_IF_ERROR(BumpRound());
      pending_.clear();
      for (const RulePlan& plan : stratum.plans) {
        SEQDL_RETURN_IF_ERROR(ApplyRule(plan, kNoDeltaStep, nullptr, nullptr));
      }
      std::map<RelId, TupleSet> new_facts;
      SEQDL_RETURN_IF_ERROR(MergePending(&new_facts));
      if (new_facts.empty()) return Status::OK();
    }
  }

  Status BumpRound() {
    SEQDL_RETURN_IF_ERROR(PollCancel());
    if (stats_) {
      ++stats_->rounds;
      ++CurrentStratumStats()->rounds;
    }
    if (++rounds_ > opts_.max_iterations) {
      return Status::ResourceExhausted(
          "evaluation exceeded max_iterations = " +
          std::to_string(opts_.max_iterations) +
          " (the program may not terminate)");
    }
    return Status::OK();
  }

  Status PollCancel() {
    if (opts_.cancel && opts_.cancel()) {
      return Status::Cancelled("evaluation cancelled by RunOptions::cancel");
    }
    return Status::OK();
  }

  // Runs one rule; derived facts go to pending_. If `delta_step` is not
  // kNoDeltaStep, that scan step enumerates `*delta` instead of the store
  // (probing `*delta_idx` when the delta is large enough to be indexed).
  Status ApplyRule(const RulePlan& plan, size_t delta_step,
                   const std::map<RelId, TupleSet>* delta,
                   DeltaIndexer* delta_idx) {
    Valuation v;
    status_ = Status::OK();
    // Once-per-firing attribution (SkipCount) needs the tuple each body
    // literal matched; track them whenever a restricted pass is counting
    // — support increments under semi-naive, or deletion decrements.
    bool counting = delta != nullptr && delta_step != kNoDeltaStep &&
                    (decrement_mode_ ||
                     (opts_.support != nullptr && opts_.seminaive));
    if (counting) {
      track_matched_ = true;
      count_delta_ = delta;
      count_delta_lit_ = plan.steps[delta_step].lit_idx;
      matched_.assign(plan.rule->body.size(), nullptr);
    }
    ExecuteStep(plan, 0, v, delta_step, delta, delta_idx);
    track_matched_ = false;
    count_delta_ = nullptr;
    count_delta_lit_ = kNoDeltaStep;
    return status_;
  }

  // True when the current firing is (or will be) counted from a
  // different restricted pass — the canonical attribution that keeps
  // support counts at exactly one increment (and the deletion phase at
  // exactly one decrement) per firing. A pass restricted to body literal
  // i skips the firing when an earlier literal j < i matched a tuple of
  // the current delta: the pass restricted to j enumerates the same
  // firing and counts it there. Deletion passes additionally skip when
  // any other literal matched a fact that died in an *earlier* round —
  // the firing was already decremented when that fact died (its other
  // atoms were all store-visible or ghosts then too).
  bool SkipCount(const RulePlan& plan) {
    if (count_delta_ == nullptr) return false;
    const std::vector<Literal>& body = plan.rule->body;
    for (size_t j = 0; j < body.size() && j < matched_.size(); ++j) {
      if (j == count_delta_lit_) continue;
      const Literal& l = body[j];
      if (!l.is_predicate() || l.negated) continue;
      const Tuple* m = matched_[j];
      if (m == nullptr) continue;
      if (j < count_delta_lit_ && InMap(*count_delta_, l.pred.rel, *m)) {
        return true;
      }
      if (decrement_mode_ && IsOldGhost(l.pred.rel, *m)) return true;
    }
    return false;
  }

  // A fact that died in an earlier deletion round: a ghost that is not
  // part of the current round's deletion set.
  bool IsOldGhost(RelId rel, const Tuple& t) const {
    if (count_delta_ != nullptr && InMap(*count_delta_, rel, t)) return false;
    return (ghosts_removed_ != nullptr && InMap(*ghosts_removed_, rel, t)) ||
           (ghosts_deleted_ != nullptr && InMap(*ghosts_deleted_, rel, t));
  }

  // Returns false to abort enumeration (on error).
  bool ExecuteStep(const RulePlan& plan, size_t step_idx, Valuation& v,
                   size_t delta_step, const std::map<RelId, TupleSet>* delta,
                   DeltaIndexer* delta_idx) {
    if (!status_.ok()) return false;
    if (step_idx == plan.steps.size()) return DeriveHead(plan, v);

    const PlanStep& step = plan.steps[step_idx];
    const Literal& lit = plan.rule->body[step.lit_idx];
    auto next = [&](Valuation& v2) {
      return ExecuteStep(plan, step_idx + 1, v2, delta_step, delta,
                         delta_idx);
    };
    // Enumerate one store tuple, recording it when the canonical-count
    // machinery needs to know which tuple each literal matched.
    auto match_one = [&](const Tuple& t) {
      if (track_matched_) matched_[step.lit_idx] = &t;
      return MatchArgs(u_, lit.pred.args, t, v, next);
    };
    auto match_all = [&](const std::vector<const Tuple*>& bucket) {
      for (const Tuple* t : bucket) {
        if (!match_one(*t)) return false;
      }
      return true;
    };
    // Enumerate a fact segment's probe bucket, skipping tuples a newer
    // tombstone segment shadows (the common stack has no tombstones, so
    // the fast path is the plain bucket walk).
    auto match_layer = [&](const SegmentLayer& layer,
                           const std::vector<const Tuple*>& bucket) {
      if (layer.shadows.empty()) return match_all(bucket);
      for (const Tuple* t : bucket) {
        if (layer.Shadowed(lit.pred.rel, *t)) continue;
        if (!match_one(*t)) return false;
      }
      return true;
    };

    switch (step.kind) {
      case PlanStep::Kind::kScan: {
        if (step_idx == delta_step) {
          return ScanDelta(step, lit, v, delta, delta_idx, match_all,
                           match_one);
        }
        bool ok = [&] {
          StepKey key;
          if (opts_.use_index && !EvalStepKey(step, lit, v, &key)) {
            return false;
          }
          switch (key.kind) {
            case StepKey::Kind::kWhole:
              // An arity-1 relation's whole-value key IS the tuple:
              // answer with the layers' hash membership test instead of
              // materializing the whole-value column index — check plans
              // and ground-literal joins issue point lookups here, and
              // the index would be rebuilt from scratch every refresh
              // just to answer them.
              if (lit.pred.args.size() == 1) {
                if (stats_) ++stats_->index_probes;
                Tuple probe{key.whole};
                if (!store_.Contains(lit.pred.rel, probe)) return true;
                return match_one(probe);
              }
              // The planner proved this argument ground under every
              // valuation reaching the step: probe the whole-value column
              // index of every layer (shared fact segments in epoch
              // order, then the private overlay).
              if (stats_) ++stats_->index_probes;
              for (const SegmentLayer& layer : store_.layers()) {
                if (!match_layer(layer, layer.store->Probe(lit.pred.rel,
                                                           key.col,
                                                           key.whole))) {
                  return false;
                }
              }
              return match_all(store_.overlay().Probe(lit.pred.rel, key.col,
                                                      key.whole));
            case StepKey::Kind::kFirst:
              // A leading prefix of this argument is ground: a matching
              // tuple must start with the prefix's first value, so probe
              // the first-value index (MatchArgs still filters exactly).
              if (stats_) ++stats_->prefix_probes;
              for (const SegmentLayer& layer : store_.layers()) {
                if (!match_layer(layer,
                                 layer.store->ProbeFirst(lit.pred.rel, key.col,
                                                         key.value))) {
                  return false;
                }
              }
              return match_all(store_.overlay().ProbeFirst(lit.pred.rel,
                                                           key.col,
                                                           key.value));
            case StepKey::Kind::kLast:
              // Symmetric: a trailing suffix is ground (`$x ++ a`); a
              // matching tuple must end with the suffix's last value, so
              // probe the last-value index.
              if (stats_) ++stats_->suffix_probes;
              for (const SegmentLayer& layer : store_.layers()) {
                if (!match_layer(layer,
                                 layer.store->ProbeLast(lit.pred.rel, key.col,
                                                        key.value))) {
                  return false;
                }
              }
              return match_all(store_.overlay().ProbeLast(lit.pred.rel,
                                                          key.col, key.value));
            case StepKey::Kind::kNone:
              break;
          }
          if (stats_) ++stats_->full_scans;
          for (const SegmentLayer& layer : store_.layers()) {
            for (const Tuple& t : layer.store->Tuples(lit.pred.rel)) {
              if (!layer.shadows.empty() && layer.Shadowed(lit.pred.rel, t)) {
                continue;
              }
              if (!match_one(t)) return false;
            }
          }
          for (const Tuple& t : store_.overlay().Tuples(lit.pred.rel)) {
            if (!match_one(t)) return false;
          }
          return true;
        }();
        if (!ok) return false;
        // Deletion passes additionally enumerate the dead facts
        // (ghosts): a derivation whose other body atoms are already dead
        // must still be found so its head is decremented from this
        // restricted pass too.
        if (decrement_mode_) return ScanGhosts(lit, match_one);
        return true;
      }
      case PlanStep::Kind::kEq: {
        bool lhs_bound = AllVarsBound(lit.lhs, v);
        bool rhs_bound = AllVarsBound(lit.rhs, v);
        if (lhs_bound && rhs_bound) {
          PathId a, b;
          if (!EvalTo(lit.lhs, v, &a) || !EvalTo(lit.rhs, v, &b)) return false;
          if (a != b) return true;
          return next(v);
        }
        if (lhs_bound) {
          PathId a;
          if (!EvalTo(lit.lhs, v, &a)) return false;
          return MatchExpr(u_, lit.rhs, a, v, next);
        }
        if (rhs_bound) {
          PathId b;
          if (!EvalTo(lit.rhs, v, &b)) return false;
          return MatchExpr(u_, lit.lhs, b, v, next);
        }
        status_ = Status::Internal("equation scheduled before being ground");
        return false;
      }
      case PlanStep::Kind::kNegPred: {
        Tuple t;
        t.reserve(lit.pred.args.size());
        for (const PathExpr& e : lit.pred.args) {
          PathId p;
          if (!EvalTo(e, v, &p)) return false;
          t.push_back(p);
        }
        // The negated relation is complete here (stratified negation): it is
        // either EDB or defined in an earlier stratum, so the store holds
        // all of its facts.
        if (store_.Contains(lit.pred.rel, t)) return true;
        return next(v);
      }
      case PlanStep::Kind::kNegEq: {
        PathId a, b;
        if (!EvalTo(lit.lhs, v, &a) || !EvalTo(lit.rhs, v, &b)) return false;
        if (a == b) return true;
        return next(v);
      }
    }
    return true;
  }

  // The evaluated index key of a scan step under the current valuation —
  // the single probe-selection logic shared by the store path
  // (ExecuteStep) and the delta path (ScanDelta), which used to mirror
  // it separately.
  struct StepKey {
    enum class Kind : uint8_t { kNone, kWhole, kFirst, kLast };

    Kind kind = Kind::kNone;
    uint32_t col = 0;
    PathId whole = kEmptyPath;  // kWhole: the ground argument's path.
    Value value;                // kFirst/kLast: the prefix/suffix end value.
  };

  // Evaluates the step's planned key: the fully ground argument
  // (whole-value), or the first/last value of the ground prefix/suffix.
  // kNone = the step has no key, or the prefix/suffix evaluated to eps (a
  // bound path variable holding the empty path constrains nothing) — scan
  // everything. Returns false on expression-evaluation error (status_
  // set).
  bool EvalStepKey(const PlanStep& step, const Literal& lit,
                   const Valuation& v, StepKey* key) {
    if (step.index_arg >= 0) {
      key->col = static_cast<uint32_t>(step.index_arg);
      key->kind = StepKey::Kind::kWhole;
      return EvalTo(lit.pred.args[static_cast<size_t>(step.index_arg)], v,
                    &key->whole);
    }
    if (step.prefix_arg >= 0) {
      PathId prefix;
      if (!EvalTo(step.prefix_expr, v, &prefix)) return false;
      if (prefix != kEmptyPath) {
        key->col = static_cast<uint32_t>(step.prefix_arg);
        key->kind = StepKey::Kind::kFirst;
        key->value = u_.GetPath(prefix).front();
      }
      return true;
    }
    if (step.suffix_arg >= 0) {
      PathId suffix;
      if (!EvalTo(step.suffix_expr, v, &suffix)) return false;
      if (suffix != kEmptyPath) {
        key->col = static_cast<uint32_t>(step.suffix_arg);
        key->kind = StepKey::Kind::kLast;
        key->value = u_.GetPath(suffix).back();
      }
      return true;
    }
    return true;
  }

  // A scan step restricted to the current round's delta. Small deltas are
  // scanned linearly; once a delta reaches RunOptions::delta_index_threshold
  // tuples, the per-round DeltaIndexer answers keyed steps with a bucket
  // probe instead (same key logic as the main store, via EvalStepKey).
  template <typename MatchAll, typename MatchOne>
  bool ScanDelta(const PlanStep& step, const Literal& lit, Valuation& v,
                 const std::map<RelId, TupleSet>* delta,
                 DeltaIndexer* delta_idx, MatchAll&& match_all,
                 MatchOne&& match_one) {
    assert(delta != nullptr);
    if (stats_) ++stats_->delta_scans;
    auto it = delta->find(lit.pred.rel);
    if (it == delta->end()) return true;
    if (opts_.use_index && delta_idx != nullptr) {
      StepKey key;
      if (!EvalStepKey(step, lit, v, &key)) return false;
      const std::vector<const Tuple*>* bucket = nullptr;
      switch (key.kind) {
        case StepKey::Kind::kWhole:
          bucket = delta_idx->Probe(lit.pred.rel, key.col, key.whole);
          break;
        case StepKey::Kind::kFirst:
          bucket = delta_idx->ProbeFirst(lit.pred.rel, key.col, key.value);
          break;
        case StepKey::Kind::kLast:
          bucket = delta_idx->ProbeLast(lit.pred.rel, key.col, key.value);
          break;
        case StepKey::Kind::kNone:
          break;
      }
      // nullptr = the delta is below the indexing threshold; fall back to
      // the linear scan.
      if (bucket != nullptr) {
        if (stats_) ++stats_->delta_index_probes;
        return match_all(*bucket);
      }
    }
    for (const Tuple& t : it->second) {
      if (!match_one(t)) return false;
    }
    return true;
  }

  // Enumerates the dead facts of `lit`'s relation that are no longer
  // visible in the store — the deletion phase's ghosts. Linear: the dead
  // sets are small next to the store.
  template <typename MatchOne>
  bool ScanGhosts(const Literal& lit, MatchOne&& match_one) {
    for (const std::map<RelId, TupleSet>* ghosts :
         {ghosts_removed_, ghosts_deleted_}) {
      if (ghosts == nullptr) continue;
      auto it = ghosts->find(lit.pred.rel);
      if (it == ghosts->end()) continue;
      for (const Tuple& t : it->second) {
        // Still visible (e.g. re-asserted by a newer segment): the store
        // walk already enumerated it.
        if (store_.Contains(lit.pred.rel, t)) continue;
        if (!match_one(t)) return false;
      }
    }
    return true;
  }

  bool EvalTo(const PathExpr& e, const Valuation& v, PathId* out) {
    Result<PathId> r = EvalExpr(u_, e, v);
    if (!r.ok()) {
      status_ = r.status();
      return false;
    }
    *out = *r;
    return true;
  }

  bool DeriveHead(const RulePlan& plan, const Valuation& v) {
    if (check_mode_) {
      // Re-derivation check: one satisfying body valuation is enough;
      // unwind the whole enumeration.
      check_found_ = true;
      return false;
    }
    if (stats_) {
      ++stats_->rule_firings;
      ++CurrentStratumStats()->rule_firings;
    }
    if (++firings_since_poll_ >= kCancelPollInterval) {
      firings_since_poll_ = 0;
      status_ = PollCancel();
      if (!status_.ok()) return false;
    }
    Tuple t;
    t.reserve(plan.rule->head.args.size());
    for (const PathExpr& e : plan.rule->head.args) {
      PathId p;
      if (!EvalTo(e, v, &p)) return false;
      if (u_.PathLength(p) > opts_.max_path_length) {
        status_ = Status::ResourceExhausted(
            "derived path longer than max_path_length = " +
            std::to_string(opts_.max_path_length) +
            " (the program may not terminate)");
        return false;
      }
      t.push_back(p);
    }
    RelId rel = plan.rule->head.rel;
    if (decrement_mode_) {
      // One dead derivation found: decrement its head's support, exactly
      // once per firing (SkipCount), and derive nothing.
      if (!SkipCount(plan)) ++dec_round_[rel][std::move(t)];
      return true;
    }
    // Count the derivation event before deduplication: support counts
    // every firing that produces the tuple, not just the first — but
    // exactly once per firing across the restricted passes (SkipCount),
    // and only under semi-naive, where each firing is enumerated in
    // exactly one round. Naive rounds would re-count every firing, so
    // they keep no counts and deletion falls back to classic DRed.
    if (opts_.support != nullptr && opts_.seminaive && !SkipCount(plan)) {
      ++(*opts_.support)[rel][t];
    }
    if (store_.Contains(rel, t)) return true;
    if (pending_[rel].insert(std::move(t)).second) {
      ++derived_;
      if (stats_) {
        ++stats_->derived_facts;
        ++CurrentStratumStats()->derived_facts;
      }
      if (derived_ > opts_.max_facts) {
        status_ = Status::ResourceExhausted(
            "evaluation derived more than max_facts = " +
            std::to_string(opts_.max_facts) +
            " facts (the program may not terminate)");
        return false;
      }
    }
    return true;
  }

  // Moves pending facts into the store; facts that were genuinely new
  // are reported in `*fresh`.
  Status MergePending(std::map<RelId, TupleSet>* fresh) {
    fresh->clear();
    for (auto& [rel, tuples] : pending_) {
      for (const Tuple& t : tuples) {
        if (store_.Add(rel, t)) {
          (*fresh)[rel].insert(t);
          if (stratum_added_ != nullptr) stratum_added_->Add(rel, t);
        }
      }
    }
    pending_.clear();
    return Status::OK();
  }

  Universe& u_;
  const PreparedProgram& prog_;
  const RunOptions& opts_;
  EvalStats* stats_;
  LayeredStore store_;
  /// When non-null (RunDelta), MergePending also records every accepted
  /// fact here — the per-stratum additions the maintenance cascade diffs.
  Instance* stratum_added_ = nullptr;
  std::map<RelId, TupleSet> pending_;
  Status status_;
  size_t rounds_ = 0;
  size_t derived_ = 0;
  size_t firings_since_poll_ = 0;

  // --- DRed state (DeleteAndRederive / CheckDerivable only) ---
  /// Deletion pass: DeriveHead decrements instead of deriving.
  bool decrement_mode_ = false;
  /// Re-derivation check: DeriveHead records a hit and unwinds.
  bool check_mode_ = false;
  bool check_found_ = false;
  /// The current deletion round's decrements, applied at round end.
  SupportCounts dec_round_;
  /// Dead facts enumerable as ghosts during deletion passes: the
  /// accumulated removal cascade and this stratum's deletions so far.
  const std::map<RelId, TupleSet>* ghosts_removed_ = nullptr;
  const std::map<RelId, TupleSet>* ghosts_deleted_ = nullptr;

  // --- Canonical firing attribution (see SkipCount) ---
  bool track_matched_ = false;
  /// The restricted pass's delta and restricted body literal index.
  const std::map<RelId, TupleSet>* count_delta_ = nullptr;
  size_t count_delta_lit_ = kNoDeltaStep;
  /// Per body literal: the store tuple the literal currently matches.
  std::vector<const Tuple*> matched_;
};

}  // namespace internal

Result<PreparedProgram> Engine::Compile(Universe& u, Program p,
                                        const CompileOptions& opts) {
  auto start = std::chrono::steady_clock::now();
  SEQDL_RETURN_IF_ERROR(ValidateProgram(u, p));
  PreparedProgram prep(u, std::make_unique<const Program>(std::move(p)));
  PlannerOptions popts;
  popts.reorder_scans = opts.reorder_scans;
  popts.stats = opts.stats;
  for (const Stratum& s : prep.program_->strata) {
    std::set<RelId> stratum_idb;
    for (const Rule& r : s.rules) stratum_idb.insert(r.head.rel);

    PreparedProgram::CompiledStratum compiled;
    for (const Rule& r : s.rules) {
      SEQDL_ASSIGN_OR_RETURN(RulePlan plan, PlanRule(u, r, popts));
      for (size_t i = 0; i < plan.steps.size(); ++i) {
        const PlanStep& st = plan.steps[i];
        if (st.kind == PlanStep::Kind::kScan &&
            stratum_idb.count(r.body[st.lit_idx].pred.rel)) {
          plan.recursive_scan_steps.push_back(i);
        }
      }
      compiled.plans.push_back(std::move(plan));
      // Delta-first variants for incremental maintenance: one plan per
      // positive literal with that scan forced outermost, so a delta
      // restricted to it never hides behind a full outer scan.
      std::map<size_t, RulePlan> variants;
      for (size_t i = 0; i < r.body.size(); ++i) {
        const Literal& l = r.body[i];
        if (!l.is_predicate() || l.negated) continue;
        PlannerOptions vpopts = popts;
        vpopts.first_lit = static_cast<int>(i);
        SEQDL_ASSIGN_OR_RETURN(RulePlan variant, PlanRule(u, r, vpopts));
        variants.emplace(i, std::move(variant));
      }
      compiled.delta_plans.push_back(std::move(variants));
      // Head-bound variant for DRed re-derivation checks: the check
      // matches the candidate against the head before running the body,
      // so plan the body with the head's variables seeded as bound.
      PlannerOptions cpopts = popts;
      cpopts.head_bound = true;
      SEQDL_ASSIGN_OR_RETURN(RulePlan check, PlanRule(u, r, cpopts));
      compiled.check_plans.push_back(std::move(check));
    }
    prep.strata_.push_back(std::move(compiled));
  }
  // Record the access-path decisions once; runs copy them into
  // EvalStats::plan_decisions.
  for (size_t s = 0; s < prep.strata_.size(); ++s) {
    for (size_t r = 0; r < prep.strata_[s].plans.size(); ++r) {
      const RulePlan& plan = prep.strata_[s].plans[r];
      for (size_t i = 0; i < plan.steps.size(); ++i) {
        if (plan.steps[i].kind != PlanStep::Kind::kScan) continue;
        prep.plan_decisions_.push_back(
            "stratum " + std::to_string(s) + " rule " + std::to_string(r) +
            " step " + std::to_string(i) + ": " + DescribeStep(u, plan, i));
      }
    }
  }
  prep.compile_seconds_ = SecondsSince(start);
  return prep;
}

std::string PreparedProgram::ExplainPlan() const {
  const Universe& u = *universe_;
  std::string out;
  for (size_t s = 0; s < strata_.size(); ++s) {
    out += "stratum " + std::to_string(s) + "\n";
    for (size_t r = 0; r < strata_[s].plans.size(); ++r) {
      const RulePlan& plan = strata_[s].plans[r];
      out += "  rule " + std::to_string(r) + ": " + FormatRule(u, *plan.rule) +
             "\n";
      for (size_t i = 0; i < plan.steps.size(); ++i) {
        out += "    step " + std::to_string(i) + ": " +
               DescribeStep(u, plan, i) + "\n";
      }
    }
  }
  return out;
}

Result<Instance> PreparedProgram::RunOnStack(
    std::span<const BaseStore* const> segments,
    std::span<const SegmentKind> kinds, const RunOptions& opts,
    EvalStats* stats) const {
  auto start = std::chrono::steady_clock::now();
  if (stats) {
    *stats = EvalStats{};
    stats->compile_seconds = compile_seconds_;
    stats->plan_decisions = plan_decisions_;
  }
  internal::Executor exec(*universe_, *this, opts, stats);
  Result<Instance> out = exec.Run(segments, kinds);
  if (stats && opts.collect_derived_stats && out.ok()) {
    stats->derived_stats = ComputeInstanceStats(*universe_, *out);
  }
  if (stats) stats->run_seconds = SecondsSince(start);
  return out;
}

Result<PreparedProgram::DeltaRun> PreparedProgram::RunDelta(
    std::span<const BaseStore* const> segments,
    std::span<const SegmentKind> kinds, size_t base_prefix,
    const Instance& view, const SupportLookup& stored_support,
    const RunOptions& opts, EvalStats* stats) const {
  auto start = std::chrono::steady_clock::now();
  if (stats) {
    *stats = EvalStats{};
    stats->compile_seconds = compile_seconds_;
    stats->plan_decisions = plan_decisions_;
  }
  internal::Executor exec(*universe_, *this, opts, stats);
  Result<DeltaRun> out =
      exec.RunDelta(segments, kinds, base_prefix, view, stored_support);
  if (stats && opts.collect_derived_stats && out.ok()) {
    stats->derived_stats = ComputeInstanceStats(*universe_, out->idb);
  }
  if (stats) stats->run_seconds = SecondsSince(start);
  return out;
}

Result<Instance> PreparedProgram::Run(const Instance& input,
                                      const RunOptions& opts,
                                      EvalStats* stats) const {
  // Input plus derived facts over the layered engine: wrap the input in a
  // throwaway base, run, and union the derived overlay back into the
  // input copy the base holds.
  BaseStore base(*universe_, input);
  const BaseStore* segment = &base;
  SEQDL_ASSIGN_OR_RETURN(Instance derived,
                         RunOnStack({&segment, 1}, {}, opts, stats));
  Instance out = base.TakeInstance();
  out.UnionWith(std::move(derived));
  return out;
}

}  // namespace seqdl
