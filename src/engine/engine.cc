#include "src/engine/engine.h"

#include <chrono>
#include <cstdio>
#include <map>
#include <optional>
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

/// How many rule firings pass between cancellation polls.
constexpr size_t kCancelPollInterval = 256;

/// Each index family's name in explain lines, and the name of the ground
/// run its key is read from (none for kWhole: the whole argument is).
constexpr FamilyArray<const char*> kKeyNames{
    {"whole-value", "first-value", "last-value"}};
constexpr FamilyArray<const char*> kRunNames{{nullptr, "prefix", "suffix"}};

/// The EvalStats counter of each index family's probes.
constexpr FamilyArray<size_t EvalStats::*> kProbeCounters{
    {&EvalStats::index_probes, &EvalStats::prefix_probes,
     &EvalStats::suffix_probes}};

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
      if (step.family == IndexFamily::kNone) {
        out += "full scan";
      } else {
        out += kKeyNames[step.family];
        out += " key col ";
        out += std::to_string(step.key_arg);
        if (const char* run = kRunNames[step.family]) {
          out += " (";
          out += run;
          out += " ";
          out += FormatExpr(u, step.key_expr);
          out += ")";
        }
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
// they share a segment stack: its stores are only ever read, and the
// Universe interns with synchronization.
class Executor {
 public:
  Executor(Universe& u, const PreparedProgram& prog, const RunOptions& opts,
           EvalStats* stats)
      : u_(u), prog_(prog), opts_(opts), stats_(stats) {}

  // Evaluates over the (shared, never mutated) segment stack; returns the
  // derived IDB overlay only. Segments are scanned in stack order (oldest
  // epoch first), which preserves the single-segment enumeration order
  // bit-for-bit when there is one segment. Tombstoned facts are invisible
  // throughout.
  Result<Instance> Run(std::span<const Segment> stack) {
    store_ = LayeredStore(u_, stack);
    for (const auto& stratum : StrataOf(prog_)) {
      if (stats_) stats_->per_stratum.emplace_back();
      SEQDL_RETURN_IF_ERROR(EvalStratum(stratum));
    }
    return store_.TakeOverlay();
  }

  // Incremental maintenance over the full current segment stack: adopts
  // the stored view, runs DRed deletion + re-derivation for the net
  // retractions and for the facts negated relations gained, then
  // delta-evaluates the net additions and the facts negated relations
  // lost (see PreparedProgram::RunDelta's contract).
  Result<PreparedProgram::DeltaRun> RunDelta(
      std::span<const Segment> stack, size_t base_prefix,
      const Instance& view, const SupportLookup& stored_support) {
    store_ = LayeredStore(u_, stack);
    std::span<const Segment> base_span = stack.first(base_prefix);
    std::span<const Segment> delta_span = stack.subspan(base_prefix);

    // Net effect of the delta suffix, fact by fact: visibility before
    // (base prefix only) vs after (full stack) — a fact appended then
    // retracted inside the window, or the reverse, nets out entirely.
    // `added` and `removed` then cascade down the strata, growing by
    // what each stratum derives or deletes.
    Instance added;
    Instance removed;
    for (const Segment& seg : delta_span) {
      const Instance& inst = seg.store->instance();
      for (RelId rel : inst.Relations()) {
        for (TupleRef t : inst.Tuples(rel)) {
          bool was = Visible(base_span, rel, t);
          bool is = store_.ContainsBase(rel, t);
          if (was == is) continue;
          if (is) {
            // A view fact the suffix promoted to EDB is not an addition:
            // the relation held the tuple before (as a derived fact), so
            // no new consequences can follow — and re-enumerating its
            // firings would inflate the stored support past the true
            // derivation count, which DRed can never recover from.
            if (!view.Contains(rel, t)) added.Add(rel, t);
          } else {
            removed.Add(rel, t);
          }
        }
      }
    }
    if (stats_) {
      stats_->delta_seed_facts += added.NumFacts() + removed.NumFacts();
    }

    PreparedProgram::DeltaRun out;
    const std::vector<Stratum>& strata = prog_.program().strata;
    for (size_t s = 0; s < strata.size(); ++s) {
      const CompiledStratum& compiled = StrataOf(prog_)[s];
      if (stats_) stats_->per_stratum.emplace_back();

      // A negated relation lives in an earlier stratum or the EDB, so its
      // change is final here: what it gained kills the firings that used
      // its absence (deletion seeds), what it lost enables new ones
      // (insertion seeds).
      size_t gained = 0;
      for (RelId rel : compiled.negated_rels) {
        gained += added.Tuples(rel).size();
        if (stats_) stats_->negated_lost_seeds += removed.Tuples(rel).size();
      }
      if (stats_) stats_->negated_gained_seeds += gained;

      std::set<RelId> heads;
      for (const Rule& r : strata[s].rules) heads.insert(r.head.rel);

      // Adopt the stored facts wholesale, then delete, re-derive, and
      // delta-evaluate. The view holds no fact of the segments it was
      // computed over (a view never contains EDB-visible facts, and a
      // folded segment keeps its newest publish stamp, so every
      // non-delta segment predates the view), which lets Adopt dedupe
      // against the delta segments only — view facts the suffix promoted
      // to EDB drop out of the overlay exactly as a cold run would leave
      // them, and promoted-then-retracted ones stay view state (visible
      // membership, not raw membership).
      for (RelId rel : heads) {
        store_.Adopt(rel, view.Tuples(rel), delta_span);
      }
      // Everything this stratum's evaluation accepts into the overlay,
      // recorded by MergePending for the cascade below.
      Instance stratum_added;
      stratum_added_ = &stratum_added;
      Status st = Status::OK();
      if (!removed.Empty() || gained > 0) {
        st = DeleteAndRederive(compiled, heads, added, &removed,
                               stored_support, &out.decrements);
      }
      if (st.ok()) st = EvalStratumDelta(compiled, added, removed);
      stratum_added_ = nullptr;
      SEQDL_RETURN_IF_ERROR(st);
      if (stats_) ++stats_->strata_delta_maintained;

      // A tuple the deletion phase removed and the insertion pass derived
      // again never left its relation: it leaves the removals instead of
      // joining the additions, so later strata seed only facts whose
      // membership really changed.
      for (RelId rel : stratum_added.Relations()) {
        for (TupleRef t : stratum_added.Tuples(rel)) {
          if (!removed.Remove(rel, t)) added.Add(rel, t);
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
    // Round 0: every rule over the full store.
    for (const RulePlan& plan : stratum.plans) {
      SEQDL_RETURN_IF_ERROR(ApplyRule(plan, nullptr));
    }
    return CloseFixpoint(stratum);
  }

  // One maintenance pass for a stratum whose stored facts were adopted:
  // the restricted passes over the changed sets — positive literals over
  // `added` (the appended EDB facts plus everything earlier strata
  // added), negated ones over `removed` (what their relations lost) —
  // where the unrestricted steps see the full new store, which already
  // includes both the new segments and the adopted view; then the
  // semi-naive rounds over whatever it derived.
  Status EvalStratumDelta(const CompiledStratum& stratum,
                          const Instance& added, const Instance& removed) {
    SEQDL_RETURN_IF_ERROR(BumpRound());
    SEQDL_RETURN_IF_ERROR(ApplyRestricted(stratum, added, &removed));
    return CloseFixpoint(stratum);
  }

  // The semi-naive rounds: each merges what the previous one derived and
  // runs the restricted passes over those new facts, until a round
  // derives nothing.
  Status CloseFixpoint(const CompiledStratum& stratum) {
    for (Instance delta = MergePending(); !delta.Empty();
         delta = MergePending()) {
      SEQDL_RETURN_IF_ERROR(BumpRound());
      SEQDL_RETURN_IF_ERROR(ApplyRestricted(stratum, delta));
    }
    return Status::OK();
  }

  // The one restricted pass, shared by cold rounds, maintenance and DRed
  // deletion: each rule runs once per body literal whose relation has
  // facts in its restriction — `delta` for a positive literal,
  // `neg_delta` (if any) for a negated one — through its delta-first
  // variant for that literal, whose step 0 enumerates those facts while
  // every later step sees the full store. Exactly the semi-naive
  // argument: every derivation that uses a fact of `delta` (or the
  // absence of a fact of `neg_delta`) is enumerated by the pass
  // restricting the literal that matched it. The restricted scan being
  // the outermost loop, a pass costs O(|delta|) probes, not an outer full
  // scan, and the delta is only ever enumerated, never probed.
  Status ApplyRestricted(const CompiledStratum& stratum, const Instance& delta,
                         const Instance* neg_delta = nullptr) {
    for (const std::map<size_t, RulePlan>& variants : stratum.delta_plans) {
      for (const auto& [lit_idx, plan] : variants) {
        const Literal& lit = plan.rule->body[lit_idx];
        const Instance* from = lit.negated ? neg_delta : &delta;
        if (from == nullptr || from->Tuples(lit.pred.rel).empty()) continue;
        SEQDL_RETURN_IF_ERROR(ApplyRule(plan, &delta, neg_delta));
      }
    }
    return Status::OK();
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
  // stratum re-derives leave it. `added` is the addition cascade: the
  // facts negated relations gained seed the deletion phase, and no added
  // fact takes part in a derivation it enumerates. Cumulative support
  // decrements are reported through `decrements` for the caller to fold
  // into the stored counts.
  Status DeleteAndRederive(const CompiledStratum& stratum,
                           const std::set<RelId>& heads, const Instance& added,
                           Instance* removed,
                           const SupportLookup& stored_support,
                           SupportCounts* decrements) {
    // --- Deletion: cascade support decrements until no tuple dies. ---
    // Round 0 processes everything removed so far through the positive
    // literals and everything negated relations gained through the
    // negated ones; later rounds process the tuples the previous round
    // deleted. Every pass enumerates derivations as they stood before
    // the refresh: dead facts stay enumerable as *ghosts* at
    // non-restricted scan positions, added facts are skipped there, and
    // negated literals read each relation's old contents. So a dead
    // derivation is found from each of its restricted passes (SkipCount
    // then attributes it to exactly one), and no derivation the refresh
    // created is decremented.
    Instance dminus = *removed;
    Instance deleted;  // this stratum's deletions
    const std::set<RelId> cyclic = CyclicHeads(stratum, heads);
    ghosts_removed_ = removed;
    ghosts_deleted_ = &deleted;
    gained_ = &added;
    const Instance* gains = &added;  // round 0 only
    Status st = Status::OK();
    while (st.ok() && (!dminus.Empty() || gains != nullptr)) {
      st = BumpRound();
      if (!st.ok()) break;
      dec_round_.clear();
      decrement_mode_ = true;
      st = ApplyRestricted(stratum, dminus, gains);
      decrement_mode_ = false;
      gains = nullptr;
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
      Instance next_dminus;
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
          deleted.Add(rel, t);
          next_dminus.Add(rel, t);
          if (stats_) ++stats_->dred_over_deleted;
        }
      }
      dminus = std::move(next_dminus);
    }
    ghosts_removed_ = nullptr;
    ghosts_deleted_ = nullptr;
    gained_ = nullptr;
    SEQDL_RETURN_IF_ERROR(st);

    // --- Re-derivation: rescue what still has a proof, to a fixpoint
    // (a rescued tuple can be the missing body atom of another). The
    // candidates are every deleted tuple plus the retracted EDB facts of
    // this stratum's head relations — a fact can be both asserted and
    // derivable, and retracting its EDB occurrence must not lose the
    // derivation.
    std::vector<std::pair<RelId, Tuple>> candidates;
    for (RelId rel : deleted.Relations()) {
      for (TupleRef t : deleted.Tuples(rel)) {
        candidates.emplace_back(rel, Tuple(t.begin(), t.end()));
      }
    }
    for (RelId rel : heads) {
      for (TupleRef t : removed->Tuples(rel)) {
        if (!deleted.Contains(rel, t)) {
          candidates.emplace_back(rel, Tuple(t.begin(), t.end()));
        }
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
      bool was_deleted = deleted.Contains(rel, t);
      if (rescued[c]) {
        // A retracted EDB fact that re-derives: the relation never lost
        // it, so downstream strata must not see a removal.
        if (!was_deleted) removed->Remove(rel, t);
      } else if (was_deleted) {
        removed->Add(rel, t);
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
                              TupleRef t) {
    SEQDL_RETURN_IF_ERROR(PollCancel());
    for (const RulePlan& plan : stratum.check_plans) {
      if (plan.rule->head.rel != rel) continue;
      check_mode_ = true;
      check_found_ = false;
      status_ = Status::OK();
      Valuation v;
      MatchArgs(u_, plan.rule->head.args, t, v, [&](Valuation& v2) {
        return ExecuteStep(plan, 0, v2);
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
      for (const RulePlan& plan : stratum.plans) {
        SEQDL_RETURN_IF_ERROR(ApplyRule(plan, nullptr));
      }
      if (MergePending().Empty()) return Status::OK();
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

  // Runs one rule; derived facts go to pending_. With a `delta`, `plan`
  // is a delta-first variant and its step 0 enumerates the restriction
  // of its first literal, `*delta` or `*neg_delta`, instead of the store
  // (ApplyRestricted).
  Status ApplyRule(const RulePlan& plan, const Instance* delta,
                   const Instance* neg_delta = nullptr) {
    Valuation v;
    status_ = Status::OK();
    delta_ = delta;
    neg_delta_ = neg_delta;
    // Once-per-firing attribution (SkipCount) needs the tuple each body
    // literal matched; track them whenever a restricted pass is counting
    // — support increments under semi-naive, or deletion decrements.
    track_matched_ = delta != nullptr &&
                     (decrement_mode_ ||
                      (opts_.support != nullptr && opts_.seminaive));
    if (track_matched_) matched_.assign(plan.rule->body.size(), std::nullopt);
    ExecuteStep(plan, 0, v);
    track_matched_ = false;
    delta_ = nullptr;
    neg_delta_ = nullptr;
    return status_;
  }

  // True when the current firing is (or will be) counted from a
  // different restricted pass — the canonical attribution that keeps
  // support counts at exactly one increment (and the deletion phase at
  // exactly one decrement) per firing. A pass restricted to body literal
  // i skips the firing when an earlier literal j < i, positive or
  // negated, matched a tuple of its own restriction: the pass restricted
  // to j enumerates the same firing and counts it there. Deletion passes
  // additionally skip when any other literal matched a fact that changed
  // in an *earlier* round — the firing was already decremented then (its
  // other atoms were all store-visible or ghosts then too).
  bool SkipCount(const RulePlan& plan) {
    if (!track_matched_) return false;
    const size_t restricted = plan.steps[0].lit_idx;
    const std::vector<Literal>& body = plan.rule->body;
    for (size_t j = 0; j < body.size(); ++j) {
      if (j == restricted) continue;
      const Literal& l = body[j];
      if (!l.is_predicate()) continue;
      const std::optional<TupleRef>& m = matched_[j];
      if (!m) continue;
      const Instance* restriction = l.negated ? neg_delta_ : delta_;
      if (restriction != nullptr && restriction->Contains(l.pred.rel, *m)) {
        if (j < restricted) return true;
      } else if (decrement_mode_ && ChangedEarlier(l, *m)) {
        return true;
      }
    }
    return false;
  }

  // In a deletion round, a fact outside the round's restriction that
  // already changed: a ghost of a positive literal (removed before the
  // round, or deleted in an earlier one), or a fact a negated relation
  // gained (round 0 restricted every negated literal to those).
  bool ChangedEarlier(const Literal& l, TupleRef t) const {
    if (l.negated) return gained_->Contains(l.pred.rel, t);
    return ghosts_removed_->Contains(l.pred.rel, t) ||
           ghosts_deleted_->Contains(l.pred.rel, t);
  }

  // Whether the negated literal's tuple is in its relation. Deletion
  // passes enumerate derivations as they stood before the refresh, so
  // they read the relation's old contents: the new ones minus what it
  // gained, plus what it lost.
  bool NegatedHolds(RelId rel, TupleRef t) const {
    if (!decrement_mode_) return store_.Contains(rel, t);
    if (store_.Contains(rel, t)) return !gained_->Contains(rel, t);
    return ghosts_removed_->Contains(rel, t);
  }

  // Returns false to abort enumeration (on error).
  bool ExecuteStep(const RulePlan& plan, size_t step_idx, Valuation& v) {
    if (!status_.ok()) return false;
    if (step_idx == plan.steps.size()) return DeriveHead(plan, v);

    const PlanStep& step = plan.steps[step_idx];
    const Literal& lit = plan.rule->body[step.lit_idx];
    auto next = [&](Valuation& v2) {
      return ExecuteStep(plan, step_idx + 1, v2);
    };
    // Enumerate one tuple, recording it when the canonical-count
    // machinery needs to know which tuple each literal matched. Deletion
    // passes enumerate derivations as they stood before the refresh, so
    // past their restricted step 0 they skip the facts it added.
    auto match_one = [&](TupleRef t) {
      if (decrement_mode_ && step_idx > 0 &&
          gained_->Contains(lit.pred.rel, t)) {
        return true;
      }
      if (track_matched_) matched_[step.lit_idx] = t;
      return MatchArgs(u_, lit.pred.args, t, v, next);
    };
    auto match_all = [&](const auto& tuples) {
      for (TupleRef t : tuples) {
        if (!match_one(t)) return false;
      }
      return true;
    };
    // Enumerate a fact segment's relation or probe bucket, skipping tuples
    // a newer tombstone segment shadows (the common stack has no
    // tombstones, so the fast path is the plain walk).
    auto match_layer = [&](const SegmentLayer& layer, const auto& tuples) {
      if (layer.shadows.empty()) return match_all(tuples);
      for (TupleRef t : tuples) {
        if (layer.Shadowed(lit.pred.rel, t)) continue;
        if (!match_one(t)) return false;
      }
      return true;
    };

    switch (step.kind) {
      case PlanStep::Kind::kScan: {
        if (step_idx == 0 && delta_ != nullptr) {
          // A restricted pass's outermost scan: nothing is bound yet, so
          // the literal's restriction is enumerated; MatchArgs filters
          // each fact. A negated literal scanned here is the change of
          // its relation, and its check is left out of the plan.
          if (stats_) ++stats_->delta_scans;
          const Instance* from = lit.negated ? neg_delta_ : delta_;
          return match_all(from->Tuples(lit.pred.rel));
        }
        bool ok = [&] {
          StepKey key;
          if (opts_.use_index && !EvalStepKey(step, lit, v, &key)) {
            return false;
          }
          if (key.family != IndexFamily::kNone) {
            if (stats_) ++(stats_->*kProbeCounters[key.family]);
            // An arity-1 relation's whole-value key IS the tuple: answer
            // with the layers' hash membership test instead of
            // materializing the whole-value column index — check plans
            // and ground-literal joins issue point lookups here, and the
            // index would be rebuilt from scratch every refresh just to
            // answer them.
            if (key.family == IndexFamily::kWhole &&
                lit.pred.args.size() == 1) {
              TupleRef probe(&key.key, 1);
              if (!store_.Contains(lit.pred.rel, probe)) return true;
              return match_one(probe);
            }
            // The planner proved the key's argument (or prefix/suffix
            // run) ground under every valuation reaching the step: probe
            // the family's index of every layer (shared fact segments in
            // epoch order, then the private overlay). A first/last-value
            // bucket overapproximates; MatchArgs filters it exactly.
            for (const SegmentLayer& layer : store_.layers()) {
              if (!match_layer(layer,
                               layer.store->Probe(lit.pred.rel, key.col,
                                                  key.family, key.key))) {
                return false;
              }
            }
            return match_all(store_.overlay().Probe(lit.pred.rel, key.col,
                                                    key.family, key.key));
          }
          if (stats_) ++stats_->full_scans;
          for (const SegmentLayer& layer : store_.layers()) {
            if (!match_layer(layer, layer.store->Tuples(lit.pred.rel))) {
              return false;
            }
          }
          return match_all(store_.overlay().Tuples(lit.pred.rel));
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
        if (NegatedHolds(lit.pred.rel, t)) return true;
        if (track_matched_) matched_[step.lit_idx] = TupleRef(t);
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

  // The evaluated index key of a scan step under the current valuation.
  struct StepKey {
    IndexFamily family = IndexFamily::kNone;
    uint32_t col = 0;
    uint32_t key = 0;  // The FamilyKey a matching tuple files under.
  };

  // Evaluates the step's planned key: the fully ground argument
  // (whole-value), or the first/last value of the ground prefix/suffix.
  // kNone = the step has no key, or the prefix/suffix evaluated to eps (a
  // bound path variable holding the empty path constrains nothing) — scan
  // everything. Returns false on expression-evaluation error (status_
  // set).
  bool EvalStepKey(const PlanStep& step, const Literal& lit,
                   const Valuation& v, StepKey* key) {
    if (step.family == IndexFamily::kNone) return true;
    if (step.family == IndexFamily::kWhole) {
      PathId whole;
      if (!EvalTo(lit.pred.args[step.key_arg], v, &whole)) return false;
      *key = {IndexFamily::kWhole, step.key_arg, whole};
      return true;
    }
    bool last = step.family == IndexFamily::kLast;
    const PathExpr& e = step.key_expr;
    // The end value is read off the items and the bound variables' paths,
    // so the probe interns nothing but the inner path of a packed item.
    size_t n = e.items.size();
    for (size_t k = 0; k < n; ++k) {
      const ExprItem& it = e.items[last ? n - 1 - k : k];
      Value end;
      if (it.kind == ExprItem::Kind::kConst) {
        end = it.atom;
      } else if (it.kind == ExprItem::Kind::kPack) {
        PathId inner;
        if (!EvalTo(*it.pack, v, &inner)) return false;
        end = Value::Packed(inner);
      } else if (!v.IsBound(it.var)) {
        // Not ground after all: EvalTo reports the unbound variable.
        PathId unused;
        return EvalTo(e, v, &unused);
      } else {
        std::span<const Value> p = u_.GetPath(v.Get(it.var));
        if (p.empty()) continue;
        end = last ? p.back() : p.front();
      }
      // A path with this end value files under its bits() (FamilyKey).
      *key = {step.family, step.key_arg, end.bits()};
      return true;
    }
    return true;
  }

  // Enumerates the dead facts of `lit`'s relation that are no longer
  // visible in the store — the deletion phase's ghosts. Linear: the dead
  // sets are small next to the store.
  template <typename MatchOne>
  bool ScanGhosts(const Literal& lit, MatchOne&& match_one) {
    for (const Instance* ghosts : {ghosts_removed_, ghosts_deleted_}) {
      if (ghosts == nullptr) continue;
      for (TupleRef t : ghosts->Tuples(lit.pred.rel)) {
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
      if (!SkipCount(plan)) ++dec_round_[rel][t];
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
    if (pending_.Add(rel, t)) {
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

  // Moves the round's pending facts into the store and returns them, the
  // next round's delta. Every pending fact is new: DeriveHead queues only
  // facts the store lacks, and the store does not change during a round.
  Instance MergePending() {
    Instance fresh = std::exchange(pending_, Instance());
    for (RelId rel : fresh.Relations()) {
      for (TupleRef t : fresh.Tuples(rel)) {
        store_.Add(rel, t);
        if (stratum_added_ != nullptr) stratum_added_->Add(rel, t);
      }
    }
    return fresh;
  }

  Universe& u_;
  const PreparedProgram& prog_;
  const RunOptions& opts_;
  EvalStats* stats_;
  LayeredStore store_;
  /// When non-null (RunDelta), MergePending also records every accepted
  /// fact here — the per-stratum additions the maintenance cascade
  /// carries to later strata.
  Instance* stratum_added_ = nullptr;
  /// The facts the current round derived, merged at its end.
  Instance pending_;
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
  const Instance* ghosts_removed_ = nullptr;
  const Instance* ghosts_deleted_ = nullptr;
  /// The addition cascade during the deletion phase: facts that were
  /// not there before the refresh, which deletion passes skip (and
  /// NegatedHolds reads out of a negated relation's old contents).
  const Instance* gained_ = nullptr;

  /// The running restricted pass's restrictions (ApplyRule): `delta_`
  /// for positive literals, `neg_delta_` (may be null) for negated ones.
  /// Both null outside a restricted pass.
  const Instance* delta_ = nullptr;
  const Instance* neg_delta_ = nullptr;

  // --- Canonical firing attribution (see SkipCount) ---
  bool track_matched_ = false;
  /// Per body literal: the store tuple the literal currently matches.
  std::vector<std::optional<TupleRef>> matched_;
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
      // Delta-first variants, which every restricted pass runs: one plan
      // per predicate literal with that scan forced outermost, so a delta
      // restricted to it never hides behind a full outer scan.
      std::map<size_t, RulePlan> variants;
      for (size_t i = 0; i < r.body.size(); ++i) {
        const Literal& l = r.body[i];
        if (!l.is_predicate()) continue;
        if (l.negated) compiled.negated_rels.insert(l.pred.rel);
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

Result<Instance> PreparedProgram::RunOnStack(std::span<const Segment> stack,
                                             const RunOptions& opts,
                                             EvalStats* stats) const {
  auto start = std::chrono::steady_clock::now();
  if (stats) {
    *stats = EvalStats{};
    stats->compile_seconds = compile_seconds_;
    stats->plan_decisions = plan_decisions_;
  }
  internal::Executor exec(*universe_, *this, opts, stats);
  Result<Instance> out = exec.Run(stack);
  if (stats) stats->run_seconds = SecondsSince(start);
  return out;
}

Result<PreparedProgram::DeltaRun> PreparedProgram::RunDelta(
    std::span<const Segment> stack, size_t base_prefix, const Instance& view,
    const SupportLookup& stored_support, const RunOptions& opts,
    EvalStats* stats) const {
  auto start = std::chrono::steady_clock::now();
  if (stats) {
    *stats = EvalStats{};
    stats->compile_seconds = compile_seconds_;
    stats->plan_decisions = plan_decisions_;
  }
  internal::Executor exec(*universe_, *this, opts, stats);
  Result<DeltaRun> out =
      exec.RunDelta(stack, base_prefix, view, stored_support);
  if (stats) stats->run_seconds = SecondsSince(start);
  return out;
}

Result<Instance> PreparedProgram::Run(const Instance& input,
                                      const RunOptions& opts,
                                      EvalStats* stats) const {
  // Input plus derived facts over the layered engine: wrap the input in a
  // throwaway one-segment stack, run, and union the derived overlay back
  // into the input copy the segment holds.
  auto input_store = std::make_shared<IndexedStore>(*universe_, input);
  const Segment stack[] = {{input_store}};
  SEQDL_ASSIGN_OR_RETURN(Instance derived, RunOnStack(stack, opts, stats));
  Instance out = input_store->TakeInstance();
  out.UnionWith(std::move(derived));
  return out;
}

}  // namespace seqdl
