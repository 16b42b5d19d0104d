// Compile-once/run-many evaluation of Sequence Datalog programs.
//
// Engine::Compile validates (safety, stratification) and plans a program
// exactly once, producing an immutable PreparedProgram. The prepared
// program can then be run against any number of input instances over the
// same Universe:
//
//   SEQDL_ASSIGN_OR_RETURN(PreparedProgram prog,
//                          Engine::Compile(u, std::move(program)));
//   SEQDL_ASSIGN_OR_RETURN(Instance out1, prog.Run(input1));
//   SEQDL_ASSIGN_OR_RETURN(Instance out2, prog.Run(input2));
//
// Execution uses stratified semi-naive fixpoint iteration (paper §2.3)
// over an indexed relation store: scans whose key position is ground under
// the current valuation become hash probes instead of full relation scans
// (see plan.h / index.h). Since Sequence Datalog programs need not
// terminate (Example 2.3), Run enforces budgets and reports
// kResourceExhausted when they are exceeded; a cancellation callback in
// RunOptions can stop a run early with kCancelled.
//
// Execution runs on a layered store (index.h): a stack of immutable,
// possibly shared segments of input facts underneath and a private IDB
// overlay on top, both IndexedStores. Each semi-naive round's delta is a
// plain Instance: every round runs delta-first plan variants, whose
// outermost scan enumerates the delta, so nothing ever probes it.
// Run(input) wraps the input in a throwaway one-segment stack per call;
// the Database/Session API (database.h) shares one indexed stack across
// any number of concurrent runs. These are the two ways to run a
// program: Run on an instance, Session::Run on a database snapshot. To
// keep one relation of the answer, Project it ("out->Project({rel})").
#ifndef SEQDL_ENGINE_ENGINE_H_
#define SEQDL_ENGINE_ENGINE_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <span>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/base/status.h"
#include "src/engine/instance.h"
#include "src/engine/plan.h"
#include "src/engine/stats.h"
#include "src/syntax/ast.h"
#include "src/term/universe.h"

namespace seqdl {

struct Segment;
class Session;
class ViewManager;

namespace internal {
class Executor;
}  // namespace internal

/// Derivation-event counts per derived tuple, keyed by relation: how many
/// times each tuple was produced by a rule firing (across all rules and
/// rounds). Collected when RunOptions::support is set under semi-naive
/// evaluation (naive runs skip counting — their re-evaluation rounds
/// re-enumerate every firing and would inflate counts without bound); the
/// materialized-view subsystem (view/view.h) stores them per view
/// snapshot to drive counting-based delete/re-derive (DRed) on
/// retraction: a tuple whose count drops to zero has no surviving counted
/// derivation and is over-deleted, then rescued iff a re-derivation check
/// finds another proof. Counting is *canonical* — each firing is counted
/// exactly once even when several of its body atoms sit in the same delta
/// round (the firing is attributed to its smallest delta-matched body
/// literal) — so stored counts never exceed the number of enumerable
/// firings. The deletion phase decrements each dead firing at least once,
/// which makes the pair sound: counts can only reach zero at or before
/// the true support does, and an early zero merely costs a re-derivation
/// check, never a wrong deletion.
using SupportCounts = std::map<RelId, TupleCounts>;

/// Stored-support lookup for RunDelta's deletion phase: returns the
/// support count the view recorded for (rel, tuple), or 0 when unknown —
/// the executor treats unknown as 1 (delete on first decrement and let
/// re-derivation decide), the classic DRed behaviour.
using SupportLookup = std::function<uint32_t(RelId, TupleRef)>;

/// Options fixed at compilation time.
struct CompileOptions {
  /// Greedily reorder positive body scans so each joins on already-bound
  /// variables where possible; false = scan in body order.
  bool reorder_scans = true;
  /// Measured store statistics (Database::Stats(), IndexedStore::Stats(), or
  /// ComputeInstanceStats) ranking candidate access paths and the scan
  /// order by expected bucket size — see plan.h. nullptr = the legacy
  /// first-ground-argument heuristic. Only read during the Compile call;
  /// statistics never change results, only cost (the differential harness
  /// enforces this).
  const StoreStats* stats = nullptr;
};

/// Options chosen per run.
struct RunOptions {
  /// Maximum number of derived facts before giving up.
  size_t max_facts = 5'000'000;
  /// Maximum number of fixpoint rounds across all strata.
  size_t max_iterations = 1'000'000;
  /// Maximum length of any derived path.
  size_t max_path_length = 1'000'000;
  /// Use semi-naive (delta) iteration; false = naive re-evaluation.
  bool seminaive = true;
  /// Probe per-(relation, column) hash indexes for scans whose key
  /// position is ground; false = always full scans (ablation).
  bool use_index = true;
  /// Cancellation/budget callback, polled at every fixpoint round and
  /// periodically between rule firings. Return true to cancel the run;
  /// Run then fails with kCancelled. Leave empty for no callback.
  std::function<bool()> cancel;
  /// Ignored; perfbench/src/node.cc:105 still sets it (ROADMAP item 9).
  bool collect_derived_stats = false;
  /// When non-null, every rule firing increments (*support)[rel][tuple]
  /// for the head tuple it produced — the counting-based support the
  /// materialized-view subsystem records per derived tuple (see
  /// SupportCounts above; counting is canonical, once per firing, and
  /// only happens under seminaive — naive re-evaluation rounds would
  /// re-count every firing per round). The map is the caller's; the run
  /// only ever increments, so a caller can seed it with carried-over
  /// counts. Null (the default) keeps the derivation hot path free of
  /// the upkeep.
  SupportCounts* support = nullptr;
};

/// Adds `cancel` to `opts->cancel`: the run then stops when either
/// callback asks it to. An empty `cancel` leaves `opts` unchanged.
inline void AddCancel(RunOptions* opts, std::function<bool()> cancel) {
  if (!cancel) return;
  if (opts->cancel) {
    cancel = [first = std::move(opts->cancel), second = std::move(cancel)] {
      return first() || second();
    };
  }
  opts->cancel = std::move(cancel);
}

/// Per-stratum execution counters.
struct StratumStats {
  size_t rounds = 0;
  size_t rule_firings = 0;
  size_t derived_facts = 0;
};

/// Execution statistics, filled by PreparedProgram::Run and Session::Run.
struct EvalStats {
  size_t derived_facts = 0;
  size_t rounds = 0;
  size_t rule_firings = 0;
  /// Scans answered through a whole-value (relation, column) index probe
  /// (the argument position was fully ground).
  size_t index_probes = 0;
  /// Scans answered through a first-value index probe (only a leading
  /// prefix of the argument was ground).
  size_t prefix_probes = 0;
  /// Scans answered through a last-value index probe (only a trailing
  /// suffix of the argument was ground, e.g. `$x ++ a`).
  size_t suffix_probes = 0;
  /// Scans that fell back to a full relation scan (no ground key position,
  /// an empty ground prefix/suffix, or use_index = false).
  size_t full_scans = 0;
  /// Restricted passes' scans of a delta set (the round's new facts, a
  /// maintenance pass's changed facts or a deletion round's dead ones),
  /// one per pass.
  size_t delta_scans = 0;
  /// Net changed facts of the delta segments (additions plus retractions)
  /// that seeded a RunDelta's first delta pass (0 on full runs).
  size_t delta_seed_facts = 0;
  /// Strata a RunDelta maintained over the stored view (all of them; 0
  /// on full runs).
  size_t strata_delta_maintained = 0;
  /// Facts a negated relation gained, which seeded a RunDelta's deletion
  /// phase, and facts it lost, which seeded the insertion pass; counted
  /// once per stratum negating the relation (0 on full runs).
  size_t negated_gained_seeds = 0;
  size_t negated_lost_seeds = 0;
  /// DRed deletion-phase counters (0 on full runs, and on deltas that
  /// remove nothing and add nothing to a negated relation): support
  /// decrements applied, stored tuples whose support hit zero and were
  /// provisionally deleted, and how many of those the re-derivation pass
  /// rescued.
  size_t dred_decrements = 0;
  size_t dred_over_deleted = 0;
  size_t dred_re_derived = 0;
  /// Wall time Engine::Compile spent validating + planning the program.
  double compile_seconds = 0;
  /// Wall time of this run.
  double run_seconds = 0;
  /// One entry per stratum, in program order.
  std::vector<StratumStats> per_stratum;
  /// The planner's access-path decision per scan step, one line each
  /// ("stratum 0 rule 0 step 1: scan R: whole-value key col 1, est 1.0
  /// [stats]"), recorded at compile time and copied into every run's
  /// stats. Empty when the run was given no stats out-param.
  std::vector<std::string> plan_decisions;
};

/// A validated, planned program bound to a Universe. Move-only (plans
/// point into the owned Program). Create via Engine::Compile.
class PreparedProgram {
 public:
  PreparedProgram(PreparedProgram&&) = default;
  PreparedProgram& operator=(PreparedProgram&&) = default;
  PreparedProgram(const PreparedProgram&) = delete;
  PreparedProgram& operator=(const PreparedProgram&) = delete;

  /// Evaluates on `input`; returns input plus all derived IDB facts.
  /// `input` must be an instance over the Universe the program was
  /// compiled against. On success fills `*stats` (if non-null), including
  /// the compile time recorded by Engine::Compile. Runs are independent —
  /// each builds a throwaway indexed base over `input` plus a private IDB
  /// overlay — and thread-safe: the shared Universe interns with
  /// synchronization, so one PreparedProgram may run from any number of
  /// threads concurrently. To index an input once and reuse it across
  /// runs, see Database/Session in database.h.
  Result<Instance> Run(const Instance& input, const RunOptions& opts = {},
                       EvalStats* stats = nullptr) const;

  /// Result of RunDelta: the complete derived IDB at the post-update
  /// epoch and the DRed deletion bookkeeping the view subsystem folds
  /// into its stored support counts.
  struct DeltaRun {
    Instance idb;
    /// Support decrements the deletion phase applied, per stored tuple
    /// (empty when the delta removes nothing and adds nothing to a
    /// negated relation). The view subsystem combines these with the
    /// carried-over counts: new = old + fresh - decrements, saturating,
    /// floored at 1 for tuples present in `idb`.
    SupportCounts decrements;
  };

  /// Incremental maintenance: given the stored derived IDB `view` of an
  /// earlier epoch and the segment stack that changed since, computes the
  /// derived IDB of the current epoch by semi-naive delta evaluation of
  /// the net changes instead of a full fixpoint. `stack` is the complete
  /// current stack; its first `base_prefix` segments are the ones `view`
  /// was computed over (segments publish in stamp order, so a view's
  /// covered base is always a prefix); `view` must be exactly the IDB a
  /// full run over that prefix derives, and `stored_support` (may be
  /// null) its recorded support counts. The result's `idb` is
  /// byte-identical to RunOnStack over the full stack (the differential
  /// harness enforces this at every epoch, across compaction).
  ///
  /// The suffix's net effect is computed fact by fact (a fact appended
  /// then retracted inside the window nets out) into two disjoint change
  /// sets, additions and removals, which grow down the strata by what
  /// each stratum derives or deletes. Per stratum, in order, the stored
  /// view facts are adopted wholesale, then three phases run. A negated
  /// literal `!N` is one more restricted literal: N lives in an earlier
  /// stratum or the EDB, so its change is final by then. The deletion
  /// phase decrements the stored support of every derivation consuming
  /// a removed fact or the absence of a fact N gained, provisionally
  /// deletes tuples whose support reaches zero, and cascades until no
  /// deletion set remains. It enumerates derivations as they stood
  /// before the refresh: removed facts stay enumerable as ghosts, and
  /// negated literals read the old N (the new N minus what it gained,
  /// plus what it lost). The re-derivation phase then rescues deleted
  /// tuples (and retracted EDB facts of this stratum's head relations)
  /// that still have a proof, to a fixpoint. The insertion phase is the
  /// delta pass over the additions and the facts N lost, against the new
  /// store. Each dying derivation is decremented once and each new one
  /// counted once, however many of its literals changed. A tuple deleted
  /// and derived again in one stratum leaves both change sets. Appended
  /// EDB facts that duplicate stored view facts are dropped from the new
  /// view (derived overlays never shadow visible base facts), matching
  /// what a cold run would produce.
  Result<DeltaRun> RunDelta(std::span<const Segment> stack,
                            size_t base_prefix, const Instance& view,
                            const SupportLookup& stored_support,
                            const RunOptions& opts = {},
                            EvalStats* stats = nullptr) const;

  const Program& program() const { return *program_; }
  Universe& universe() const { return *universe_; }
  /// Wall time spent in Engine::Compile for this program.
  double compile_seconds() const { return compile_seconds_; }

  /// Human-readable rendering of the compiled plan: per stratum and rule,
  /// each scheduled step with its chosen access path (whole/first/last
  /// -value key column or full scan), the planner's selectivity estimate
  /// when the program was compiled with statistics, and which scan steps
  /// re-run against semi-naive deltas. `seqdl run --explain` prints this.
  std::string ExplainPlan() const;

 private:
  friend class Engine;
  friend class Session;
  friend class ViewManager;
  friend class internal::Executor;

  struct CompiledStratum {
    std::vector<RulePlan> plans;
    /// Delta-first variants, parallel to `plans`: per rule, one plan per
    /// predicate body literal with that literal's scan scheduled as step
    /// 0 (PlannerOptions::first_lit), keyed by literal index; a negated
    /// literal's step 0 enumerates its relation's change. Every
    /// restricted pass — a cold or maintenance semi-naive round, the
    /// maintenance pass over the changed facts, a DRed deletion round —
    /// runs the variant whose step 0 is the restricted literal, so the
    /// application costs O(|delta|) probes instead of an outer full scan.
    std::vector<std::map<size_t, RulePlan>> delta_plans;
    /// The relations this stratum's rules negate.
    std::set<RelId> negated_rels;
    /// Head-bound variants, parallel to `plans`: each rule planned as if
    /// its head variables were already bound (PlannerOptions::head_bound).
    /// DRed's re-derivation check matches the candidate tuple against the
    /// head and then runs the body under that valuation — these plans key
    /// the body scans on the head's bindings, so a check costs a handful
    /// of index probes instead of opening with a full relation scan.
    std::vector<RulePlan> check_plans;
  };

  /// Evaluates over a segment stack (shared, never mutated — the
  /// epoch-pinned EDB of a Session) and returns only the derived IDB
  /// overlay. Tombstoned facts are invisible: enumeration and membership
  /// follow the newest-occurrence rule (Visible in index.h). The engine
  /// of Session::Run and of Run above (which wraps `input` in a throwaway
  /// one-segment stack and unions the result back).
  Result<Instance> RunOnStack(std::span<const Segment> stack,
                              const RunOptions& opts, EvalStats* stats) const;

  PreparedProgram(Universe& u, std::unique_ptr<const Program> p)
      : universe_(&u), program_(std::move(p)) {}

  Universe* universe_;
  /// Rule plans point into this program, so it lives on the heap and
  /// stays put when the PreparedProgram moves.
  std::unique_ptr<const Program> program_;
  std::vector<CompiledStratum> strata_;
  double compile_seconds_ = 0;
  /// One line per scan step, precomputed by Compile and copied into
  /// EvalStats::plan_decisions on stats-carrying runs.
  std::vector<std::string> plan_decisions_;
};

/// Stateless compiler front end.
class Engine {
 public:
  /// Validates (safety, stratification) and plans `p` against `u`. The
  /// returned PreparedProgram keeps a reference to `u`, which must
  /// outlive it. Database::Compile is this with the database's measured
  /// statistics.
  static Result<PreparedProgram> Compile(Universe& u, Program p,
                                         const CompileOptions& opts = {});
};

}  // namespace seqdl

#endif  // SEQDL_ENGINE_ENGINE_H_
