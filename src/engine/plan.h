// Rule planning: turning a rule body into an executable step sequence.
//
// A plan schedules the positive predicate scans first (optionally greedily
// reordered so each scan joins on already-bound variables), then the
// positive equations in the order of the safety schedule
// (ScheduleEquations, analysis/safety.h), then the negated literals (whose
// variables are all bound by that point). Planning also
// picks, per scan, the *access path* the executor uses instead of a full
// relation scan: an IndexFamily (index_family.h) and the argument whose
// key it probes — a whole-value probe on a fully ground argument
// position, or a first/last-value probe on an argument with a ground
// prefix/suffix run.
//
// Two cost models choose among the candidates:
//
//   * the legacy heuristic (PlannerOptions::stats == nullptr): first fully
//     ground argument wins, else the longest ground prefix/suffix run;
//     scans ordered by most shared already-bound variables;
//   * the selectivity-aware model (stats != nullptr): every candidate is
//     ranked by its *measured expected bucket size* (StoreStats, stats.h)
//     — a whole-value probe on a near-constant column loses to a
//     first-value probe on a discriminating one, and scans are ordered by
//     cheapest estimated access. PlanStep::est_cost records the estimate.
//
// Both models pick among sound access paths only, so they differ in cost,
// never in results (tests/differential_test.cc enforces this).
//
// Planning happens once per rule at Engine::Compile time; plans are
// immutable afterwards and shared by every PreparedProgram::Run.
#ifndef SEQDL_ENGINE_PLAN_H_
#define SEQDL_ENGINE_PLAN_H_

#include <cstddef>
#include <vector>

#include "src/base/status.h"
#include "src/engine/index_family.h"
#include "src/engine/stats.h"
#include "src/syntax/ast.h"
#include "src/term/universe.h"

namespace seqdl {

/// One scheduled step of a rule body.
struct PlanStep {
  enum class Kind : uint8_t { kScan, kEq, kNegPred, kNegEq };

  Kind kind = Kind::kScan;
  /// Index of the literal in the rule body this step executes.
  size_t lit_idx = 0;
  /// kScan only: the index family the step probes, or kNone for a full
  /// relation scan.
  IndexFamily family = IndexFamily::kNone;
  /// The argument position whose key the step probes (unless kNone).
  /// kWhole: every variable of the argument is bound before this step
  /// runs, so it evaluates to a ground path, the key. kFirst/kLast: the
  /// argument starts/ends with a non-empty run of ground items; at
  /// runtime the run evaluates to a ground path whose first/last value
  /// keys the probe (a matching tuple must start/end with it). A run that
  /// evaluates to eps constrains nothing, and the step scans everything.
  uint32_t key_arg = 0;
  /// kFirst/kLast: the ground leading/trailing items of args[key_arg],
  /// precomputed so the executor evaluates them without rebuilding the
  /// expression. Empty otherwise.
  PathExpr key_expr;
  /// kScan only: the planner's estimate of how many tuples this step
  /// enumerates per probe (mean bucket size of the chosen index family,
  /// or the relation size for a full scan). Negative when the plan was
  /// built without statistics.
  double est_cost = -1.0;
  /// kScan only: true when measured statistics (not the legacy heuristic
  /// or an unknown-relation prior) selected this access path.
  bool stats_chosen = false;
};

/// A rule with a precomputed evaluation order.
struct RulePlan {
  /// The planned rule. Not owned; points into the Program held by the
  /// PreparedProgram (or whatever outlives the plan).
  const Rule* rule = nullptr;
  std::vector<PlanStep> steps;
  /// Indices into `steps` of scans over same-stratum IDB relations,
  /// filled in by the compiler (PlanRule leaves it empty): the literals
  /// semi-naive rounds restrict to their deltas, through the rule's
  /// delta-first variants. ExplainPlan tags them [delta].
  std::vector<size_t> recursive_scan_steps;
};

/// How PlanRule chooses access paths and scan order.
struct PlannerOptions {
  /// Greedily reorder positive body scans; false = keep body order.
  bool reorder_scans = true;
  /// Measured store statistics ranking candidate access paths and scan
  /// order by expected bucket size. nullptr = legacy heuristics (first
  /// fully ground argument wins, longest prefix/suffix run, most shared
  /// bound variables). Only read during the PlanRule call.
  const StoreStats* stats = nullptr;
  /// When >= 0, the scan of this body literal is scheduled first (the
  /// remaining scans are ordered as usual). The compiler plans one such
  /// variant per predicate literal, and every semi-naive restriction runs
  /// them: restricting a scan to a small changed set only pays off when
  /// that scan is the outermost loop — anywhere deeper, the steps before
  /// it still enumerate the full store. A negated literal named here
  /// becomes a kScan step 0 (the executor enumerates its relation's
  /// change) and gets no check step.
  int first_lit = -1;
  /// Plan as if the head's variables were already bound when the body
  /// starts. Re-derivation checks (DRed) match a candidate tuple against
  /// the head first and then run the body under that valuation — with
  /// the head variables seeded, the planner keys the body scans on them
  /// (index/prefix probes) instead of opening with a full relation scan.
  bool head_bound = false;
};

/// Plans a single rule. Fails with kInvalidArgument if the rule is unsafe
/// (equations cannot be ordered, a negated literal or the head would see
/// an unbound variable).
Result<RulePlan> PlanRule(const Universe& u, const Rule& r,
                          const PlannerOptions& opts);

/// Legacy-heuristic convenience overload (no statistics).
Result<RulePlan> PlanRule(const Universe& u, const Rule& r,
                          bool reorder_scans);

}  // namespace seqdl

#endif  // SEQDL_ENGINE_PLAN_H_
