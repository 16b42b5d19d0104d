// Safety (limited variables, paper §2.2) and whole-program validation.
//
// The limited variables of a rule are the smallest set such that
//   1. every variable occurring in a positive predicate in the body is
//      limited; and
//   2. if all variables occurring in one side of a positive equation in the
//      body are limited, then so are all variables of the other side.
// A rule is safe iff all its variables are limited. A program is valid iff
// all rules are safe and negation is stratified w.r.t. the declared strata.
//
// ScheduleEquations computes that closure once, as the order in which the
// positive equations can be solved: the planner runs the equation steps in
// this order, equation elimination peels equations off its end, and
// validation reads the limited variables off its bound set.
#ifndef SEQDL_ANALYSIS_SAFETY_H_
#define SEQDL_ANALYSIS_SAFETY_H_

#include <cstddef>
#include <set>
#include <vector>

#include "src/analysis/diagnostics.h"
#include "src/base/status.h"
#include "src/syntax/ast.h"
#include "src/term/universe.h"

namespace seqdl {

/// The variables of the positive body predicates of `r`: the ones bound
/// before its equations. (The planner also binds the head's variables
/// first under PlannerOptions::head_bound.)
std::set<VarId> PredicateVars(const Rule& r);

/// One positive equation of a rule, in schedule order.
struct EquationStep {
  /// The equation's index in the rule body.
  size_t lit_idx = 0;
  /// True iff every variable of the left side was bound before this step
  /// (else the right side's were).
  bool lhs_bound = false;
};

struct EquationSchedule {
  std::vector<EquationStep> steps;
  /// The variables bound after the steps.
  std::set<VarId> bound;
  /// True iff every positive equation of the rule has a step.
  bool complete = false;
};

/// Starting from the variables in `bound`, repeatedly takes the first
/// pending positive equation (in body order) with one side fully bound,
/// binds both of its sides, and starts over, until none is left or none
/// qualifies. From PredicateVars(r), the final bound set is the rule's
/// limited variables.
EquationSchedule ScheduleEquations(const Rule& r, std::set<VarId> bound);

/// True iff all variables of `r` are limited.
bool IsSafeRule(const Rule& r);

/// OK iff every rule is safe, negation is stratified w.r.t. the declared
/// strata (a relation negated in stratum i must not be an IDB head in
/// stratum i or later), and no IDB relation of a stratum is re-defined in a
/// later stratum.
Status ValidateProgram(const Universe& u, const Program& p);

/// As above, but reports *every* violation (not just the first) as a
/// structured diagnostic with the offending rule's source span:
///   SD010 unsafe rule (lists the unlimited variables)
///   SD011 negation not stratified
///   SD012 relation redefined in a later stratum
///   SD013 relation used before its definition
/// Returns the first error as a Status (OK iff the program is valid).
Status ValidateProgram(const Universe& u, const Program& p,
                       DiagnosticList* diags);

}  // namespace seqdl

#endif  // SEQDL_ANALYSIS_SAFETY_H_
