#include "src/engine/plan.h"

#include <set>
#include <utility>

#include "src/analysis/safety.h"
#include "src/syntax/printer.h"

namespace seqdl {

namespace {

/// The number of leading and of trailing ground items of `arg`; both are
/// the item count when the whole argument is ground.
std::pair<size_t, size_t> GroundRuns(const PathExpr& arg,
                                     const std::set<VarId>& bound) {
  auto ground = [&bound](const ExprItem& item) {
    return FoldItem(item, [&bound](const ExprItem& it, size_t) {
      return !it.is_var() || bound.count(it.var) > 0;
    });
  };
  size_t n = arg.items.size(), leading = 0, trailing = 0;
  while (leading < n && ground(arg.items[leading])) ++leading;
  while (trailing < n && ground(arg.items[n - 1 - trailing])) ++trailing;
  return {leading, trailing};
}

/// Points `step` at `family`'s index on argument `arg`, whose key the
/// executor reads off the argument's `run` leading (kFirst) or trailing
/// (kLast) ground items.
void SetKey(const Predicate& pred, IndexFamily family, size_t arg, size_t run,
            PlanStep* step) {
  step->family = family;
  step->key_arg = static_cast<uint32_t>(arg);
  const std::vector<ExprItem>& items = pred.args[arg].items;
  auto len = static_cast<ptrdiff_t>(run);
  if (family == IndexFamily::kFirst) {
    step->key_expr = PathExpr(
        std::vector<ExprItem>(items.begin(), items.begin() + len));
  } else if (family == IndexFamily::kLast) {
    step->key_expr =
        PathExpr(std::vector<ExprItem>(items.end() - len, items.end()));
  }
}

/// Legacy heuristic: the first fully ground argument wins (whole-value
/// probe); failing that, the argument with the longest non-empty leading
/// or trailing run of ground items (first/last-value probe), the longer
/// run winning and prefix winning ties.
void ChooseAccessLegacy(const Predicate& pred, const std::set<VarId>& bound,
                        PlanStep* step) {
  size_t first_arg = 0, first_len = 0, last_arg = 0, last_len = 0;
  for (size_t i = 0; i < pred.args.size(); ++i) {
    auto [leading, trailing] = GroundRuns(pred.args[i], bound);
    if (leading == pred.args[i].items.size()) {
      return SetKey(pred, IndexFamily::kWhole, i, leading, step);
    }
    if (leading > first_len) {
      first_arg = i;
      first_len = leading;
    }
    if (trailing > last_len) {
      last_arg = i;
      last_len = trailing;
    }
  }
  if (first_len == 0 && last_len == 0) return;
  if (first_len >= last_len) {
    SetKey(pred, IndexFamily::kFirst, first_arg, first_len, step);
  } else {
    SetKey(pred, IndexFamily::kLast, last_arg, last_len, step);
  }
}

/// Selectivity-aware model: rank every candidate access path — a
/// whole-value probe per fully ground argument, a first/last-value probe
/// per argument with a non-empty ground prefix/suffix run, and the full
/// scan — by its measured expected bucket size, smallest first. Ties go to
/// the exacter family (enum order), then the lower argument position,
/// keeping plans deterministic and pinned by tests/planner_test.cc.
void ChooseAccessStats(const Predicate& pred, const std::set<VarId>& bound,
                       const StoreStats& stats, PlanStep* step) {
  IndexFamily best = IndexFamily::kNone;
  size_t best_arg = 0, best_run = 0;
  double best_est = stats.EstimateScan(pred.rel);
  auto consider = [&](IndexFamily family, size_t arg, size_t run) {
    double est = stats.Estimate(pred.rel, static_cast<uint32_t>(arg), family);
    if (est < best_est || (est == best_est && family < best)) {
      best = family;
      best_arg = arg;
      best_run = run;
      best_est = est;
    }
  };
  for (size_t i = 0; i < pred.args.size(); ++i) {
    auto [leading, trailing] = GroundRuns(pred.args[i], bound);
    if (leading == pred.args[i].items.size()) {
      consider(IndexFamily::kWhole, i, leading);
      continue;
    }
    if (leading > 0) consider(IndexFamily::kFirst, i, leading);
    if (trailing > 0) consider(IndexFamily::kLast, i, trailing);
  }
  if (best != IndexFamily::kNone) SetKey(pred, best, best_arg, best_run, step);
  step->est_cost = best_est;
  step->stats_chosen = stats.Knows(pred.rel);
}

}  // namespace

Result<RulePlan> PlanRule(const Universe& u, const Rule& r,
                          const PlannerOptions& opts) {
  RulePlan plan;
  plan.rule = &r;
  std::set<VarId> bound;
  auto bind = [&bound](const PathExpr& e) {
    ForEachVar(e, [&bound](VarId v) { bound.insert(v); });
  };
  auto all_bound = [&bound](const PathExpr& e) {
    return ForEachVar(e, [&bound](VarId v) { return bound.count(v) > 0; });
  };
  if (opts.head_bound) {
    for (const PathExpr& e : r.head.args) bind(e);
  }

  // Positive predicate scans. With reordering, greedily pick the cheapest
  // next scan: by measured expected bucket size of its best access path
  // when statistics are present, else by most variables shared with the
  // already-bound set (the classic join-ordering heuristic that turns
  // cartesian products into keyed joins). Without reordering, keep body
  // order.
  std::vector<size_t> scans;
  for (size_t i = 0; i < r.body.size(); ++i) {
    const Literal& l = r.body[i];
    // A negated literal is scanned only when forced first: the restricted
    // pass then enumerates its relation's change, the scan binds its
    // variables for the rest of the body, and it needs no check step.
    bool forced = static_cast<int>(i) == opts.first_lit;
    if (l.is_predicate() && (!l.negated || forced)) scans.push_back(i);
  }
  bool forced_pending = opts.first_lit >= 0;
  while (!scans.empty()) {
    size_t pick = 0;
    // Stats-mode ordering chooses each candidate's access path anyway;
    // the winner's step is kept.
    PlanStep step;
    bool have_step = false;
    if (forced_pending) {
      forced_pending = false;
      bool found = false;
      for (size_t k = 0; k < scans.size(); ++k) {
        if (scans[k] == static_cast<size_t>(opts.first_lit)) {
          pick = k;
          found = true;
          break;
        }
      }
      if (!found) {
        return Status::InvalidArgument(
            "first_lit does not name a predicate literal: " +
            FormatRule(u, r));
      }
    } else if (opts.reorder_scans && scans.size() > 1) {
      auto shared_vars = [&](size_t lit) {
        std::vector<VarId> vars;
        CollectVars(r.body[lit], &vars);
        int shared = 0;
        for (VarId v : vars) shared += bound.count(v) ? 1 : 0;
        return shared;
      };
      if (opts.stats == nullptr) {
        int best_shared = -1;
        for (size_t k = 0; k < scans.size(); ++k) {
          int shared = shared_vars(scans[k]);
          if (shared > best_shared) {
            best_shared = shared;
            pick = k;
          }
        }
      } else {
        // Cheapest estimated access first; ties broken by most shared
        // bound variables, then body order (strict improvement required,
        // so the first candidate wins all-equal ties).
        int best_shared = -1;
        for (size_t k = 0; k < scans.size(); ++k) {
          PlanStep cand;
          ChooseAccessStats(r.body[scans[k]].pred, bound, *opts.stats, &cand);
          int shared = shared_vars(scans[k]);
          if (best_shared < 0 || cand.est_cost < step.est_cost ||
              (cand.est_cost == step.est_cost && shared > best_shared)) {
            best_shared = shared;
            pick = k;
            step = std::move(cand);
            have_step = true;
          }
        }
      }
    }
    size_t lit = scans[pick];
    scans.erase(scans.begin() + static_cast<ptrdiff_t>(pick));
    if (!have_step) {
      const Predicate& pred = r.body[lit].pred;
      if (opts.stats == nullptr) {
        ChooseAccessLegacy(pred, bound, &step);
      } else {
        ChooseAccessStats(pred, bound, *opts.stats, &step);
      }
    }
    step.kind = PlanStep::Kind::kScan;
    step.lit_idx = lit;
    plan.steps.push_back(std::move(step));
    ForEachExpr(r.body[lit], bind);
  }

  // Positive equations, in the safety schedule's order. The scans have
  // bound every positive predicate's variables by now.
  EquationSchedule eqs = ScheduleEquations(r, std::move(bound));
  if (!eqs.complete) {
    return Status::InvalidArgument("rule is not safe (equations cannot be "
                                   "ordered): " +
                                   FormatRule(u, r));
  }
  for (const EquationStep& eq : eqs.steps) {
    PlanStep step;
    step.kind = PlanStep::Kind::kEq;
    step.lit_idx = eq.lit_idx;
    plan.steps.push_back(std::move(step));
  }
  bound = std::move(eqs.bound);

  // Negated literals last; all their variables must be bound.
  for (size_t i = 0; i < r.body.size(); ++i) {
    const Literal& l = r.body[i];
    if (!l.negated || static_cast<int>(i) == opts.first_lit) continue;
    bool ground = true;
    ForEachExpr(l, [&](const PathExpr& e) { ground = ground && all_bound(e); });
    if (!ground) {
      return Status::InvalidArgument(
          "rule is not safe (negated literal with unbound variable): " +
          FormatRule(u, r));
    }
    PlanStep step;
    step.kind =
        l.is_predicate() ? PlanStep::Kind::kNegPred : PlanStep::Kind::kNegEq;
    step.lit_idx = i;
    plan.steps.push_back(std::move(step));
  }

  // Head variables must be bound.
  for (const PathExpr& e : r.head.args) {
    if (!all_bound(e)) {
      return Status::InvalidArgument(
          "rule is not safe (head variable unbound): " + FormatRule(u, r));
    }
  }
  return plan;
}

Result<RulePlan> PlanRule(const Universe& u, const Rule& r,
                          bool reorder_scans) {
  PlannerOptions opts;
  opts.reorder_scans = reorder_scans;
  return PlanRule(u, r, opts);
}

}  // namespace seqdl
