#include "src/engine/plan.h"

#include <set>
#include <utility>

#include "src/syntax/printer.h"

namespace seqdl {

namespace {

bool ItemIsGround(const ExprItem& item, const std::set<VarId>& bound) {
  switch (item.kind) {
    case ExprItem::Kind::kConst:
      return true;
    case ExprItem::Kind::kAtomVar:
    case ExprItem::Kind::kPathVar:
      return bound.count(item.var) > 0;
    case ExprItem::Kind::kPack: {
      for (VarId v : VarSet(*item.pack)) {
        if (!bound.count(v)) return false;
      }
      return true;
    }
  }
  return false;
}

/// The number of leading and of trailing ground items of `arg`; both are
/// the item count when the whole argument is ground.
std::pair<size_t, size_t> GroundRuns(const PathExpr& arg,
                                     const std::set<VarId>& bound) {
  size_t n = arg.items.size(), leading = 0, trailing = 0;
  while (leading < n && ItemIsGround(arg.items[leading], bound)) ++leading;
  while (trailing < n && ItemIsGround(arg.items[n - 1 - trailing], bound)) {
    ++trailing;
  }
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
  if (opts.head_bound) {
    std::vector<VarId> head_vars;
    for (const PathExpr& e : r.head.args) CollectVars(e, &head_vars);
    bound.insert(head_vars.begin(), head_vars.end());
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
    if (l.is_predicate() && !l.negated) scans.push_back(i);
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
            "first_lit does not name a positive predicate literal: " +
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
    std::vector<VarId> vars;
    CollectVars(r.body[lit], &vars);
    bound.insert(vars.begin(), vars.end());
  }

  // Positive equations: schedule any whose one side is fully bound.
  std::vector<size_t> pending;
  for (size_t i = 0; i < r.body.size(); ++i) {
    const Literal& l = r.body[i];
    if (l.is_equation() && !l.negated) pending.push_back(i);
  }
  while (!pending.empty()) {
    bool progressed = false;
    for (size_t k = 0; k < pending.size(); ++k) {
      const Literal& l = r.body[pending[k]];
      std::set<VarId> lhs = VarSet(l.lhs), rhs = VarSet(l.rhs);
      auto all_bound = [&bound](const std::set<VarId>& vs) {
        for (VarId v : vs) {
          if (!bound.count(v)) return false;
        }
        return true;
      };
      if (all_bound(lhs) || all_bound(rhs)) {
        PlanStep step;
        step.kind = PlanStep::Kind::kEq;
        step.lit_idx = pending[k];
        plan.steps.push_back(std::move(step));
        bound.insert(lhs.begin(), lhs.end());
        bound.insert(rhs.begin(), rhs.end());
        pending.erase(pending.begin() + static_cast<ptrdiff_t>(k));
        progressed = true;
        break;
      }
    }
    if (!progressed) {
      return Status::InvalidArgument("rule is not safe (equations cannot be "
                                     "ordered): " +
                                     FormatRule(u, r));
    }
  }

  // Negated literals last; all their variables must be bound.
  for (size_t i = 0; i < r.body.size(); ++i) {
    const Literal& l = r.body[i];
    if (!l.negated) continue;
    std::vector<VarId> vars;
    CollectVars(l, &vars);
    for (VarId v : vars) {
      if (!bound.count(v)) {
        return Status::InvalidArgument(
            "rule is not safe (negated literal with unbound variable): " +
            FormatRule(u, r));
      }
    }
    PlanStep step;
    step.kind =
        l.is_predicate() ? PlanStep::Kind::kNegPred : PlanStep::Kind::kNegEq;
    step.lit_idx = i;
    plan.steps.push_back(std::move(step));
  }

  // Head variables must be bound.
  std::vector<VarId> head_vars;
  for (const PathExpr& e : r.head.args) CollectVars(e, &head_vars);
  for (VarId v : head_vars) {
    if (!bound.count(v)) {
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
