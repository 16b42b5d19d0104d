#include "src/transform/normal_form.h"

#include <map>

#include "src/analysis/dependency_graph.h"
#include "src/syntax/printer.h"
#include "src/transform/rewrite.h"

namespace seqdl {

namespace {

// True iff the predicate's arguments are distinct single-variable items.
bool ArgsAreDistinctVars(const Predicate& p, bool path_only) {
  std::set<VarId> seen;
  for (const PathExpr& e : p.args) {
    if (e.items.size() != 1 || !e.items[0].is_var()) return false;
    if (path_only && e.items[0].kind != ExprItem::Kind::kPathVar) return false;
    if (!seen.insert(e.items[0].var).second) return false;
  }
  return true;
}

std::vector<VarId> ArgVars(const Predicate& p) {
  std::vector<VarId> out;
  for (const PathExpr& e : p.args) out.push_back(e.items[0].var);
  return out;
}

// Normalizes a single rule; the produced rules are appended to *out.
class RuleNormalizer {
 public:
  RuleNormalizer(Universe& u, std::vector<Rule>* out) : u_(u), out_(out) {}

  Status Run(const Rule& r) {
    // Ground facts are already form 6.
    if (r.body.empty()) {
      for (const PathExpr& e : r.head.args) {
        if (!e.IsGround()) {
          return Status::InvalidArgument("fact with variables: " +
                                         FormatRule(u_, r));
        }
      }
      out_->push_back(r);
      return Status::OK();
    }

    // Replacement of atomic variables by fresh path variables (applied to
    // the main rule; the form-1 extraction rules keep the originals).
    ExprSubst devar;
    {
      std::vector<VarId> vars;
      CollectVars(r, &vars);
      for (VarId v : vars) {
        if (u_.VarKindOf(v) == VarKind::kAtomic) {
          devar[v] = VarExpr(u_, u_.FreshVar(VarKind::kPath, u_.VarName(v)));
        }
      }
    }

    // --- Step 1.1: extract each positive atom through a form-1 rule. ---
    std::vector<Predicate> positive_calls;  // calls in the main rule
    std::vector<Literal> negated;           // remaining negated literals
    for (const Literal& l : r.body) {
      if (l.negated) {
        negated.push_back(SubstituteLiteral(l, devar));
        continue;
      }
      std::vector<VarId> vars;
      CollectVars(l, &vars);
      if (!vars.empty()) {
        Rule extract;  // H(vars) <- P(e1, ..., em): form 1
        extract.head.rel = u_.FreshRel("H", static_cast<uint32_t>(vars.size()));
        extract.head.args = VarExprs(u_, vars);
        extract.body.push_back(l);
        out_->push_back(std::move(extract));

        Predicate call;
        call.rel = out_->back().head.rel;
        for (VarId v : vars) {
          call.args.push_back(SubstituteExpr(VarExpr(u_, v), devar));
        }
        positive_calls.push_back(std::move(call));
      } else {
        // Variable-free atom: H' <- P(...); H(a) <- H'.
        Rule check;  // form 1 with n = 0
        check.head.rel = u_.FreshRel("H0", 0);
        check.body.push_back(l);
        RelId h0 = check.head.rel;
        out_->push_back(std::move(check));

        Rule lift;  // form 2 with n = 0
        lift.head.rel = u_.FreshRel("H", 1);
        lift.head.args.push_back(ConstExpr(Value::Atom(u_.InternAtom("a"))));
        Predicate body0;
        body0.rel = h0;
        lift.body.push_back(Literal::Pred(std::move(body0)));
        RelId h = lift.head.rel;
        out_->push_back(std::move(lift));

        Predicate call;
        call.rel = h;
        call.args.push_back(
            VarExpr(u_, u_.FreshVar(VarKind::kPath, "v")));
        positive_calls.push_back(std::move(call));
      }
    }

    // --- Step 1.2: ensure at least one positive atom, then join pairwise.
    if (positive_calls.empty()) {
      Rule fact;  // form 6
      fact.head.rel = u_.FreshRel("One", 1);
      fact.head.args.push_back(ConstExpr(Value::Atom(u_.InternAtom("a"))));
      RelId one = fact.head.rel;
      out_->push_back(std::move(fact));
      Predicate call;
      call.rel = one;
      call.args.push_back(VarExpr(u_, u_.FreshVar(VarKind::kPath, "v")));
      positive_calls.push_back(std::move(call));
    }
    while (positive_calls.size() > 1) {
      Predicate a = positive_calls.back();
      positive_calls.pop_back();
      Predicate b = positive_calls.back();
      positive_calls.pop_back();
      std::vector<VarId> joined = ArgVars(a);
      for (VarId v : ArgVars(b)) {
        if (std::find(joined.begin(), joined.end(), v) == joined.end()) {
          joined.push_back(v);
        }
      }
      Rule join;  // form 3
      join.head.rel = u_.FreshRel("J", static_cast<uint32_t>(joined.size()));
      join.head.args = VarExprs(u_, joined);
      join.body.push_back(Literal::Pred(a));
      join.body.push_back(Literal::Pred(b));
      Predicate call = join.head;
      out_->push_back(std::move(join));
      positive_calls.push_back(std::move(call));
    }
    Predicate current = positive_calls[0];
    std::vector<VarId> vs = ArgVars(current);

    // --- Steps 2 & 3: one antijoin chain per negated literal, then join
    // the HN's back together.
    if (!negated.empty()) {
      std::vector<Predicate> hn_calls;
      for (const Literal& neg : negated) {
        SEQDL_ASSIGN_OR_RETURN(Predicate hn,
                               EmitAntijoin(current, vs, neg));
        hn_calls.push_back(std::move(hn));
      }
      while (hn_calls.size() > 1) {
        Predicate a = hn_calls.back();
        hn_calls.pop_back();
        Predicate b = hn_calls.back();
        hn_calls.pop_back();
        Rule join;  // form 3 (same variable list on both sides)
        join.head.rel = u_.FreshRel("HN", static_cast<uint32_t>(vs.size()));
        join.head.args = VarExprs(u_, vs);
        join.body.push_back(Literal::Pred(a));
        join.body.push_back(Literal::Pred(b));
        Predicate call = join.head;
        out_->push_back(std::move(join));
        hn_calls.push_back(std::move(call));
      }
      current = hn_calls[0];
    }

    // --- Step 4: build the head expressions through a form-2 chain. ---
    Predicate head = r.head;
    for (PathExpr& e : head.args) e = SubstituteExpr(e, devar);
    EmitExprChain(current, vs, head.args, head.rel);
    return Status::OK();
  }

 private:
  // Steps 3.1 + 3.2 for one negated predicate ¬N(e1, ..., em); returns the
  // HN(vs) call for the main rule.
  Result<Predicate> EmitAntijoin(const Predicate& current,
                                 const std::vector<VarId>& vs,
                                 const Literal& neg) {
    if (!neg.is_predicate()) {
      return Status::FailedPrecondition(
          "ToNormalForm requires an equation-free program");
    }
    // Chain N1..Nm accumulating the negated expressions as fresh columns.
    Predicate feed = current;
    std::vector<VarId> primes;
    for (const PathExpr& e : neg.pred.args) {
      std::vector<VarId> cols = ArgVars(feed);
      Rule step;  // form 2
      step.head.rel = u_.FreshRel("N", static_cast<uint32_t>(cols.size() + 1));
      step.head.args = VarExprs(u_, cols);
      step.head.args.push_back(e);
      step.body.push_back(Literal::Pred(feed));
      feed = step.head;
      out_->push_back(std::move(step));
      // The freshly added column gets a prime variable name when read back.
      VarId prime = u_.FreshVar(VarKind::kPath, "n");
      primes.push_back(prime);
      feed.args.back() = VarExpr(u_, prime);
    }
    // FN(vs, primes) <- Nm(vs, primes), ¬N(primes): form 4.
    Rule fn;
    fn.head.rel =
        u_.FreshRel("FN", static_cast<uint32_t>(vs.size() + primes.size()));
    fn.head.args = feed.args;
    fn.body.push_back(Literal::Pred(feed));
    Predicate ncall;
    ncall.rel = neg.pred.rel;
    ncall.args = VarExprs(u_, primes);
    fn.body.push_back(Literal::Pred(std::move(ncall), /*negated=*/true));
    Predicate fn_call = fn.head;
    out_->push_back(std::move(fn));

    // HN(vs) <- FN(vs, primes): form 5.
    Rule hn;
    hn.head.rel = u_.FreshRel("HN", static_cast<uint32_t>(vs.size()));
    hn.head.args = VarExprs(u_, vs);
    hn.body.push_back(Literal::Pred(fn_call));
    Predicate hn_call = hn.head;
    out_->push_back(std::move(hn));
    return hn_call;
  }

  // Step 4: T1(vs, e1) <- H(vs); Ti(...); T(v'1, ..., v'm) <- Tm(...).
  void EmitExprChain(const Predicate& current, const std::vector<VarId>& vs,
                     const std::vector<PathExpr>& exprs, RelId target) {
    Predicate feed = current;
    std::vector<VarId> primes;
    for (const PathExpr& e : exprs) {
      std::vector<VarId> cols = ArgVars(feed);
      Rule step;  // form 2
      step.head.rel = u_.FreshRel("T", static_cast<uint32_t>(cols.size() + 1));
      step.head.args = VarExprs(u_, cols);
      step.head.args.push_back(e);
      step.body.push_back(Literal::Pred(feed));
      feed = step.head;
      out_->push_back(std::move(step));
      VarId prime = u_.FreshVar(VarKind::kPath, "t");
      primes.push_back(prime);
      feed.args.back() = VarExpr(u_, prime);
    }
    Rule fin;  // form 5
    fin.head.rel = target;
    fin.head.args = VarExprs(u_, primes);
    fin.body.push_back(Literal::Pred(feed));
    out_->push_back(std::move(fin));
    (void)vs;
  }

  Universe& u_;
  std::vector<Rule>* out_;
};

}  // namespace

Result<Program> ToNormalForm(Universe& u, const Program& p) {
  if (HasCycle(BuildDependencyGraph(p))) {
    return Status::FailedPrecondition("ToNormalForm: program is recursive");
  }
  for (const Rule* r : p.AllRules()) {
    for (const Literal& l : r->body) {
      if (l.is_equation()) {
        return Status::FailedPrecondition(
            "ToNormalForm: program uses equations; eliminate them first "
            "(Theorem 4.7)");
      }
    }
  }
  Program out;
  for (const Stratum& s : p.strata) {
    Stratum ns;
    RuleNormalizer norm(u, &ns.rules);
    for (const Rule& r : s.rules) {
      SEQDL_RETURN_IF_ERROR(norm.Run(r));
    }
    out.strata.push_back(std::move(ns));
  }
  return out;
}

Result<int> NormalFormOf(const Universe& u, const Rule& r) {
  auto error = [&](const std::string& why) {
    return Status::InvalidArgument("rule not in normal form (" + why +
                                   "): " + FormatRule(u, r));
  };

  // Form 6: ground fact.
  if (r.body.empty()) {
    for (const PathExpr& e : r.head.args) {
      if (!e.IsGround()) return error("fact with variables");
    }
    return 6;
  }

  size_t positives = 0, negatives = 0;
  for (const Literal& l : r.body) {
    if (l.is_equation()) return error("equation in body");
    if (l.negated) {
      ++negatives;
    } else {
      ++positives;
    }
  }

  if (positives == 2 && negatives == 0) {  // candidate form 3
    const Predicate& b1 = r.body[0].pred;
    const Predicate& b2 = r.body[1].pred;
    if (!ArgsAreDistinctVars(b1, /*path_only=*/true) ||
        !ArgsAreDistinctVars(b2, /*path_only=*/true)) {
      return error("form 3 requires distinct path variables in bodies");
    }
    if (!ArgsAreDistinctVars(r.head, /*path_only=*/true)) {
      return error("form 3 requires distinct path variables in head");
    }
    std::set<VarId> body_vars;
    for (VarId v : ArgVars(b1)) body_vars.insert(v);
    for (VarId v : ArgVars(b2)) body_vars.insert(v);
    for (VarId v : ArgVars(r.head)) {
      if (!body_vars.count(v)) return error("form 3 head variable not in body");
    }
    return 3;
  }

  if (positives == 1 && negatives == 1) {  // candidate form 4
    const Literal& pos = r.body[0].negated ? r.body[1] : r.body[0];
    const Literal& neg = r.body[0].negated ? r.body[0] : r.body[1];
    if (!ArgsAreDistinctVars(pos.pred, /*path_only=*/true) ||
        !ArgsAreDistinctVars(neg.pred, /*path_only=*/true) ||
        !ArgsAreDistinctVars(r.head, /*path_only=*/true)) {
      return error("form 4 requires distinct path variables");
    }
    if (ArgVars(r.head) != ArgVars(pos.pred)) {
      return error("form 4 head must repeat the positive body");
    }
    std::set<VarId> vset;
    for (VarId v : ArgVars(pos.pred)) vset.insert(v);
    for (VarId v : ArgVars(neg.pred)) {
      if (!vset.count(v)) return error("form 4 negated variable not in body");
    }
    return 4;
  }

  if (positives == 1 && negatives == 0) {
    const Predicate& body = r.body[0].pred;
    // When the body arguments are distinct path variables, prefer the more
    // specific forms 2 and 5 (cheaper to translate than form 1).
    if (ArgsAreDistinctVars(body, /*path_only=*/true)) {
      std::vector<VarId> bv = ArgVars(body);
      std::set<VarId> bset(bv.begin(), bv.end());
      // Form 2: head = body vars in order plus one expression.
      if (r.head.args.size() == bv.size() + 1) {
        bool prefix = true;
        for (size_t i = 0; i < bv.size(); ++i) {
          const PathExpr& e = r.head.args[i];
          prefix &= e.items.size() == 1 && e.items[0].is_var() &&
                    e.items[0].var == bv[i];
        }
        bool last_ok = ForEachVar(r.head.args.back(), [&bset](VarId v) {
          return bset.count(v) > 0;
        });
        if (prefix && last_ok) return 2;
      }
      // Form 5: head = distinct path variables from the body.
      if (ArgsAreDistinctVars(r.head, /*path_only=*/true)) {
        bool all_in = true;
        for (VarId v : ArgVars(r.head)) all_in &= bset.count(v) > 0;
        if (all_in) return 5;
      }
    }
    // Form 1: head of distinct variables, arbitrary body expressions.
    if (ArgsAreDistinctVars(r.head, /*path_only=*/false)) {
      std::vector<VarId> bvars;
      for (const PathExpr& e : body.args) CollectVars(e, &bvars);
      std::set<VarId> bset(bvars.begin(), bvars.end());
      bool all_in = true;
      for (VarId v : ArgVars(r.head)) all_in &= bset.count(v) > 0;
      if (all_in) return 1;
    }
    return error("single-positive-body rule matches no form");
  }

  return error("unsupported body shape");
}

Status ValidateNormalForm(const Universe& u, const Program& p) {
  for (const Rule* r : p.AllRules()) {
    SEQDL_ASSIGN_OR_RETURN(int form, NormalFormOf(u, *r));
    (void)form;
  }
  return Status::OK();
}

}  // namespace seqdl
