// Matching path expressions against ground paths: enumerate all valuations
// ν extending a partial valuation such that ν(e) = p. This is the engine's
// core pattern-matching primitive (one side ground — unlike the general
// associative unification of unify/, which handles two symbolic sides).
//
// Interning contract: while it enumerates, the matcher binds variables to
// spans of the ground path and interns nothing; only the bindings of a
// completed match reach the Universe, right before the callback runs. The
// Universe's path store never shrinks, so a candidate split that fails
// must not leave a path behind.
#ifndef SEQDL_ENGINE_MATCH_H_
#define SEQDL_ENGINE_MATCH_H_

#include <functional>
#include <span>
#include <unordered_map>

#include "src/base/status.h"
#include "src/syntax/ast.h"
#include "src/term/universe.h"

namespace seqdl {

/// A (partial) assignment of variables to paths. Atomic variables always
/// bind to a singleton path holding an atomic value.
class Valuation {
 public:
  bool IsBound(VarId v) const { return bindings_.count(v) > 0; }
  /// Requires IsBound(v).
  PathId Get(VarId v) const { return bindings_.at(v); }
  void Bind(VarId v, PathId p) { bindings_[v] = p; }
  void Unbind(VarId v) { bindings_.erase(v); }
  size_t size() const { return bindings_.size(); }
  const std::unordered_map<VarId, PathId>& bindings() const {
    return bindings_;
  }

 private:
  std::unordered_map<VarId, PathId> bindings_;
};

/// Evaluates `e` under `v`; error if a variable of `e` is unbound.
Result<PathId> EvalExpr(Universe& u, const PathExpr& e, const Valuation& v);

/// True iff all variables of `e` are bound in `v`.
bool AllVarsBound(const PathExpr& e, const Valuation& v);

/// Enumerates every extension ν of `base` with ν(e) = p, splits shortest
/// first. Calls `cb` for each; if cb returns false, enumeration stops.
/// Returns false if stopped. `base` is as it was on return.
bool MatchExpr(Universe& u, const PathExpr& e, PathId p, Valuation& base,
               const std::function<bool(Valuation&)>& cb);

/// Matches a sequence of expressions against a tuple of paths
/// (componentwise, in argument order); used for predicate-vs-fact
/// matching. A match is complete, and interned, only once every argument
/// has matched.
bool MatchArgs(Universe& u, const std::vector<PathExpr>& args,
               std::span<const PathId> tuple, Valuation& base,
               const std::function<bool(Valuation&)>& cb);

}  // namespace seqdl

#endif  // SEQDL_ENGINE_MATCH_H_
