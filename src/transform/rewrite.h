// Shared utilities for the program transformations of Section 4.
#ifndef SEQDL_TRANSFORM_REWRITE_H_
#define SEQDL_TRANSFORM_REWRITE_H_

#include <map>
#include <vector>

#include "src/base/status.h"
#include "src/syntax/ast.h"
#include "src/term/universe.h"

namespace seqdl {

/// Renames relation occurrences (heads and bodies) according to `mapping`;
/// relations not in the map are unchanged.
Rule RenameRels(const Rule& r, const std::map<RelId, RelId>& mapping);

/// Renames every variable of `r` to a fresh one (alpha-renaming), so the
/// rule can be inlined into another without capture.
Rule FreshenVars(Universe& u, const Rule& r);

/// Variable expressions for a list of variables.
std::vector<PathExpr> VarExprs(const Universe& u,
                               const std::vector<VarId>& vars);

}  // namespace seqdl

#endif  // SEQDL_TRANSFORM_REWRITE_H_
