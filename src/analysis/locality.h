// Shard-locality analysis: decides statically whether a program can be
// evaluated *distribution-transparently* on a hash-partitioned cluster
// (src/cluster/): every shard runs the unmodified program over its EDB
// partition and the union of the per-shard answers equals the single-node
// answer. Programs that fail the analysis still run correctly — the
// coordinator falls back to gathering the relevant EDB and finishing the
// evaluation locally (residual evaluation) — so these findings are about
// *where* work happens, never about answers.
//
// The partitioning model (cluster/partitioner.h): facts are routed by a
// content hash of their first-column value (shared across relations, so
// facts agreeing on the key co-locate), except that
// relations named in LocalityOptions::broadcast are replicated in full on
// every shard. A rule therefore evaluates shard-locally when all the
// partitioned facts it joins are guaranteed co-located, which the pass
// establishes through a co-partitioning invariant: every fact with
// first-column key k (base or derived) is present on the shard owning k.
// EDB relations satisfy it by construction; a derived relation satisfies
// it when each of its rules joins partitioned relations on one shared
// first-column variable and carries that variable into the head's first
// argument (computed as a greatest fixpoint over the program's rules).
//
//   SD200  program is distribution-transparent     note
//   SD201  multi-way join over partitioned         warning
//          relations not keyed on the partition
//          column (first argument)
//   SD202  negation over a partitioned relation    warning
//          is not shard-local
//   SD203  derived relation is not co-partitioned  warning
//          (a defining rule drops the partition
//          key from the head's first argument)
#ifndef SEQDL_ANALYSIS_LOCALITY_H_
#define SEQDL_ANALYSIS_LOCALITY_H_

#include <set>

#include "src/analysis/diagnostics.h"
#include "src/syntax/ast.h"
#include "src/term/universe.h"

namespace seqdl {

struct LocalityOptions {
  /// Relations replicated in full on every shard instead of partitioned
  /// (small dimension tables). Joins against them are always shard-local.
  std::set<RelId> broadcast;
};

enum class LocalityClass : uint8_t {
  /// Every rule evaluates shard-locally: scatter the program, union the
  /// per-shard answers.
  kTransparent = 0,
  /// Some rule needs facts from more than one shard: the coordinator must
  /// gather the EDB and finish the evaluation itself.
  kResidual = 1,
};

struct LocalityReport {
  LocalityClass cls = LocalityClass::kTransparent;
  /// Relations proven co-partitioned (EDB relations by construction,
  /// derived relations by the head-key fixpoint). Broadcast relations are
  /// never members — they are replicated, not partitioned.
  std::set<RelId> co_partitioned;
  /// Number of SD201/SD202/SD203 findings (0 iff transparent).
  size_t violations = 0;
};

/// Classifies `p` against the cluster partitioning model. Appends one
/// SD2xx diagnostic per finding to `diags` (may be null), plus an SD200
/// note when the program is transparent. `p` should already be valid
/// (ValidateProgram) — the pass assumes safe, stratified rules.
LocalityReport AnalyzeLocality(const Universe& u, const Program& p,
                               const LocalityOptions& opts = {},
                               DiagnosticList* diags = nullptr);

}  // namespace seqdl

#endif  // SEQDL_ANALYSIS_LOCALITY_H_
