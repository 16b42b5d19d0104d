// Store statistics: measured per-(relation, column, index-family) bucket
// shapes, the input of the selectivity-aware planner (plan.h).
//
// For every (relation, column) pair the engine maintains three hash index
// families (whole-value, first-value, last-value — see index_family.h).
// The cost of answering a scan step through one of them is the size of the
// probed bucket, so the planner ranks candidate access paths by each family's
// *mean bucket size*: a near-constant column has one huge bucket (mean ≈
// relation size, probing it is as bad as a full scan), a high-cardinality
// key column has singleton buckets (mean ≈ 1). StoreStats carries those
// measurements; ComputeInstanceStats measures any instance,
// IndexedStore::Stats() measures a store once, and Database::Stats()
// merges the measurements of a segment stack. Only stored facts are
// measured: a relation that no segment holds (an IDB relation, say)
// keeps the planner's priors.
//
// Statistics are estimates feeding a cost model, never semantics: every
// access path the planner can pick enumerates a sound overapproximation
// that MatchArgs filters exactly, so plans chosen from stale, merged, or
// absent statistics all produce byte-identical results (enforced by
// tests/differential_test.cc).
#ifndef SEQDL_ENGINE_STATS_H_
#define SEQDL_ENGINE_STATS_H_

#include <cstddef>
#include <map>
#include <string>
#include <vector>

#include "src/engine/index_family.h"
#include "src/engine/instance.h"
#include "src/term/universe.h"

namespace seqdl {

/// Bucket shape of one index family of one (relation, column) pair.
struct FamilyStats {
  /// Number of distinct keys (= buckets).
  size_t buckets = 0;
  /// Total indexed tuples. For first/last-value families, tuples whose
  /// column holds the empty path are not indexed and do not count.
  size_t entries = 0;
  /// Largest single bucket.
  size_t max_bucket = 0;

  /// Expected tuples per probe: entries / buckets (0 when empty).
  double MeanBucket() const {
    return buckets == 0 ? 0.0
                        : static_cast<double>(entries) /
                              static_cast<double>(buckets);
  }

  void MergeFrom(const FamilyStats& other) {
    // Summing bucket counts overcounts keys shared between the merged
    // stores; the result is an estimate (an upper bound on distinct keys),
    // which is all the cost model needs.
    buckets += other.buckets;
    entries += other.entries;
    if (other.max_bucket > max_bucket) max_bucket = other.max_bucket;
  }
};

/// All three index families of one column.
using ColumnStats = FamilyArray<FamilyStats>;

/// One relation: tuple count plus per-column family stats.
struct RelationStats {
  size_t tuples = 0;
  std::vector<ColumnStats> columns;
};

/// Measured statistics for a whole store, keyed by relation. The planner's
/// Estimate accessors fall back to fixed priors for relations the stats
/// never saw (typically IDB relations, whose contents only exist at run
/// time): a whole-value probe is assumed near-selective, prefix/suffix
/// probes somewhat less, and a full scan expensive — which reproduces the
/// legacy whole > prefix/suffix > full preference in the absence of data.
struct StoreStats {
  std::map<RelId, RelationStats> relations;

  /// Priors for relations absent from `relations`.
  static constexpr double kUnknownWhole = 1.0;
  static constexpr double kUnknownFirstLast = 8.0;
  static constexpr double kUnknownScan = 256.0;

  /// Expected tuples enumerated by a `family` probe of (rel, col);
  /// `family` is not kNone (EstimateScan prices the full scan).
  double Estimate(RelId rel, uint32_t col, IndexFamily family) const;
  /// Expected tuples enumerated by a full scan of `rel`.
  double EstimateScan(RelId rel) const;

  /// True iff `rel` was measured (estimates are data, not priors).
  bool Knows(RelId rel) const { return relations.count(rel) > 0; }

  size_t NumRelations() const { return relations.size(); }

  /// Folds `other` into this by summing (see FamilyStats::MergeFrom for
  /// the bucket overcount caveat). Used by Database::Stats() to combine
  /// the fact segments' measurements — disjoint fact sets, so summing is
  /// the right estimate.
  void MergeFrom(const StoreStats& other);

  /// Subtracts `other`'s counters from this, flooring at zero (relations
  /// that discount to zero tuples are dropped). Used by Database::Stats()
  /// to discount tombstone segments: each tombstoned fact was measured
  /// exactly once in an older fact segment, so tuple counts come out
  /// exact and the bucket shapes stay sane estimates. Without this a
  /// retraction epoch would be invisible to StatsDrift and cached plans
  /// would keep ranking access paths off stale, larger buckets.
  void DiscountFrom(const StoreStats& other);

  /// Deterministic multi-line rendering, one row per (relation, column,
  /// family): "R  col 0  whole  buckets=12 entries=30 mean=2.5 max=4".
  std::string ToString(const Universe& u) const;

 private:
  const ColumnStats* Find(RelId rel, uint32_t col) const;
};

/// Measures `inst` in one pass: per (relation, column), the bucket shape
/// each of the three index families would have. Pure computation over an
/// instance the caller keeps alive; never builds or touches real indexes.
StoreStats ComputeInstanceStats(const Universe& u, const Instance& inst);

/// Relative drift between two measurements: the largest per-relation
/// relative change in tuple count over the union of their relations
/// (a relation present on one side only counts as drift 1). 0 = same
/// shape; >= `threshold` is the serve loop's cue to recompile cached
/// programs against fresh statistics.
double StatsDrift(const StoreStats& before, const StoreStats& after);

}  // namespace seqdl

#endif  // SEQDL_ENGINE_STATS_H_
