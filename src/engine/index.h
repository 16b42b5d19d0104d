// Indexed relation storage for the evaluator.
//
// Three families of per-(relation, column) hash indexes appear throughout:
//
//   * whole-value indexes keyed on the column's PathId, probed when the
//     planner proved an argument position fully ground under the current
//     valuation (PlanStep::index_arg);
//   * first-value indexes keyed on the first Value of the column's path,
//     probed when only a leading prefix of the argument is ground
//     (PlanStep::prefix_arg) — a matching tuple must start with the
//     prefix's first value, so the bucket is a sound overapproximation
//     that the usual MatchArgs pass then filters exactly;
//   * last-value indexes keyed on the last Value of the column's path,
//     probed when only a trailing suffix of the argument is ground
//     (PlanStep::suffix_arg, e.g. `$x ++ a`) — symmetric to first-value.
//
// Either way a full relation scan becomes a bucket probe.
//
// Storage classes:
//
//   * IndexedInstance — a private, mutable store. Indexes build lazily on
//     first probe and are maintained incrementally as facts are derived.
//     Not thread-safe; each run owns its own.
//   * BaseStore — an immutable, shared store over a fixed EDB. Indexes
//     build at most once per (relation, column) under std::call_once and
//     are read-only afterwards, so any number of threads can probe
//     concurrently. Database (database.h) wraps one per segment;
//     PreparedProgram::Run builds a throwaway one per call.
//   * LayeredStore — the copy-on-read view the executor runs on: a stack
//     of shared BaseStore segments underneath (one per committed epoch —
//     see database.h), a private IndexedInstance overlay on top.
//     Derivation only ever mutates the overlay; the base segments are
//     never touched.
//   * DeltaIndexer — per-round view over semi-naive delta sets, indexing a
//     delta set on first probe once it exceeds a size threshold (small
//     deltas stay linear scans).
//
// Bucket entries are pointers into the underlying TupleSet; unordered_set
// guarantees reference stability under insertion, so derivation never
// invalidates them.
#ifndef SEQDL_ENGINE_INDEX_H_
#define SEQDL_ENGINE_INDEX_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <span>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/engine/instance.h"
#include "src/engine/stats.h"
#include "src/term/universe.h"

namespace seqdl {

/// The shared empty bucket returned for missing keys.
const std::vector<const Tuple*>& EmptyBucket();

class IndexedInstance {
 public:
  /// An empty store; usable only after move-assignment from a real one.
  IndexedInstance() = default;
  /// Wraps `base`. `u` resolves paths to their first/last value for the
  /// first/last-value indexes and must outlive the store.
  IndexedInstance(const Universe& u, Instance base)
      : universe_(&u), base_(std::move(base)) {}

  const Instance& instance() const { return base_; }
  /// Releases the underlying instance (indexes become meaningless).
  Instance&& TakeInstance() { return std::move(base_); }

  /// Adds a fact, updating any built indexes of its relation. Returns true
  /// if the fact was new.
  bool Add(RelId rel, Tuple t);

  /// Bulk counterpart of Add: inserts all of `tuples` with capacity
  /// reserved up front. While no index of `rel` has been built yet this
  /// skips the per-fact index-maintenance searches entirely (indexes
  /// built later see the facts anyway — they build from the instance);
  /// once any exists it degrades to per-fact Add. Returns the number of
  /// new facts.
  size_t BulkAdd(RelId rel, const TupleSet& tuples);

  bool Contains(RelId rel, const Tuple& t) const {
    return base_.Contains(rel, t);
  }
  const TupleSet& Tuples(RelId rel) const { return base_.Tuples(rel); }

  /// The tuples of `rel` whose `col`-th component is `key`. Builds the
  /// (rel, col) whole-value index on first use.
  const std::vector<const Tuple*>& Probe(RelId rel, uint32_t col, PathId key);

  /// The tuples of `rel` whose `col`-th component is a non-empty path
  /// starting with `first`. Builds the (rel, col) first-value index on
  /// first use.
  const std::vector<const Tuple*>& ProbeFirst(RelId rel, uint32_t col,
                                              Value first);

  /// The tuples of `rel` whose `col`-th component is a non-empty path
  /// ending with `last`. Builds the (rel, col) last-value index on first
  /// use.
  const std::vector<const Tuple*>& ProbeLast(RelId rel, uint32_t col,
                                             Value last);

  /// Removes a fact, dropping it from every built index of its relation.
  /// Returns true if it was present. The DRed deletion path's overlay
  /// surgery; O(bucket) per built index family.
  bool Remove(RelId rel, const Tuple& t);

  /// Number of distinct (relation, column) indexes built so far.
  size_t NumIndexes() const {
    return indexes_.size() + first_indexes_.size() + last_indexes_.size();
  }

 private:
  struct ColumnIndex {
    std::unordered_map<PathId, std::vector<const Tuple*>> buckets;
  };
  struct ValueIndex {
    std::unordered_map<Value, std::vector<const Tuple*>> buckets;
  };

  const Universe* universe_ = nullptr;
  Instance base_;
  std::map<std::pair<RelId, uint32_t>, ColumnIndex> indexes_;
  std::map<std::pair<RelId, uint32_t>, ValueIndex> first_indexes_;
  std::map<std::pair<RelId, uint32_t>, ValueIndex> last_indexes_;
};

/// An immutable, shareable indexed store over a fixed EDB instance.
///
/// Construction records the relations present (the slot table is fixed
/// from then on); the per-(relation, column) whole/first/last-value
/// indexes build together on the first probe of that column, exactly once
/// across all threads (std::call_once), and are pure reads afterwards.
/// All probe/lookup methods are const and safe to call concurrently.
class BaseStore {
 public:
  BaseStore(const Universe& u, Instance edb);

  const Instance& instance() const { return edb_; }
  /// Releases the underlying instance (the store becomes unusable). Only
  /// for the throwaway store of PreparedProgram::Run, after evaluation.
  Instance&& TakeInstance() { return std::move(edb_); }

  bool Contains(RelId rel, const Tuple& t) const {
    return edb_.Contains(rel, t);
  }
  const TupleSet& Tuples(RelId rel) const { return edb_.Tuples(rel); }

  const std::vector<const Tuple*>& Probe(RelId rel, uint32_t col,
                                         PathId key) const;
  const std::vector<const Tuple*>& ProbeFirst(RelId rel, uint32_t col,
                                              Value first) const;
  const std::vector<const Tuple*>& ProbeLast(RelId rel, uint32_t col,
                                             Value last) const;

  /// Builds every (relation, column) index now instead of on first probe
  /// (Database::OpenOptions::eager_indexes).
  void BuildAllIndexes() const;

  /// Number of (relation, column) columns whose indexes have been built.
  size_t NumIndexedColumns() const;

  /// Measured per-(relation, column, family) bucket statistics of the
  /// store's EDB — the planner's selectivity input (see stats.h). The EDB
  /// is immutable, so the measurement runs once (std::call_once, like the
  /// index builds) and the cached reference is safe to read from any
  /// thread afterwards.
  const StoreStats& Stats() const;

 private:
  /// All three indexes of one (relation, column) pair, built together in
  /// one pass over the relation on first probe.
  struct ColSlot {
    mutable std::once_flag once;
    std::unordered_map<PathId, std::vector<const Tuple*>> whole;
    std::unordered_map<Value, std::vector<const Tuple*>> first;
    std::unordered_map<Value, std::vector<const Tuple*>> last;
    std::atomic<bool> built{false};
  };

  const ColSlot* Slot(RelId rel, uint32_t col) const;
  void Build(RelId rel, const ColSlot& slot, uint32_t col) const;

  const Universe* universe_;
  Instance edb_;
  /// Fixed after construction; per-relation slot vectors are sized to the
  /// relation's widest tuple and never resized (ColSlot is immovable).
  std::unordered_map<RelId, std::vector<ColSlot>> slots_;
  /// Lazily measured EDB statistics (Stats()).
  mutable std::once_flag stats_once_;
  mutable StoreStats stats_;
};

/// What a published segment's contents mean: facts add to the EDB;
/// tombstones *retract* — a tombstone segment's tuples shadow matching
/// facts in every older segment (see database.h's append-log).
enum class SegmentKind : uint8_t { kFacts, kTombstones };

/// One enumerable layer of a LayeredStore: a fact segment plus its
/// *shadows* — the tombstone segments published after it, whose contents
/// retract matching facts of this segment. A tuple enumerated from the
/// layer is visible iff no shadow holds it. Append-only stacks have no
/// shadows, so the visibility filter is a no-op there.
struct SegmentLayer {
  const BaseStore* store = nullptr;
  std::span<const BaseStore* const> shadows;

  bool Shadowed(RelId rel, const Tuple& t) const {
    for (const BaseStore* s : shadows) {
      if (s->Contains(rel, t)) return true;
    }
    return false;
  }
};

/// The executor's copy-on-read view: a stack of shared immutable BaseStore
/// *segments* (the epoch-pinned EDB — one segment per committed Append or
/// Retract, see database.h) layered under a private mutable IDB overlay.
/// Lookups consult every layer; derivation writes only the overlay, so any
/// number of LayeredStores can share the same segments concurrently.
/// Append/Retract dedupe on commit, so in stack order each fact's
/// occurrences alternate fact/tombstone/fact/... — enumerating the fact
/// layers and skipping shadowed tuples yields each *visible* fact exactly
/// once, and visibility of a single fact is decided by the newest segment
/// holding it (ContainsBase's reverse walk).
class LayeredStore {
 public:
  /// Usable only after move-assignment from a real one.
  LayeredStore() = default;
  LayeredStore(LayeredStore&&) = default;
  LayeredStore& operator=(LayeredStore&&) = default;
  // Non-copyable: overlay index buckets point into the overlay instance.
  LayeredStore(const LayeredStore&) = delete;
  LayeredStore& operator=(const LayeredStore&) = delete;

  /// `kinds` marks each segment (parallel to `segments`); empty = all
  /// fact segments (the append-only callers).
  LayeredStore(const Universe& u, std::span<const BaseStore* const> segments,
               std::span<const SegmentKind> kinds);

  /// The enumerable fact layers in stack order, each with its shadows.
  /// Tombstone segments never appear here — their contents are not facts.
  std::span<const SegmentLayer> layers() const { return layers_; }
  IndexedInstance& overlay() { return overlay_; }

  /// Visible membership in the base segments only (not the overlay): the
  /// newest segment holding the fact decides — a fact segment means
  /// present, a tombstone means retracted.
  bool ContainsBase(RelId rel, const Tuple& t) const {
    for (size_t i = segments_.size(); i-- > 0;) {
      if (segments_[i]->Contains(rel, t)) {
        return kinds_[i] == SegmentKind::kFacts;
      }
    }
    return false;
  }

  /// Adds a fact to the overlay unless some layer visibly holds it.
  bool Add(RelId rel, Tuple t) {
    if (ContainsBase(rel, t)) return false;
    return overlay_.Add(rel, std::move(t));
  }

  /// Bulk-adopts `tuples` into the overlay for a relation known disjoint
  /// from every segment except possibly those in `check` — the delta
  /// path's shape: a stored view's derived facts never overlap the
  /// segments the view was computed over, only segments appended since
  /// can have promoted some of them to EDB. A fact counts as held only
  /// when *visible* there (`check_kinds` parallel to `check`, empty = all
  /// facts): a promoted-then-retracted view fact stays view state, exactly
  /// as a cold run would derive it. When no `check` segment mentions the
  /// relation at all, the whole set installs in one reserved pass.
  /// Returns the number of facts adopted.
  size_t Adopt(RelId rel, const TupleSet& tuples,
               std::span<const BaseStore* const> check,
               std::span<const SegmentKind> check_kinds = {});

  bool Contains(RelId rel, const Tuple& t) const {
    if (ContainsBase(rel, t)) return true;
    return overlay_.Contains(rel, t);
  }

  /// Removes a fact from the overlay (DRed over-deletion). Base segments
  /// are immutable — only overlay facts can be removed.
  bool RemoveOverlay(RelId rel, const Tuple& t) {
    return overlay_.Remove(rel, t);
  }

  /// Releases the overlay (the derived facts only).
  Instance&& TakeOverlay() { return overlay_.TakeInstance(); }

 private:
  std::vector<const BaseStore*> segments_;
  std::vector<SegmentKind> kinds_;
  /// Tombstone segments in stack order; layers_ shadows are suffixes of
  /// this vector (sized once in the constructor, never reallocated).
  std::vector<const BaseStore*> tombs_;
  std::vector<SegmentLayer> layers_;
  IndexedInstance overlay_;
};

/// Per-round index over semi-naive delta sets. Wraps one round's deltas
/// (which are immutable for the duration of the round) and builds a
/// per-(relation, column) index on first probe — but only when the delta
/// set holds at least `threshold` tuples; below that, Probe* returns
/// nullptr and the caller scans the delta linearly. Single-threaded, like
/// the run that owns it.
class DeltaIndexer {
 public:
  DeltaIndexer(const Universe& u, const std::map<RelId, TupleSet>& delta,
               size_t threshold)
      : universe_(&u), delta_(&delta), threshold_(threshold) {}

  /// nullptr = delta below threshold; scan linearly.
  const std::vector<const Tuple*>* Probe(RelId rel, uint32_t col, PathId key);
  const std::vector<const Tuple*>* ProbeFirst(RelId rel, uint32_t col,
                                              Value first);
  const std::vector<const Tuple*>* ProbeLast(RelId rel, uint32_t col,
                                             Value last);

 private:
  /// Families build independently (per-family flags): a plan step probes
  /// exactly one family, and this cost recurs every round — unlike
  /// BaseStore, which builds all three in one amortized pass.
  struct ColIndexes {
    std::unordered_map<PathId, std::vector<const Tuple*>> whole;
    std::unordered_map<Value, std::vector<const Tuple*>> first;
    std::unordered_map<Value, std::vector<const Tuple*>> last;
    bool whole_built = false;
    bool first_built = false;
    bool last_built = false;
  };

  /// The (rel, col) slot, or nullptr when the delta is below threshold or
  /// absent. On success `*tuples` is the delta set to build from.
  ColIndexes* Slot(RelId rel, uint32_t col, const TupleSet** tuples);

  const Universe* universe_;
  const std::map<RelId, TupleSet>* delta_;
  size_t threshold_;
  std::map<std::pair<RelId, uint32_t>, ColIndexes> built_;
};

}  // namespace seqdl

#endif  // SEQDL_ENGINE_INDEX_H_
