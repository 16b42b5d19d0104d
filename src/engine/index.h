// Indexed relation storage for the evaluator.
//
// Every (relation, column) pair has one hash index per IndexFamily
// (index_family.h): whole-value, first-value and last-value. A scan step
// whose planned key (PlanStep::family, key_arg, key_expr) evaluates under
// the current valuation probes the family's index instead of scanning
// the relation; FamilyKey decides which bucket a stored tuple files under,
// and every store answers the one Probe(rel, col, family, key).
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
// Bucket entries are 4-byte row numbers into the relation's TupleSet
// (tuple_set.h), filed in row order; a probe hands them out as a Bucket,
// which reads each row in place. Inserting appends a row, so derivation
// never renumbers one; IndexedInstance::Remove swap-removes a row and
// refiles the row that moved into its number.
#ifndef SEQDL_ENGINE_INDEX_H_
#define SEQDL_ENGINE_INDEX_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <span>
#include <tuple>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/engine/index_family.h"
#include "src/engine/instance.h"
#include "src/engine/stats.h"
#include "src/term/universe.h"

namespace seqdl {

/// One (relation, column, family) index: FamilyKey -> the row numbers of
/// the tuples filed under it.
using BucketMap = std::unordered_map<uint32_t, std::vector<uint32_t>>;

/// The tuples a probe selected: row numbers into one relation's table,
/// read in place as TupleRefs. Valid until the table or the index changes.
class Bucket {
 public:
  /// Visits the selected rows in filing order.
  class const_iterator {
   public:
    TupleRef operator*() const { return table_->Row(*row_); }
    const_iterator& operator++() {
      ++row_;
      return *this;
    }
    friend bool operator==(const_iterator a, const_iterator b) {
      return a.row_ == b.row_;
    }

   private:
    friend class Bucket;
    const_iterator(const TupleSet* table, const uint32_t* row)
        : table_(table), row_(row) {}
    const TupleSet* table_ = nullptr;
    const uint32_t* row_ = nullptr;
  };

  /// The empty bucket.
  Bucket() = default;
  Bucket(const TupleSet& table, std::span<const uint32_t> rows)
      : table_(&table), rows_(rows) {}

  size_t size() const { return rows_.size(); }
  bool empty() const { return rows_.empty(); }
  const_iterator begin() const { return {table_, rows_.data()}; }
  const_iterator end() const { return {table_, rows_.data() + rows_.size()}; }

 private:
  const TupleSet* table_ = nullptr;
  std::span<const uint32_t> rows_;
};

class IndexedInstance {
 public:
  /// An empty store; usable only after move-assignment from a real one.
  IndexedInstance() = default;
  /// Wraps `base`. `u` resolves paths to their keys (FamilyKey) and must
  /// outlive the store.
  IndexedInstance(const Universe& u, Instance base)
      : universe_(&u), base_(std::move(base)) {}

  const Instance& instance() const { return base_; }
  /// Releases the underlying instance (indexes become meaningless).
  Instance&& TakeInstance() { return std::move(base_); }

  /// Adds a fact, updating any built indexes of its relation. Returns true
  /// if the fact was new.
  bool Add(RelId rel, TupleRef t);

  /// Bulk counterpart of Add: inserts all of `tuples` with capacity
  /// reserved up front. While no index of `rel` has been built yet this
  /// skips the per-fact index-maintenance searches entirely (indexes
  /// built later see the facts anyway — they build from the instance);
  /// once any exists it degrades to per-fact Add. Returns the number of
  /// new facts.
  size_t BulkAdd(RelId rel, const TupleSet& tuples);

  bool Contains(RelId rel, TupleRef t) const { return base_.Contains(rel, t); }
  const TupleSet& Tuples(RelId rel) const { return base_.Tuples(rel); }

  /// The tuples of `rel` whose `col`-th component files under `key` in
  /// `family`'s index (FamilyKey). Builds the (rel, col, family) index on
  /// first use.
  Bucket Probe(RelId rel, uint32_t col, IndexFamily family, uint32_t key);

  /// Removes a fact, dropping it from every built index of its relation
  /// and refiling the row that takes its number. Returns true if it was
  /// present. The DRed deletion path's overlay surgery; O(bucket) per
  /// built index family.
  bool Remove(RelId rel, TupleRef t);

 private:
  const Universe* universe_ = nullptr;
  Instance base_;
  std::map<std::tuple<RelId, uint32_t, IndexFamily>, BucketMap> indexes_;
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

  bool Contains(RelId rel, TupleRef t) const { return edb_.Contains(rel, t); }
  const TupleSet& Tuples(RelId rel) const { return edb_.Tuples(rel); }

  Bucket Probe(RelId rel, uint32_t col, IndexFamily family,
               uint32_t key) const;

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
    FamilyArray<BucketMap> buckets;
    std::atomic<bool> built{false};
  };

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

  bool Shadowed(RelId rel, TupleRef t) const {
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
  // Non-copyable: layers_ points into tombs_.
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
  bool ContainsBase(RelId rel, TupleRef t) const {
    for (size_t i = segments_.size(); i-- > 0;) {
      if (segments_[i]->Contains(rel, t)) {
        return kinds_[i] == SegmentKind::kFacts;
      }
    }
    return false;
  }

  /// Adds a fact to the overlay unless some layer visibly holds it.
  bool Add(RelId rel, TupleRef t) {
    if (ContainsBase(rel, t)) return false;
    return overlay_.Add(rel, t);
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

  bool Contains(RelId rel, TupleRef t) const {
    if (ContainsBase(rel, t)) return true;
    return overlay_.Contains(rel, t);
  }

  /// Removes a fact from the overlay (DRed over-deletion). Base segments
  /// are immutable — only overlay facts can be removed.
  bool RemoveOverlay(RelId rel, TupleRef t) {
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
/// per-(relation, column, family) index on first probe — but only when the
/// delta set holds at least `threshold` tuples; below that, Probe returns
/// nullopt and the caller scans the delta linearly. Single-threaded, like
/// the run that owns it.
class DeltaIndexer {
 public:
  DeltaIndexer(const Universe& u, const std::map<RelId, TupleSet>& delta,
               size_t threshold)
      : universe_(&u), delta_(&delta), threshold_(threshold) {}

  /// nullopt = delta below threshold; scan linearly.
  std::optional<Bucket> Probe(RelId rel, uint32_t col, IndexFamily family,
                              uint32_t key);

 private:
  const Universe* universe_;
  const std::map<RelId, TupleSet>* delta_;
  size_t threshold_;
  /// Families build independently: a plan step probes exactly one
  /// family, and this cost recurs every round — unlike BaseStore, which
  /// builds all three in one amortized pass.
  std::map<std::tuple<RelId, uint32_t, IndexFamily>, BucketMap> built_;
};

}  // namespace seqdl

#endif  // SEQDL_ENGINE_INDEX_H_
