// Indexed relation storage for the evaluator.
//
// Every (relation, column) pair has one hash index per IndexFamily
// (index_family.h): whole-value, first-value and last-value. A scan step
// whose planned key (PlanStep::family, key_arg, key_expr) evaluates under
// the current valuation probes the family's index instead of scanning
// the relation; FamilyKey decides which bucket a stored tuple files under.
//
// One store type holds every set of facts the engine probes: the
// database's published segments and a run's private overlay of derived
// facts. (A semi-naive round's delta is a plain Instance: a restricted
// pass only enumerates it, as its outermost scan.) An IndexedStore owns
// an Instance and builds the (relation, column, family) index a probe
// asks for on first use, exactly once, then keeps every built index
// current through Add, BulkAdd and Remove. A published segment is never
// mutated, so any number of threads may probe it; an overlay belongs to
// one run.
//
// A database's EDB is a stack of Segment records (database.h): a store,
// the epoch it was published at, and whether its tuples are facts or
// tombstones. Visible() is the one statement of the stack's rule, "the
// newest occurrence wins". LayeredStore is the view the executor runs on:
// the stack underneath, a private overlay on top; derivation only ever
// mutates the overlay.
//
// Bucket entries are 4-byte row numbers into the relation's TupleSet
// (tuple_set.h), filed in row order; a probe hands them out as a Bucket,
// which reads each row in place. Inserting appends a row, so derivation
// never renumbers one; Remove swap-removes a row and refiles the row that
// moved into its number.
#ifndef SEQDL_ENGINE_INDEX_H_
#define SEQDL_ENGINE_INDEX_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <unordered_map>
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

/// A set of facts with lazily built indexes (see the file comment).
///
/// Probe, Contains, Tuples and Stats may run concurrently with each other;
/// Add, BulkAdd and Remove need exclusive access. Movable; a move needs
/// exclusive access too.
class IndexedStore {
 public:
  /// An empty store; usable only after move-assignment from a real one.
  IndexedStore() = default;
  /// Wraps `facts`. `u` resolves paths to their keys (FamilyKey) and must
  /// outlive the store. Builds no index.
  IndexedStore(const Universe& u, Instance facts);

  const Instance& instance() const { return facts_; }
  /// Releases the facts (the indexes become meaningless).
  Instance&& TakeInstance() { return std::move(facts_); }

  bool Contains(RelId rel, TupleRef t) const { return facts_.Contains(rel, t); }
  const TupleSet& Tuples(RelId rel) const { return facts_.Tuples(rel); }

  /// The tuples of `rel` whose `col`-th component files under `key` in
  /// `family`'s index (FamilyKey). Builds that one (rel, col, family)
  /// index on its first probe, exactly once across all threads. An absent
  /// relation or column gives the empty bucket.
  Bucket Probe(RelId rel, uint32_t col, IndexFamily family,
               uint32_t key) const;

  /// Adds a fact, filing it in every built index of its relation. Returns
  /// true if the fact was new.
  bool Add(RelId rel, TupleRef t);

  /// Adds every tuple of `tuples`. While no index of `rel` is built this
  /// inserts in one reserved pass (an index built later files the facts
  /// anyway); otherwise it adds fact by fact. Returns the number of new
  /// facts.
  size_t BulkAdd(RelId rel, const TupleSet& tuples);

  /// Removes a fact, dropping it from every built index of its relation
  /// and refiling the row that takes its number; O(bucket) per built
  /// index. Returns true if it was present.
  bool Remove(RelId rel, TupleRef t);

  /// Number of (relation, column, family) indexes built so far.
  size_t NumIndexedFamilies() const;

  /// Measured per-(relation, column, family) bucket statistics of the
  /// facts (stats.h), the planner's selectivity input. Measured once, on
  /// the first call; meant for published stores, which never change.
  const StoreStats& Stats() const;

 private:
  /// One (relation, column, family) index. Its `buckets` are written by
  /// the one build under `once` and, under exclusive access, by Add and
  /// Remove once `built` is set.
  struct Index {
    mutable std::once_flag once;
    mutable std::atomic<bool> built{false};
    mutable BucketMap buckets;
  };
  /// One relation's indexes, one FamilyArray per column. Created, unbuilt,
  /// with the relation's first fact, so a probe only ever reads the table.
  using RelIndexes = std::vector<FamilyArray<Index>>;
  /// The indexes of `rel`, created for `arity` columns if absent.
  RelIndexes& IndexesOf(RelId rel, uint32_t arity);
  /// How many of `indexes` are built.
  static size_t NumBuilt(const RelIndexes& indexes);
  /// The measured statistics, built once (Stats()).
  struct Measured {
    std::once_flag once;
    StoreStats stats;
  };

  const Universe* universe_ = nullptr;
  Instance facts_;
  std::unordered_map<RelId, RelIndexes> indexes_;
  std::unique_ptr<Measured> measured_;
};

/// What a segment's tuples mean: facts add to the EDB; tombstones
/// *retract*, shadowing matching facts in every older segment.
enum class SegmentKind : uint8_t { kFacts, kTombstones };

/// One member of a database's segment stack (database.h).
struct Segment {
  std::shared_ptr<const IndexedStore> store;
  /// The epoch the segment was published at: 0 for the Open segment, the
  /// newest folded stamp for a segment a fold wrote. Non-decreasing up
  /// the stack, so the segments a view of epoch e has seen are exactly
  /// the prefix stamped <= e.
  uint64_t stamp = 0;
  SegmentKind kind = SegmentKind::kFacts;
};

/// Whether (rel, t) is visible in `stack`: the newest segment holding it
/// decides, present if it is a fact segment, retracted if a tombstone.
/// Commits keep each fact's occurrences alternating fact, tombstone,
/// fact, ... up the stack, so this is the whole visibility rule; a prefix
/// of a stack answers for the epoch it was published at.
inline bool Visible(std::span<const Segment> stack, RelId rel, TupleRef t) {
  for (size_t i = stack.size(); i-- > 0;) {
    if (stack[i].store->Contains(rel, t)) {
      return stack[i].kind == SegmentKind::kFacts;
    }
  }
  return false;
}

/// One enumerable layer of a LayeredStore: a fact segment plus its
/// *shadows*, the tombstone segments above it. A tuple enumerated from
/// the layer is visible iff no shadow holds it (by the alternation, iff
/// the layer is its newest occurrence). Append-only stacks have no
/// shadows, so the filter is a no-op there.
struct SegmentLayer {
  const IndexedStore* store = nullptr;
  std::span<const IndexedStore* const> shadows;

  bool Shadowed(RelId rel, TupleRef t) const {
    for (const IndexedStore* s : shadows) {
      if (s->Contains(rel, t)) return true;
    }
    return false;
  }
};

/// The executor's copy-on-read view: a segment stack (the epoch-pinned
/// EDB, borrowed; the caller keeps it alive) under a private overlay of
/// derived facts. Lookups consult every layer; derivation writes only the
/// overlay, so any number of LayeredStores can share the same segments
/// concurrently. Enumerating the fact layers and skipping shadowed tuples
/// yields each visible fact exactly once.
class LayeredStore {
 public:
  /// Usable only after move-assignment from a real one.
  LayeredStore() = default;
  LayeredStore(LayeredStore&&) = default;
  LayeredStore& operator=(LayeredStore&&) = default;
  // Non-copyable: layers_ points into tombs_.
  LayeredStore(const LayeredStore&) = delete;
  LayeredStore& operator=(const LayeredStore&) = delete;

  LayeredStore(const Universe& u, std::span<const Segment> stack);

  /// The enumerable fact layers in stack order, each with its shadows.
  /// Tombstone segments never appear here: their contents are not facts.
  std::span<const SegmentLayer> layers() const { return layers_; }
  IndexedStore& overlay() { return overlay_; }

  /// Visible membership in the stack only (not the overlay).
  bool ContainsBase(RelId rel, TupleRef t) const {
    return Visible(stack_, rel, t);
  }

  /// Adds a fact to the overlay unless the stack visibly holds it.
  bool Add(RelId rel, TupleRef t) {
    if (ContainsBase(rel, t)) return false;
    return overlay_.Add(rel, t);
  }

  /// Adopts `tuples` into the overlay for a relation known disjoint from
  /// every segment except possibly those of `check`, the delta path's
  /// shape: a stored view's derived facts never overlap the segments the
  /// view was computed over; only segments appended since can have
  /// promoted some of them to EDB. A fact counts as held only when
  /// Visible in `check`: a promoted-then-retracted view fact stays view
  /// state, exactly as a cold run would derive it. When no `check`
  /// segment mentions the relation, the whole set installs in one
  /// reserved pass. Returns the number of facts adopted.
  size_t Adopt(RelId rel, const TupleSet& tuples,
               std::span<const Segment> check);

  bool Contains(RelId rel, TupleRef t) const {
    return ContainsBase(rel, t) || overlay_.Contains(rel, t);
  }

  /// Removes a fact from the overlay (DRed over-deletion). The segments
  /// are immutable; only overlay facts can be removed.
  bool RemoveOverlay(RelId rel, TupleRef t) { return overlay_.Remove(rel, t); }

  /// Releases the overlay (the derived facts only).
  Instance&& TakeOverlay() { return overlay_.TakeInstance(); }

 private:
  std::span<const Segment> stack_;
  /// Tombstone stores in stack order; layers_ shadows are suffixes of
  /// this vector (sized once in the constructor, never reallocated).
  std::vector<const IndexedStore*> tombs_;
  std::vector<SegmentLayer> layers_;
  IndexedStore overlay_;
};

}  // namespace seqdl

#endif  // SEQDL_ENGINE_INDEX_H_
