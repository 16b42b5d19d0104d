// Flat tuple tables: the storage of one relation's tuples (paper §2.1: an
// instance is a finite set of facts R(p1, ..., pn) over paths).
//
// A TupleSet keeps its rows of `arity` PathIds back to back in one array,
// in insertion order, and finds them through an open-addressing table of
// 4-byte row numbers (linear probing, at most half full) under a hash
// that mixes every value of the row. A tuple therefore costs its payload
// plus a share of two arrays, and copying or freeing a table is copying
// or freeing those arrays, whatever its size.
//
// Row numbers are dense, 0 to size() - 1. Erase swap-removes: the last
// row takes the erased row's number, so anything that files row numbers
// (the index buckets of index.h, the counts of TupleCounts) patches one
// entry. A row number, and a TupleRef read from the table, stays valid
// until the table's next Insert or Erase.
#ifndef SEQDL_ENGINE_TUPLE_SET_H_
#define SEQDL_ENGINE_TUPLE_SET_H_

#include <bit>
#include <cstddef>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "src/term/universe.h"

namespace seqdl {

/// A tuple of interned paths, built by its owner (a derived head, a
/// caller's argument). Arity-0 relations hold the empty tuple.
using Tuple = std::vector<PathId>;

/// A tuple read in place: a row of a TupleSet, or a Tuple.
using TupleRef = std::span<const PathId>;

/// A set of tuples of one arity, stored as flat rows (see file comment).
class TupleSet {
 public:
  /// Find's answer for an absent tuple.
  static constexpr uint32_t kNoRow = UINT32_MAX;

  /// Visits the rows in row-number order.
  class const_iterator {
   public:
    TupleRef operator*() const { return set_->Row(row_); }
    const_iterator& operator++() {
      ++row_;
      return *this;
    }
    friend bool operator==(const_iterator a, const_iterator b) {
      return a.row_ == b.row_;
    }

   private:
    friend class TupleSet;
    const_iterator(const TupleSet* set, uint32_t row) : set_(set), row_(row) {}
    const TupleSet* set_ = nullptr;
    uint32_t row_ = 0;
  };
  using iterator = const_iterator;

  TupleSet() = default;
  TupleSet(const TupleSet&) = default;
  TupleSet& operator=(const TupleSet&) = default;
  /// A moved-from set is empty.
  TupleSet(TupleSet&& other) noexcept
      : values_(std::move(other.values_)),
        slots_(std::move(other.slots_)),
        size_(std::exchange(other.size_, 0)),
        arity_(other.arity_) {
    other.values_.clear();
    other.slots_.clear();
  }
  TupleSet& operator=(TupleSet&& other) noexcept {
    values_ = std::move(other.values_);
    slots_ = std::move(other.slots_);
    size_ = std::exchange(other.size_, 0);
    arity_ = other.arity_;
    other.values_.clear();
    other.slots_.clear();
    return *this;
  }

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  /// The width of every row; fixed by the first Insert into an empty set.
  uint32_t arity() const { return arity_; }

  const_iterator begin() const { return {this, 0}; }
  const_iterator end() const { return {this, size_}; }

  /// The tuple stored under row number `row` (below size()).
  TupleRef Row(uint32_t row) const {
    return {values_.data() + size_t{row} * arity_, arity_};
  }

  /// The row number of `t`, or kNoRow.
  uint32_t Find(TupleRef t) const {
    if (size_ == 0 || t.size() != arity_) return kNoRow;
    const size_t mask = slots_.size() - 1;
    for (size_t s = HomeSlot(t, slots_.size());; s = (s + 1) & mask) {
      const uint32_t entry = slots_[s];
      if (entry == 0) return kNoRow;
      if (RowIs(entry - 1, t)) return entry - 1;
    }
  }
  bool Contains(TupleRef t) const { return Find(t) != kNoRow; }

  /// Adds `t` unless present; returns its row number and whether it was
  /// new. `t` must have the set's arity unless the set is empty.
  std::pair<uint32_t, bool> Insert(TupleRef t);

  /// Removes `t`; returns the row number it had, or kNoRow if absent.
  /// The last row moves into the freed number. `t` may be a row of this
  /// set.
  uint32_t Erase(TupleRef t);

  /// Makes room for `rows` rows in all, so inserting up to that many
  /// rehashes nothing (and, once the arity is known, moves no row).
  void Reserve(size_t rows);

  /// Heap bytes the set holds: its rows and its slot table.
  size_t Bytes() const {
    return values_.capacity() * sizeof(PathId) +
           slots_.capacity() * sizeof(uint32_t);
  }

  /// Equal as sets: the same tuples, in any row order.
  friend bool operator==(const TupleSet& a, const TupleSet& b);

 private:
  /// The slot `t` hashes to in a table of `slots` slots (a power of two,
  /// at least 2): every value through a multiply-xor chain by the 64-bit
  /// golden ratio, then the top bits, which depend on every value
  /// (Fibonacci hashing). Tuples of small sequential ids, which a
  /// hash-combine leaves clustered in a few slots, spread evenly over the
  /// whole table.
  static size_t HomeSlot(TupleRef t, size_t slots) {
    uint64_t h = t.size();
    for (PathId p : t) h = (h ^ p) * 0x9e3779b97f4a7c15ull;
    return h >> (64 - std::countr_zero(slots));
  }
  /// Whether row `row` holds `t` (of the set's arity). A plain loop:
  /// std::equal would call memcmp for a row of one or two values.
  bool RowIs(uint32_t row, TupleRef t) const {
    const PathId* stored = values_.data() + size_t{row} * arity_;
    for (size_t i = 0; i < t.size(); ++i) {
      if (stored[i] != t[i]) return false;
    }
    return true;
  }
  /// The slot holding `row` (which is stored).
  size_t SlotOf(uint32_t row) const;
  /// Rebuilds the slot table at `slots` slots from the rows.
  void Rehash(size_t slots);

  std::vector<PathId> values_;  // row r is values_[r * arity_, (r+1) * arity_)
  /// Row number + 1 per slot; 0 marks an empty slot. Empty, or a power of
  /// two that is at least twice size_.
  std::vector<uint32_t> slots_;
  uint32_t size_ = 0;
  uint32_t arity_ = 0;
};

/// A TupleSet with one uint32_t per row: per-tuple support counts
/// (engine.h's SupportCounts, view.h's SharedSupport).
class TupleCounts {
 public:
  /// Visits (tuple, count) pairs in row order.
  class const_iterator {
   public:
    std::pair<TupleRef, uint32_t> operator*() const {
      return {map_->keys_.Row(row_), map_->counts_[row_]};
    }
    const_iterator& operator++() {
      ++row_;
      return *this;
    }
    friend bool operator==(const_iterator a, const_iterator b) {
      return a.row_ == b.row_;
    }

   private:
    friend class TupleCounts;
    const_iterator(const TupleCounts* map, uint32_t row)
        : map_(map), row_(row) {}
    const TupleCounts* map_ = nullptr;
    uint32_t row_ = 0;
  };
  using iterator = const_iterator;

  size_t size() const { return keys_.size(); }
  bool empty() const { return keys_.empty(); }
  const_iterator begin() const { return {this, 0}; }
  const_iterator end() const {
    return {this, static_cast<uint32_t>(keys_.size())};
  }
  /// The tuples counted.
  const TupleSet& tuples() const { return keys_; }

  /// The count of `t`, or 0 when `t` has none.
  uint32_t Get(TupleRef t) const {
    uint32_t row = keys_.Find(t);
    return row == TupleSet::kNoRow ? 0 : counts_[row];
  }
  /// The count of `t`, first inserted as 0 when absent. Valid until the
  /// next insertion or removal.
  uint32_t& operator[](TupleRef t) {
    auto [row, is_new] = keys_.Insert(t);
    if (is_new) counts_.push_back(0);
    return counts_[row];
  }
  /// The count of `t`, or nullptr when absent; valid as above.
  uint32_t* Find(TupleRef t) {
    uint32_t row = keys_.Find(t);
    return row == TupleSet::kNoRow ? nullptr : &counts_[row];
  }
  /// Drops every tuple `keep` rejects.
  template <typename Keep>
  void EraseUnless(Keep&& keep) {
    for (uint32_t row = 0; row < keys_.size();) {
      if (keep(keys_.Row(row))) {
        ++row;
        continue;
      }
      keys_.Erase(keys_.Row(row));
      counts_[row] = counts_.back();  // the last row moved into `row`
      counts_.pop_back();
    }
  }
  void Reserve(size_t rows) {
    keys_.Reserve(rows);
    counts_.reserve(rows);
  }

  /// Heap bytes: the tuples' table and the counts.
  size_t Bytes() const {
    return keys_.Bytes() + counts_.capacity() * sizeof(uint32_t);
  }

  /// Equal as maps: the same tuples with the same counts, in any order.
  friend bool operator==(const TupleCounts& a, const TupleCounts& b) {
    if (a.size() != b.size()) return false;
    for (const auto& [t, n] : a) {
      uint32_t row = b.keys_.Find(t);
      if (row == TupleSet::kNoRow || b.counts_[row] != n) return false;
    }
    return true;
  }

 private:
  TupleSet keys_;
  std::vector<uint32_t> counts_;  // parallel to keys_' row numbers
};

}  // namespace seqdl

#endif  // SEQDL_ENGINE_TUPLE_SET_H_
