#include "src/engine/tuple_set.h"

#include <algorithm>
#include <cassert>

namespace seqdl {

namespace {

/// Slots of a table's first slot array.
constexpr size_t kFirstSlots = 8;

}  // namespace

std::pair<uint32_t, bool> TupleSet::Insert(TupleRef t) {
  if (size_ == 0) arity_ = static_cast<uint32_t>(t.size());
  assert(t.size() == arity_);
  // Grown before the probe, so a present tuple can cost one early growth.
  if (2 * (size_t{size_} + 1) > slots_.size()) {
    Rehash(std::max(kFirstSlots, 2 * slots_.size()));
  }
  const size_t mask = slots_.size() - 1;
  size_t s = HomeSlot(t, slots_.size());
  for (; slots_[s] != 0; s = (s + 1) & mask) {
    if (RowIs(slots_[s] - 1, t)) return {slots_[s] - 1, false};
  }
  values_.insert(values_.end(), t.begin(), t.end());
  slots_[s] = size_ + 1;
  return {size_++, true};
}

uint32_t TupleSet::Erase(TupleRef t) {
  const uint32_t row = Find(t);  // `t` may be a row: read it only here
  if (row == kNoRow) return kNoRow;
  // Backward-shift deletion: empty the row's slot, then move back each
  // later entry of the probe run whose home slot does not lie between
  // the hole and itself, so every entry stays reachable from its home
  // without tombstones.
  const size_t mask = slots_.size() - 1;
  size_t hole = SlotOf(row);
  for (size_t s = (hole + 1) & mask; slots_[s] != 0; s = (s + 1) & mask) {
    size_t home = HomeSlot(Row(slots_[s] - 1), slots_.size());
    if (((s - home) & mask) >= ((s - hole) & mask)) {
      slots_[hole] = slots_[s];
      hole = s;
    }
  }
  slots_[hole] = 0;
  // Swap-remove: the last row takes the freed number.
  const uint32_t last = size_ - 1;
  if (row != last) {
    slots_[SlotOf(last)] = row + 1;
    std::copy_n(values_.begin() + size_t{last} * arity_, arity_,
                values_.begin() + size_t{row} * arity_);
  }
  values_.resize(size_t{last} * arity_);
  size_ = last;
  return row;
}

void TupleSet::Reserve(size_t rows) {
  if (size_ != 0) values_.reserve(rows * arity_);
  size_t slots = std::bit_ceil(std::max(kFirstSlots, 2 * rows));
  if (slots > slots_.size()) Rehash(slots);
}

size_t TupleSet::SlotOf(uint32_t row) const {
  const size_t mask = slots_.size() - 1;
  size_t s = HomeSlot(Row(row), slots_.size());
  while (slots_[s] != row + 1) s = (s + 1) & mask;
  return s;
}

void TupleSet::Rehash(size_t slots) {
  std::vector<uint32_t> fresh(slots);
  const size_t mask = slots - 1;
  for (uint32_t row = 0; row < size_; ++row) {
    size_t s = HomeSlot(Row(row), slots);
    while (fresh[s] != 0) s = (s + 1) & mask;
    fresh[s] = row + 1;
  }
  slots_.swap(fresh);
}

bool operator==(const TupleSet& a, const TupleSet& b) {
  if (a.size() != b.size()) return false;
  for (TupleRef t : a) {
    if (!b.Contains(t)) return false;
  }
  return true;
}

}  // namespace seqdl
