#include "src/engine/index.h"

#include <algorithm>
#include <cassert>
#include <optional>
#include <span>

namespace seqdl {

namespace {

std::span<const uint32_t> FindBucket(const BucketMap& buckets, uint32_t key) {
  auto it = buckets.find(key);
  if (it == buckets.end()) return {};
  return it->second;
}

/// The key `t` files under in the (col, family) index; nullopt when the
/// tuple has no such column or the column no such key.
std::optional<uint32_t> TupleKey(const Universe& u, TupleRef t, uint32_t col,
                                 IndexFamily family) {
  if (col >= t.size()) return std::nullopt;
  return FamilyKey(u, family, t[col]);
}

/// Builds the (col, family) index of `tuples` into `buckets`, in row
/// order.
void FileAll(const Universe& u, const TupleSet& tuples, uint32_t col,
             IndexFamily family, BucketMap* buckets) {
  for (uint32_t row = 0; row < tuples.size(); ++row) {
    if (std::optional<uint32_t> key =
            TupleKey(u, tuples.Row(row), col, family)) {
      (*buckets)[*key].push_back(row);
    }
  }
}

}  // namespace

// --- IndexedInstance ---------------------------------------------------------

bool IndexedInstance::Add(RelId rel, TupleRef t) {
  auto [row, is_new] = base_.Insert(rel, t);
  if (!is_new) return false;
  TupleRef stored = base_.Tuples(rel).Row(row);
  // Update every built index of this relation.
  for (auto it = indexes_.lower_bound({rel, 0, IndexFamily::kWhole});
       it != indexes_.end() && std::get<0>(it->first) == rel; ++it) {
    auto [r, col, family] = it->first;
    if (std::optional<uint32_t> key =
            TupleKey(*universe_, stored, col, family)) {
      it->second[*key].push_back(row);
    }
  }
  return true;
}

size_t IndexedInstance::BulkAdd(RelId rel, const TupleSet& tuples) {
  auto it = indexes_.lower_bound({rel, 0, IndexFamily::kWhole});
  if (it != indexes_.end() && std::get<0>(it->first) == rel) {
    size_t added = 0;
    for (TupleRef t : tuples) {
      if (Add(rel, t)) ++added;
    }
    return added;
  }
  return base_.AddAll(rel, tuples);
}

bool IndexedInstance::Remove(RelId rel, TupleRef t) {
  const TupleSet& tuples = base_.Tuples(rel);
  const uint32_t row = tuples.Find(t);
  if (row == TupleSet::kNoRow) return false;
  // The instance swap-removes: the last row takes `row`'s number. Drop
  // `row` from its buckets, then refile the last row under its new
  // number, before the erase moves it.
  const uint32_t last = static_cast<uint32_t>(tuples.size() - 1);
  for (auto it = indexes_.lower_bound({rel, 0, IndexFamily::kWhole});
       it != indexes_.end() && std::get<0>(it->first) == rel; ++it) {
    auto [r, col, family] = it->first;
    BucketMap& buckets = it->second;
    if (std::optional<uint32_t> key =
            TupleKey(*universe_, tuples.Row(row), col, family)) {
      std::vector<uint32_t>& bucket = buckets.find(*key)->second;
      *std::find(bucket.begin(), bucket.end(), row) = bucket.back();
      bucket.pop_back();
    }
    if (row == last) continue;
    if (std::optional<uint32_t> key =
            TupleKey(*universe_, tuples.Row(last), col, family)) {
      std::vector<uint32_t>& bucket = buckets.find(*key)->second;
      *std::find(bucket.begin(), bucket.end(), last) = row;
    }
  }
  return base_.Remove(rel, tuples.Row(row));
}

Bucket IndexedInstance::Probe(RelId rel, uint32_t col, IndexFamily family,
                              uint32_t key) {
  assert(universe_ != nullptr);
  auto [it, built_now] = indexes_.try_emplace({rel, col, family});
  if (built_now) {
    FileAll(*universe_, base_.Tuples(rel), col, family, &it->second);
  }
  return Bucket(base_.Tuples(rel), FindBucket(it->second, key));
}

// --- BaseStore ---------------------------------------------------------------

BaseStore::BaseStore(const Universe& u, Instance edb)
    : universe_(&u), edb_(std::move(edb)) {
  // Fix the slot table now: one slot per (relation, column) of the EDB.
  // ColSlot is immovable (once_flag), so each vector is sized once here
  // and never resized.
  for (RelId rel : edb_.Relations()) {
    slots_.emplace(std::piecewise_construct, std::forward_as_tuple(rel),
                   std::forward_as_tuple(u.RelArity(rel)));
  }
}

Bucket BaseStore::Probe(RelId rel, uint32_t col, IndexFamily family,
                        uint32_t key) const {
  auto it = slots_.find(rel);
  if (it == slots_.end() || col >= it->second.size()) return Bucket();
  const ColSlot& slot = it->second[col];
  std::call_once(slot.once, [&] {
    // The slot table is logically mutable index state over the immutable
    // EDB; call_once makes the build exclusive and publishes the maps to
    // every later prober. All three families build in this one pass.
    ColSlot& s = const_cast<ColSlot&>(slot);
    const TupleSet& tuples = edb_.Tuples(rel);
    for (uint32_t row = 0; row < tuples.size(); ++row) {
      for (IndexFamily f : kIndexFamilies) {
        if (std::optional<uint32_t> k =
                TupleKey(*universe_, tuples.Row(row), col, f)) {
          s.buckets[f][*k].push_back(row);
        }
      }
    }
    s.built.store(true, std::memory_order_relaxed);
  });
  return Bucket(edb_.Tuples(rel), FindBucket(slot.buckets[family], key));
}

const StoreStats& BaseStore::Stats() const {
  std::call_once(stats_once_, [&] {
    stats_ = ComputeInstanceStats(*universe_, edb_);
  });
  return stats_;
}

size_t BaseStore::NumIndexedColumns() const {
  size_t n = 0;
  for (const auto& [rel, cols] : slots_) {
    for (const ColSlot& slot : cols) {
      if (slot.built.load(std::memory_order_relaxed)) ++n;
    }
  }
  return n;
}

// --- LayeredStore ------------------------------------------------------------

LayeredStore::LayeredStore(const Universe& u,
                           std::span<const BaseStore* const> segments,
                           std::span<const SegmentKind> kinds)
    : segments_(segments.begin(), segments.end()),
      kinds_(kinds.begin(), kinds.end()),
      overlay_(u, Instance{}) {
  assert(kinds_.empty() || kinds_.size() == segments_.size());
  if (kinds_.empty()) kinds_.assign(segments_.size(), SegmentKind::kFacts);
  size_t num_tombs = 0;
  for (SegmentKind k : kinds_) {
    if (k == SegmentKind::kTombstones) ++num_tombs;
  }
  tombs_.reserve(num_tombs);
  for (size_t i = 0; i < segments_.size(); ++i) {
    if (kinds_[i] == SegmentKind::kTombstones) tombs_.push_back(segments_[i]);
  }
  // A fact layer's shadows are the tombstone segments *after* it in stack
  // order: the suffix of tombs_ past the tombstones already seen. tombs_
  // is fully built above, so these spans never dangle.
  layers_.reserve(segments_.size() - num_tombs);
  size_t tombs_seen = 0;
  for (size_t i = 0; i < segments_.size(); ++i) {
    if (kinds_[i] == SegmentKind::kTombstones) {
      ++tombs_seen;
      continue;
    }
    layers_.push_back(SegmentLayer{
        segments_[i],
        std::span<const BaseStore* const>(tombs_.data() + tombs_seen,
                                          tombs_.size() - tombs_seen)});
  }
}

size_t LayeredStore::Adopt(RelId rel, const TupleSet& tuples,
                           std::span<const BaseStore* const> check,
                           std::span<const SegmentKind> check_kinds) {
  assert(check_kinds.empty() || check_kinds.size() == check.size());
  bool may_overlap = false;
  for (const BaseStore* seg : check) {
    if (!seg->Tuples(rel).empty()) {
      may_overlap = true;
      break;
    }
  }
  if (!may_overlap) return overlay_.BulkAdd(rel, tuples);
  // Visible membership restricted to the check span: the newest check
  // segment holding the fact decides, exactly like ContainsBase.
  auto visible_in_check = [&](TupleRef t) {
    for (size_t i = check.size(); i-- > 0;) {
      if (check[i]->Contains(rel, t)) {
        return check_kinds.empty() || check_kinds[i] == SegmentKind::kFacts;
      }
    }
    return false;
  };
  size_t added = 0;
  for (TupleRef t : tuples) {
    if (!visible_in_check(t) && overlay_.Add(rel, t)) ++added;
  }
  return added;
}

// --- DeltaIndexer ------------------------------------------------------------

std::optional<Bucket> DeltaIndexer::Probe(RelId rel, uint32_t col,
                                          IndexFamily family, uint32_t key) {
  auto delta_it = delta_->find(rel);
  if (delta_it == delta_->end() || delta_it->second.size() < threshold_) {
    return std::nullopt;
  }
  auto [it, built_now] = built_.try_emplace({rel, col, family});
  if (built_now) {
    FileAll(*universe_, delta_it->second, col, family, &it->second);
  }
  return Bucket(delta_it->second, FindBucket(it->second, key));
}

}  // namespace seqdl
