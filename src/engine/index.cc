#include "src/engine/index.h"

#include <algorithm>
#include <optional>
#include <span>

namespace seqdl {

namespace {

std::span<const uint32_t> FindBucket(const BucketMap& buckets, uint32_t key) {
  auto it = buckets.find(key);
  if (it == buckets.end()) return {};
  return it->second;
}

/// Builds the (col, family) index of `tuples` into `buckets`, in row
/// order.
void FileAll(const Universe& u, const TupleSet& tuples, uint32_t col,
             IndexFamily family, BucketMap* buckets) {
  for (uint32_t row = 0; row < tuples.size(); ++row) {
    if (std::optional<uint32_t> key =
            FamilyKey(u, family, tuples.Row(row)[col])) {
      (*buckets)[*key].push_back(row);
    }
  }
}

}  // namespace

// --- IndexedStore ------------------------------------------------------------

IndexedStore::IndexedStore(const Universe& u, Instance facts)
    : universe_(&u),
      facts_(std::move(facts)),
      measured_(std::make_unique<Measured>()) {
  for (RelId rel : facts_.Relations()) {
    IndexesOf(rel, facts_.Tuples(rel).arity());
  }
}

IndexedStore::RelIndexes& IndexedStore::IndexesOf(RelId rel,
                                                  uint32_t arity) {
  return indexes_.try_emplace(rel, arity).first->second;
}

Bucket IndexedStore::Probe(RelId rel, uint32_t col, IndexFamily family,
                           uint32_t key) const {
  auto it = indexes_.find(rel);
  if (it == indexes_.end() || col >= it->second.size()) return Bucket();
  const Index& index = it->second[col][family];
  if (!index.built.load(std::memory_order_acquire)) {
    std::call_once(index.once, [&] {
      FileAll(*universe_, facts_.Tuples(rel), col, family, &index.buckets);
      index.built.store(true, std::memory_order_release);
    });
  }
  return Bucket(facts_.Tuples(rel), FindBucket(index.buckets, key));
}

bool IndexedStore::Add(RelId rel, TupleRef t) {
  auto [row, is_new] = facts_.Insert(rel, t);
  if (!is_new) return false;
  RelIndexes& indexes = IndexesOf(rel, static_cast<uint32_t>(t.size()));
  for (uint32_t col = 0; col < indexes.size(); ++col) {
    for (IndexFamily family : kIndexFamilies) {
      Index& index = indexes[col][family];
      if (!index.built.load(std::memory_order_relaxed)) continue;
      if (std::optional<uint32_t> key =
              FamilyKey(*universe_, family, t[col])) {
        index.buckets[*key].push_back(row);
      }
    }
  }
  return true;
}

size_t IndexedStore::BulkAdd(RelId rel, const TupleSet& tuples) {
  if (tuples.empty()) return 0;
  if (NumBuilt(IndexesOf(rel, tuples.arity())) == 0) {
    return facts_.AddAll(rel, tuples);
  }
  size_t added = 0;
  for (TupleRef t : tuples) {
    if (Add(rel, t)) ++added;
  }
  return added;
}

bool IndexedStore::Remove(RelId rel, TupleRef t) {
  const TupleSet& tuples = facts_.Tuples(rel);
  const uint32_t row = tuples.Find(t);
  if (row == TupleSet::kNoRow) return false;
  // The instance swap-removes: the last row takes `row`'s number. Drop
  // `row` from its buckets, then refile the last row under its new
  // number, before the erase moves it.
  const uint32_t last = static_cast<uint32_t>(tuples.size() - 1);
  RelIndexes& indexes = indexes_.find(rel)->second;
  for (uint32_t col = 0; col < indexes.size(); ++col) {
    for (IndexFamily family : kIndexFamilies) {
      Index& index = indexes[col][family];
      if (!index.built.load(std::memory_order_relaxed)) continue;
      if (std::optional<uint32_t> key =
              FamilyKey(*universe_, family, tuples.Row(row)[col])) {
        std::vector<uint32_t>& bucket = index.buckets.find(*key)->second;
        *std::find(bucket.begin(), bucket.end(), row) = bucket.back();
        bucket.pop_back();
      }
      if (row == last) continue;
      if (std::optional<uint32_t> key =
              FamilyKey(*universe_, family, tuples.Row(last)[col])) {
        std::vector<uint32_t>& bucket = index.buckets.find(*key)->second;
        *std::find(bucket.begin(), bucket.end(), last) = row;
      }
    }
  }
  return facts_.Remove(rel, tuples.Row(row));
}

size_t IndexedStore::NumBuilt(const RelIndexes& indexes) {
  size_t n = 0;
  for (const FamilyArray<Index>& column : indexes) {
    for (const Index& index : column.of) {
      if (index.built.load(std::memory_order_relaxed)) ++n;
    }
  }
  return n;
}

size_t IndexedStore::NumIndexedFamilies() const {
  size_t n = 0;
  for (const auto& [rel, indexes] : indexes_) n += NumBuilt(indexes);
  return n;
}

const StoreStats& IndexedStore::Stats() const {
  std::call_once(measured_->once, [&] {
    measured_->stats = ComputeInstanceStats(*universe_, facts_);
  });
  return measured_->stats;
}

// --- LayeredStore ------------------------------------------------------------

LayeredStore::LayeredStore(const Universe& u, std::span<const Segment> stack)
    : stack_(stack), overlay_(u, Instance{}) {
  for (const Segment& seg : stack_) {
    if (seg.kind == SegmentKind::kTombstones) {
      tombs_.push_back(seg.store.get());
    }
  }
  // A fact layer's shadows are the tombstone stores *after* it in stack
  // order: the suffix of tombs_ past the tombstones already seen. tombs_
  // is fully built above, so these spans never dangle.
  layers_.reserve(stack_.size() - tombs_.size());
  size_t tombs_seen = 0;
  for (const Segment& seg : stack_) {
    if (seg.kind == SegmentKind::kTombstones) {
      ++tombs_seen;
      continue;
    }
    std::span<const IndexedStore* const> shadows(tombs_);
    layers_.push_back({seg.store.get(), shadows.subspan(tombs_seen)});
  }
}

size_t LayeredStore::Adopt(RelId rel, const TupleSet& tuples,
                           std::span<const Segment> check) {
  bool may_overlap =
      std::any_of(check.begin(), check.end(), [&](const Segment& seg) {
        return !seg.store->Tuples(rel).empty();
      });
  if (!may_overlap) return overlay_.BulkAdd(rel, tuples);
  size_t added = 0;
  for (TupleRef t : tuples) {
    if (!Visible(check, rel, t) && overlay_.Add(rel, t)) ++added;
  }
  return added;
}

}  // namespace seqdl
