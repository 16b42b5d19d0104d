#include "src/view/view.h"

#include <utility>
#include <vector>

namespace seqdl {

namespace {

/// Heap bytes of a view's tables (ViewSnapshot::ApproxBytes).
size_t TableBytes(const Instance& idb, const SharedSupport& support) {
  size_t bytes = 0;
  for (RelId rel : idb.Relations()) bytes += idb.Tuples(rel).Bytes();
  for (const auto& [rel, counts] : support) bytes += counts->Bytes();
  return bytes;
}

/// Restricts cold-run support counts to the tuples that actually ended up
/// in the view (DeriveHead also counts firings whose head tuple was
/// already EDB; those facts are not view state).
SharedSupport PruneSupport(SupportCounts&& counts, const Instance& idb) {
  SharedSupport out;
  for (auto& [rel, m] : counts) {
    const TupleSet& have = idb.Tuples(rel);
    if (have.empty()) continue;
    m.EraseUnless([&](TupleRef t) { return have.Contains(t); });
    if (!m.empty()) {
      out.emplace(rel, std::make_shared<const TupleCounts>(std::move(m)));
    }
  }
  return out;
}

/// Merges carried-over and fresh counts for a delta refresh: every
/// relation keeps its stored counts plus any new derivation events minus
/// the DRed deletion phase's decrements, restricted to the new view's
/// tuples. A relation the delta pass neither fired into nor decremented
/// shares the previous snapshot's table outright — no new tuples means
/// no new counts, and an unchanged tuple count rules out EDB promotion,
/// so the carried table is exactly right as is.
SharedSupport CombineSupport(const Instance& idb, const SupportCounts& fresh,
                             const SupportCounts& decrements,
                             const SharedSupport& old) {
  SharedSupport out;
  for (RelId rel : idb.Relations()) {
    const TupleSet& have = idb.Tuples(rel);
    if (have.empty()) continue;
    const auto fit = fresh.find(rel);
    const bool has_fresh = fit != fresh.end() && !fit->second.empty();
    const auto dit = decrements.find(rel);
    const bool has_dec = dit != decrements.end() && !dit->second.empty();
    const auto oit = old.find(rel);
    const TupleCounts* old_map = oit != old.end() ? oit->second.get() : nullptr;
    // Every new tuple comes from a rule firing the delta pass counted, so
    // no fresh events = no additions; equal sizes then rule out the only
    // other change (adopted facts dropped by EDB promotion). Share.
    if (!has_fresh && !has_dec && old_map != nullptr &&
        old_map->size() == have.size()) {
      out.emplace(rel, oit->second);
      continue;
    }
    if (old_map != nullptr) {
      // Carried counts with changes: copy the old table wholesale and
      // patch it, rather than re-probing three tables per view tuple.
      // Merging the fresh events (restricted to view tuples — DeriveHead
      // also counts firings onto EDB facts) covers every addition, so
      // afterwards the copy's tuples are a superset of the view's; a size
      // mismatch means EDB promotion or DRed deletion dropped tuples, and
      // exactly the stale ones are erased.
      auto dst = std::make_shared<TupleCounts>(*old_map);
      if (has_fresh) {
        for (const auto& [t, n] : fit->second) {
          if (!have.Contains(t)) continue;
          uint32_t& count = (*dst)[t];
          uint64_t m = static_cast<uint64_t>(count) + n;
          count = m > UINT32_MAX ? UINT32_MAX : static_cast<uint32_t>(m);
        }
      }
      if (has_dec) {
        // Checked, saturating decrement floored at one: a surviving view
        // tuple always keeps a positive count, no matter how far the
        // deletion phase over-decremented it (the floor only ever
        // *undercounts*, whose worst case is a spurious re-derivation
        // check on a later retraction — never a wrong deletion). Tuples
        // the deletion actually removed are erased below, not here.
        for (const auto& [t, n] : dit->second) {
          uint32_t* count = dst->Find(t);
          if (count == nullptr) continue;
          *count = *count > n ? *count - n : 1;
        }
      }
      if (dst->size() != have.size()) {
        dst->EraseUnless([&](TupleRef t) { return have.Contains(t); });
      }
      out.emplace(rel, std::move(dst));
      continue;
    }
    auto dst = std::make_shared<TupleCounts>();
    dst->Reserve(have.size());
    for (TupleRef t : have) {
      uint64_t n = has_fresh ? fit->second.Get(t) : 0;
      // Every view tuple has at least one derivation by construction;
      // clamp so the invariant survives saturation and carried gaps.
      if (n == 0) n = 1;
      if (n > UINT32_MAX) n = UINT32_MAX;
      (*dst)[t] = static_cast<uint32_t>(n);
    }
    out.emplace(rel, std::move(dst));
  }
  return out;
}

}  // namespace

Result<std::shared_ptr<const ViewSnapshot>> ViewManager::Refresh(
    const std::string& key, const PreparedProgram& prog,
    const RunOptions& opts, EvalStats* stats) {
  // Pin the segment set first: an append racing past after this read
  // makes the refreshed view one epoch stale, never wrong — the next
  // Refresh advances it. A write that published and stored its views
  // between the pin and the lookup leaves a stored view newer than the
  // pin: pin again, which covers it, since views are stored at
  // published epochs only.
  Session at(*state_->universe, state_->Current(), &state_->accum);
  std::shared_ptr<const ViewSnapshot> stored = Lookup(key);
  if (stored != nullptr && stored->epoch_ > at.epoch()) {
    at.pinned_ = state_->Current();
  }
  SEQDL_ASSIGN_OR_RETURN(std::shared_ptr<const ViewSnapshot> view,
                         Advance(stored, at, prog, opts, stats));
  if (view != stored) Install(key, view);
  return view;
}

Result<std::shared_ptr<const ViewSnapshot>> ViewManager::Evaluate(
    const std::string& key, const PreparedProgram& prog, const Session& at,
    const RunOptions& opts, EvalStats* stats) {
  std::shared_ptr<const ViewSnapshot> stored = Lookup(key);
  if (stored != nullptr && stored->epoch_ > at.epoch()) stored = nullptr;
  return Advance(std::move(stored), at, prog, opts, stats);
}

void ViewManager::Install(const std::string& key,
                          std::shared_ptr<const ViewSnapshot> view) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = views_[key];
  if (slot == nullptr || slot->epoch_ <= view->epoch_) slot = std::move(view);
}

Result<std::shared_ptr<const ViewSnapshot>> ViewManager::Advance(
    std::shared_ptr<const ViewSnapshot> old, const Session& at,
    const PreparedProgram& prog, const RunOptions& opts, EvalStats* stats) {
  if (&prog.universe() != state_->universe) {
    return Status::InvalidArgument(
        "program was compiled against a different Universe than the "
        "database was opened with");
  }
  const Database::SegmentSet* cur = at.pinned_.get();
  if (old != nullptr && old->epoch_ == cur->epoch) {
    std::lock_guard<std::mutex> lock(mu_);
    ++counters_.hits;
    return old;
  }

  // A view pinned below the shrink floor cannot be delta-advanced: a
  // fold merged segments it has seen with ones it has not (counting the
  // seen facts' support again if evaluated as delta) and may have folded
  // away tombstones it never observed. Fall back to a cold
  // materialization.
  if (old != nullptr && old->epoch_ < cur->shrink_floor) old = nullptr;

  // Partition the stack by publish stamp: the first `base_prefix`
  // segments are the ones the stored view already covers (stamps are
  // non-decreasing, so the covered base is always a prefix); the suffix
  // is the delta. With no stored view everything is base and a cold run
  // materializes.
  size_t base_prefix = 0;
  bool shrink_delta = false;
  for (size_t i = 0; i < cur->segments.size(); ++i) {
    const Segment& seg = cur->segments[i];
    if (old != nullptr && seg.stamp <= old->epoch_) {
      base_prefix = i + 1;
    } else if (seg.kind == SegmentKind::kTombstones) {
      shrink_delta = true;
    }
  }

  auto snap = std::make_shared<ViewSnapshot>();
  snap->epoch_ = cur->epoch;
  snap->segments_ = cur->segments.size();

  // Route derived-stats measurement through a local sink when the caller
  // did not pass one, so it still reaches the database's accumulator
  // (same plumbing as Session::Run).
  EvalStats local;
  EvalStats* sink =
      stats != nullptr ? stats
                       : (opts.collect_derived_stats ? &local : nullptr);

  if (old == nullptr) {
    SupportCounts support;
    RunOptions o = opts;
    o.support = &support;
    // Cold runs see the stack the way a Session does: tombstone segments
    // hide retracted facts.
    SEQDL_ASSIGN_OR_RETURN(snap->idb_,
                           prog.RunOnStack(cur->segments, o, sink));
    // A full recomputation happened: apply the epoch decays deferred by
    // appends (same contract as Session::Run).
    state_->accum.AgeOnRecompute(StatsAccumulator::kEpochDecay);
    snap->support_ = PruneSupport(std::move(support), snap->idb_);
  } else {
    SupportCounts fresh;
    RunOptions o = opts;
    o.support = &fresh;
    // The deletion phase reads the stored counts through this lookup; 0
    // (unknown) makes the executor fall back to delete-on-first-decrement.
    const SharedSupport& old_support = old->support_;
    SupportLookup lookup = [&old_support](RelId rel,
                                          TupleRef t) -> uint32_t {
      auto it = old_support.find(rel);
      return it == old_support.end() ? 0 : it->second->Get(t);
    };
    SEQDL_ASSIGN_OR_RETURN(
        PreparedProgram::DeltaRun run,
        prog.RunDelta(cur->segments, base_prefix, old->idb_, lookup, o,
                      sink));
    snap->idb_ = std::move(run.idb);
    snap->support_ =
        CombineSupport(snap->idb_, fresh, run.decrements, old->support_);
  }
  snap->bytes_ = TableBytes(snap->idb_, snap->support_);

  // Record what the view now holds (cold or refreshed — either way the
  // materialized IDB is the current derived shape), so drift-triggered
  // recompilation keeps working in view-serving mode.
  if (opts.collect_derived_stats && sink != nullptr) {
    state_->accum.Record(sink->derived_stats);
  }

  std::lock_guard<std::mutex> lock(mu_);
  if (old == nullptr) {
    ++counters_.cold_runs;
  } else {
    ++counters_.delta_refreshes;
    if (shrink_delta) ++counters_.dred_refreshes;
  }
  return std::shared_ptr<const ViewSnapshot>(snap);
}

std::shared_ptr<const ViewSnapshot> ViewManager::Lookup(
    const std::string& key) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = views_.find(key);
  return it == views_.end() ? nullptr : it->second;
}

void ViewManager::Invalidate(const std::string& key) {
  std::lock_guard<std::mutex> lock(mu_);
  views_.erase(key);
}

void ViewManager::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  views_.clear();
}

size_t ViewManager::NumViews() const {
  std::lock_guard<std::mutex> lock(mu_);
  return views_.size();
}

ViewManager::Counters ViewManager::counters() const {
  std::lock_guard<std::mutex> lock(mu_);
  return counters_;
}

std::optional<uint64_t> ViewManager::OldestEpoch() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::optional<uint64_t> oldest;
  for (const auto& [key, snap] : views_) {
    if (!oldest || snap->epoch_ < *oldest) oldest = snap->epoch_;
  }
  return oldest;
}

}  // namespace seqdl
