#include "src/engine/database.h"

#include <algorithm>
#include <exception>
#include <optional>
#include <utility>

#include "src/storage/format.h"
#include "src/view/view.h"

namespace seqdl {

Database::Database(Database&&) noexcept = default;
Database& Database::operator=(Database&&) noexcept = default;
Database::~Database() = default;
Database::DbState::DbState() = default;
Database::DbState::~DbState() = default;

namespace {

/// A segment-count fold keeps the base segment and folds only the tail
/// above it while the tail's net change (retracted base facts plus
/// visible facts outside the base) stays below this fraction of the
/// base. Each such fold costs O(tail) instead of O(base + tail) and
/// keeps the base's indexes, statistics and sealed file. Since the net
/// tail grows by at most one fact per changed fact, the full fold that
/// rebuilds the base runs at most once per base/4 changed facts, so its
/// amortized cost stays at most 5 facts folded per changed fact.
constexpr double kTailFoldFraction = 0.25;

/// Materializes the visible facts of a stack: fact segments union in,
/// tombstone segments remove (forward walk — a later fact re-appends).
Instance MaterializeVisible(std::span<const Segment> stack) {
  Instance out;
  for (const Segment& seg : stack) {
    const Instance& inst = seg.store->instance();
    if (seg.kind == SegmentKind::kFacts) {
      out.UnionWith(inst);
      continue;
    }
    for (RelId rel : inst.Relations()) {
      for (TupleRef t : inst.Tuples(rel)) {
        out.Remove(rel, t);
      }
    }
  }
  return out;
}

}  // namespace

Result<Database> Database::Open(Universe& u, Instance edb,
                                const OpenOptions& opts) {
  std::unique_ptr<storage::StorageEngine> engine;
  if (!opts.data_dir.empty()) {
    storage::StorageOptions sopts;
    sopts.dir = opts.data_dir;
    sopts.sync_mode = opts.sync_mode;
    sopts.sync_interval_ms = opts.sync_interval_ms;
    sopts.checkpoint_wal_bytes = opts.checkpoint_wal_bytes;
    SEQDL_ASSIGN_OR_RETURN(engine, storage::StorageEngine::Open(u, sopts));
    if (engine->recovered() && !edb.Empty()) {
      return storage::StorageError(
          storage::kSdDataDirConflict,
          opts.data_dir +
              " is already initialized; open it without a seed instance "
              "(the recovered EDB is authoritative) or point at a fresh "
              "directory");
    }
  }

  auto state = std::make_unique<DbState>();
  state->universe = &u;
  state->opts = opts;

  if (engine != nullptr && engine->recovered()) {
    // Rebuild the stack the manifest describes, bottom-of-stack first,
    // then replay the WAL tail through the normal commit path. Each
    // record is an effective batch, so re-deduping flips exactly the
    // facts it flipped before, and the stack lands on the crash-time
    // visible facts and epoch. The automatic fold runs as records replay
    // (folds are not logged), so the shape and shrink_floor may differ
    // from the crash-time stack's.
    auto set = std::make_shared<SegmentSet>();
    set->epoch = engine->recovered_epoch();
    set->shrink_floor = engine->recovered_shrink_floor();
    set->segments = std::move(engine->sealed());
    for (const Segment& seg : set->segments) {
      size_t facts = seg.store->instance().NumFacts();
      if (seg.kind == SegmentKind::kFacts) {
        set->total_facts += facts;
      } else {
        set->total_facts -= facts;
      }
    }
    state->current = std::move(set);
    state->views.reset(new ViewManager(*state));
    state->storage = std::move(engine);

    state->replaying = true;
    DbState* raw = state.get();
    Result<storage::WalReplay> replay = state->storage->ReplayTail(
        u, [raw](storage::WalRecordType type, Instance batch) -> Status {
          Result<uint64_t> applied =
              Commit(*raw,
                     type == storage::WalRecordType::kAppend
                         ? SegmentKind::kFacts
                         : SegmentKind::kTombstones,
                     std::move(batch), nullptr, {});
          return applied.ok() ? Status::OK() : applied.status();
        });
    state->replaying = false;
    if (!replay.ok()) return replay.status();

    {
      // Fold a recovered stack deeper than the limit even when no record
      // replayed, and seal a replayed log that already outgrew its
      // threshold.
      std::lock_guard<std::mutex> writer(state->writer_mu);
      state->Publish(AutoFoldLocked(*state, state->Current()));
      AfterCommitLocked(*state);
    }
    return Database(std::move(state));
  }

  // Fresh open (in-memory, or initializing a new data directory).
  auto set = std::make_shared<SegmentSet>();
  set->epoch = 0;
  set->total_facts = edb.NumFacts();
  set->segments.push_back(
      {std::make_shared<IndexedStore>(u, std::move(edb)), 0,
       SegmentKind::kFacts});
  state->current = std::move(set);
  state->views.reset(new ViewManager(*state));
  if (engine != nullptr) {
    state->storage = std::move(engine);
    // Initial checkpoint: seal the seed segment and create the WAL so
    // the first commit has a log to land in. Publishes generation 1.
    SEQDL_RETURN_IF_ERROR(CheckpointLocked(*state, *state->current));
  }
  return Database(std::move(state));
}

Result<Database> Database::Open(Universe& u, Instance edb) {
  return Open(u, std::move(edb), OpenOptions());
}

Result<Database> Database::Open(Universe& u, const OpenOptions& opts) {
  if (opts.data_dir.empty()) {
    return Status::InvalidArgument(
        "Database::Open(u, opts) requires OpenOptions::data_dir; use the "
        "Instance overload for an in-memory database");
  }
  return Open(u, Instance{}, opts);
}

bool Database::DataDirInitialized(const std::string& dir) {
  Result<bool> exists = storage::FileExists(dir + "/CURRENT");
  return exists.ok() && *exists;
}

Session Database::Snapshot() const {
  return Session(*state_->universe, state_->Current(), &state_->accum);
}

Result<uint64_t> Database::Commit(DbState& state, SegmentKind kind,
                                  Instance batch, size_t* committed,
                                  const CommitWork& work) {
  if (committed != nullptr) *committed = 0;
  const bool facts = kind == SegmentKind::kFacts;
  struct InFlight {
    std::atomic<int>& n;
    explicit InFlight(std::atomic<int>& count) : n(count) { ++n; }
    ~InFlight() { --n; }
  } in_flight(state.commits_in_flight);
  std::unique_lock<std::mutex> writer(state.writer_mu);
  if (state.closed.load(std::memory_order_relaxed)) {
    return Status::FailedPrecondition(
        facts ? "database is closed: no further appends"
              : "database is closed: no further retractions");
  }
  std::shared_ptr<const SegmentSet> cur = state.Current();

  // Keep only the facts whose visibility the commit flips: an append
  // drops what is already visible, a retraction what is not. That keeps
  // the per-fact flip invariant: a fact's occurrences in stack order
  // alternate fact/tombstone/…, so visibility is decided by the newest
  // occurrence, visible enumeration across segments yields each fact
  // exactly once, and tombstone segments stay pairwise disjoint at equal
  // visibility depth. (Re-appending a retracted fact is legal and
  // publishes a fresh occurrence above its tombstone.)
  Instance flips;
  for (RelId rel : batch.Relations()) {
    for (TupleRef t : batch.Tuples(rel)) {
      if (Visible(cur->segments, rel, t) != facts) flips.Add(rel, t);
    }
  }
  if (flips.Empty()) return cur->epoch;  // nothing changes: the epoch holds

  const size_t flipped = flips.NumFacts();
  auto added = std::make_shared<const IndexedStore>(*state.universe,
                                                    std::move(flips));
  auto grown = std::make_shared<SegmentSet>();
  grown->epoch = cur->epoch + 1;
  grown->segments = cur->segments;
  grown->segments.push_back({added, grown->epoch, kind});
  grown->shrink_floor = cur->shrink_floor;
  grown->total_facts =
      facts ? cur->total_facts + flipped : cur->total_facts - flipped;
  // The automatic fold is staged with the commit: readers never see the
  // unfolded stack, and the work below evaluates the one they will see.
  std::shared_ptr<const SegmentSet> next =
      AutoFoldLocked(state, std::move(grown));

  // Durability point: the effective (post-dedupe) batch hits the WAL
  // before anything publishes. On error nothing is published — the
  // commit never happened, in memory or on disk. Replay skips the log
  // (the record being replayed is already on disk). The caller's work
  // runs beside the sync when one is owed (LogCommit runs `beside` only
  // then), unless another commit is in flight, which would then wait for
  // the lock past the sync; otherwise it runs once the lock is released.
  // An exception from work beside the sync waits until the commit has
  // published, so memory never parts from the log.
  const Session staged(*state.universe, next, &state.accum);
  bool ran = false;
  std::exception_ptr thrown;
  std::function<void()> beside;
  if (work && state.commits_in_flight.load() == 1) {
    beside = [&] {
      ran = true;
      try {
        work(staged);
      } catch (...) {
        thrown = std::current_exception();
      }
    };
  }
  if (state.storage != nullptr && !state.replaying) {
    SEQDL_RETURN_IF_ERROR(state.storage->LogCommit(
        facts ? storage::WalRecordType::kAppend
              : storage::WalRecordType::kRetract,
        *state.universe, added->instance(), beside));
  }

  if (committed != nullptr) *committed = flipped;
  const uint64_t epoch = next->epoch;
  state.Publish(std::move(next));

  // The data moved, grown or shrunk: note the epoch so the accumulated
  // derived-run measurements decay once something actually re-derives
  // (deferred — see StatsAccumulator::NoteEpoch; a maintained view
  // serving across commits is not fresh evidence that the derived shape
  // drifted, and Stats() discounts tombstones directly).
  state.accum.NoteEpoch();

  AfterCommitLocked(state);
  writer.unlock();
  if (thrown) std::rethrow_exception(thrown);
  if (work && !ran) work(staged);
  return epoch;
}

Result<uint64_t> Database::Append(Instance delta, size_t* appended,
                                  const CommitWork& work) {
  return Commit(*state_, SegmentKind::kFacts, std::move(delta), appended,
                work);
}

Result<uint64_t> Database::Retract(Instance victims, size_t* retracted,
                                   const CommitWork& work) {
  return Commit(*state_, SegmentKind::kTombstones, std::move(victims),
                retracted, work);
}

void Database::AfterCommitLocked(DbState& state) {
  // A failed checkpoint is swallowed: the commit is already durable and
  // published, and the WAL just keeps growing until a later checkpoint
  // (or a caller-visible Compact()) succeeds.
  if (!state.replaying && state.storage != nullptr &&
      state.storage->WantsCheckpoint()) {
    (void)CheckpointLocked(state, *state.Current());
  }
}

Status Database::CheckpointLocked(DbState& state, const SegmentSet& set) {
  if (state.storage == nullptr) return Status::OK();
  return state.storage->Checkpoint(*state.universe, set.epoch,
                                   set.shrink_floor, set.segments);
}

std::shared_ptr<const Database::SegmentSet> Database::FoldLocked(
    const DbState& state, const SegmentSet& cur, Fold fold) {
  const std::vector<Segment>& segs = cur.segments;
  const size_t n = segs.size();
  if (n <= 1) return nullptr;
  const size_t limit = state.opts.auto_compact_segments;

  // The fold covers the bottom segments [0, end). A tiered fold stops
  // below the first segment some stored view has not seen, so no view
  // meets a folded segment as delta; under eager refresh that leaves
  // out only the segment the current write published. A view lagging
  // so far that the segments above would keep the stack over the limit
  // does not hold the fold back: everything folds and it re-runs cold.
  size_t end = n;
  if (fold == Fold::kTiered) {
    if (std::optional<uint64_t> oldest = state.views->OldestEpoch()) {
      size_t seen = 0;
      while (seen < n && segs[seen].stamp <= *oldest) ++seen;
      if (1 + (n - seen) <= limit) end = seen;
    }
  }
  const std::span<const Segment> folded(segs.data(), end);
  const uint64_t stamp = folded.back().stamp;  // newest folded

  auto next = std::make_shared<SegmentSet>();
  next->epoch = cur.epoch;  // same facts, same epoch: semantics unchanged
  next->total_facts = cur.total_facts;
  // A folded segment mixes facts a view older than `stamp` has seen with
  // facts it has not, and tombstones it never observed are gone:
  // delta-evaluating it would count the seen facts' support twice. Raise
  // the floor so Refresh runs such views cold.
  next->shrink_floor = std::max(cur.shrink_floor, stamp);
  auto push_new = [&](Instance facts, SegmentKind kind) {
    next->segments.push_back(
        {std::make_shared<IndexedStore>(*state.universe, std::move(facts)),
         stamp, kind});
  };

  // Tail fold: diff the folded tail against the base (segment 0, always
  // a fact segment: Open and every fold put one there). Base facts the
  // range no longer shows go into one tombstone segment, visible facts
  // outside the base into one fact segment; the base segment itself is
  // kept with its indexes, statistics and sealed file. Taken only while
  // that net tail is small next to the base and the result fits under
  // the limit; otherwise the range merges into a new base.
  bool tail_fold = false;
  if (fold == Fold::kTiered) {
    const IndexedStore& base = *segs[0].store;
    const double max_net =
        kTailFoldFraction * static_cast<double>(base.instance().NumFacts());
    Instance dropped, added;
    bool small = true;
    // Stops diffing once the net tail is too big (checked per segment).
    for (size_t i = 1; i < end && small; ++i) {
      const Instance& inst = segs[i].store->instance();
      for (RelId rel : inst.Relations()) {
        for (TupleRef t : inst.Tuples(rel)) {
          bool visible = Visible(folded, rel, t);
          if (base.Contains(rel, t)) {
            if (!visible) dropped.Add(rel, t);
          } else if (visible) {
            added.Add(rel, t);
          }
        }
      }
      small = static_cast<double>(dropped.NumFacts() + added.NumFacts()) <
              max_net;
    }
    size_t written = 1 + (dropped.Empty() ? 0 : 1) + (added.Empty() ? 0 : 1);
    if (small && written + (n - end) <= limit) {
      tail_fold = true;
      next->segments.push_back(segs[0]);
      if (!dropped.Empty()) {
        push_new(std::move(dropped), SegmentKind::kTombstones);
      }
      if (!added.Empty()) push_new(std::move(added), SegmentKind::kFacts);
    }
  }
  if (!tail_fold) {
    // Full fold: apply the range in order, copying (not moving) the
    // segment instances — open sessions still pin them. Tombstones apply
    // and vanish; the merged segment holds exactly the visible facts.
    push_new(MaterializeVisible(folded), SegmentKind::kFacts);
  }
  next->segments.insert(next->segments.end(), segs.begin() + end,
                        segs.end());
  return next;
}

std::shared_ptr<const Database::SegmentSet> Database::AutoFoldLocked(
    const DbState& state, std::shared_ptr<const SegmentSet> set) {
  const size_t limit = state.opts.auto_compact_segments;
  if (limit == 0 || set->segments.size() <= limit) return set;
  return FoldLocked(state, *set, Fold::kTiered);
}

Result<bool> Database::Compact() {
  std::lock_guard<std::mutex> writer(state_->writer_mu);
  if (state_->closed.load(std::memory_order_relaxed)) return false;
  std::shared_ptr<const SegmentSet> cur = state_->Current();
  std::shared_ptr<const SegmentSet> next =
      FoldLocked(*state_, *cur, Fold::kFull);
  // Copy-forward-then-swap: in durable mode the folded stack seals to
  // disk and the new manifest generation publishes *first*. A failure —
  // or a crash anywhere inside — leaves CURRENT naming the old
  // generation and the in-memory stack untouched; open sessions keep
  // their pins either way (segments are shared_ptr-owned in memory, not
  // read through the deleted files). A stack with nothing to fold seals
  // as it is, unless the disk holds it already.
  SEQDL_RETURN_IF_ERROR(
      CheckpointLocked(*state_, next != nullptr ? *next : *cur));
  if (next == nullptr) return false;
  state_->Publish(std::move(next));
  return true;
}

void Database::Close() {
  // Take the writer mutex so Close() serializes behind any in-flight
  // append: after Close() returns, the published epoch is final.
  std::lock_guard<std::mutex> writer(state_->writer_mu);
  if (!state_->closed.load(std::memory_order_relaxed)) {
    // Seal the stack so the next Open replays nothing (a no-op when the
    // disk holds it already). Best effort — on failure the WAL itself
    // still recovers everything.
    (void)CheckpointLocked(*state_, *state_->Current());
  }
  state_->closed.store(true, std::memory_order_relaxed);
}

bool Database::closed() const {
  return state_->closed.load(std::memory_order_relaxed);
}

uint64_t Database::epoch() const { return state_->Current()->epoch; }

size_t Database::NumSegments() const {
  return state_->Current()->segments.size();
}

size_t Database::NumFacts() const { return state_->Current()->total_facts; }

size_t Database::NumTombstones() const {
  std::shared_ptr<const SegmentSet> cur = state_->Current();
  size_t n = 0;
  for (const Segment& seg : cur->segments) {
    if (seg.kind == SegmentKind::kTombstones) ++n;
  }
  return n;
}

StoreStats Database::Stats() const { return Snapshot().Stats(); }

Result<PreparedProgram> Database::Compile(Program p,
                                          const CompileOptions& opts) const {
  StoreStats stats = Stats();
  CompileOptions with_stats = opts;
  with_stats.stats = &stats;
  return Engine::Compile(*state_->universe, std::move(p), with_stats);
}

Result<PreparedProgram> Database::Compile(Program p) const {
  return Compile(std::move(p), CompileOptions());
}

ViewManager& Database::views() const { return *state_->views; }

storage::StorageInfo Database::storage_info() const {
  return state_->storage != nullptr ? state_->storage->info()
                                    : storage::StorageInfo{};
}

Instance Database::edb() const {
  return MaterializeVisible(state_->Current()->segments);
}

const IndexedStore& Database::base() const {
  return *state_->Current()->segments.front().store;
}

size_t Database::NumIndexedFamilies() const {
  std::shared_ptr<const SegmentSet> cur = state_->Current();
  size_t n = 0;
  for (const Segment& seg : cur->segments) n += seg.store->NumIndexedFamilies();
  return n;
}

Result<Instance> Session::Run(const PreparedProgram& prog,
                              const RunOptions& opts,
                              EvalStats* stats) const {
  if (&prog.universe() != universe_) {
    return Status::InvalidArgument(
        "program was compiled against a different Universe than the "
        "database was opened with");
  }
  // RunOnStack fills EvalStats::derived_stats when asked; route it
  // through a local EvalStats if the caller did not pass one, so the
  // measurement still reaches the database's accumulator.
  EvalStats local;
  EvalStats* sink =
      stats != nullptr ? stats
                       : (opts.collect_derived_stats ? &local : nullptr);
  Result<Instance> out = prog.RunOnStack(pinned_->segments, opts, sink);
  if (out.ok() && accum_ != nullptr) {
    // A full recomputation happened: apply any epoch decays deferred by
    // appends, then record what this run actually derived.
    accum_->AgeOnRecompute(StatsAccumulator::kEpochDecay);
    if (opts.collect_derived_stats && sink != nullptr) {
      accum_->Record(sink->derived_stats);
    }
  }
  return out;
}

Instance Session::edb() const { return MaterializeVisible(pinned_->segments); }

StoreStats Session::Stats() const {
  StoreStats stats;
  // Each segment's store measures itself once (IndexedStore::Stats).
  // Fact segments sum (visible enumeration yields each fact once modulo
  // the documented shared-key bucket overcount); tombstone segments
  // *discount* — each tombstoned fact was measured exactly once in an
  // older fact segment, so subtracting makes a shrink visible to
  // StatsDrift instead of leaving cached plans ranked off stale, larger
  // relations.
  StoreStats discount;
  for (const Segment& seg : pinned_->segments) {
    if (seg.kind == SegmentKind::kFacts) {
      stats.MergeFrom(seg.store->Stats());
    } else {
      discount.MergeFrom(seg.store->Stats());
    }
  }
  stats.DiscountFrom(discount);
  stats.MergeFrom(accum_->Snapshot());
  return stats;
}

}  // namespace seqdl
