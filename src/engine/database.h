// Database/Session: a long-lived, versioned EDB serving concurrent runs.
//
// The EDB is an append-log of immutable *segments*, one per committed
// ingest batch. The segment list is published atomically under an
// *epoch* counter (MVCC): Database::Append never mutates existing
// segments — it dedupes the freshly ingested facts against the current
// stack, builds a new IndexedStore (index.h) over what is left, and
// publishes segments+1 at epoch+1. Snapshot() pins the
// segment list of the current epoch by shared ownership, so a session
// opened at epoch k keeps reading exactly epoch k's facts —
// byte-identical results before, during, and after any number of later
// commits or compactions — while writers race ahead
// (single-writer/multi-reader, TSan-enforced):
//
//   SEQDL_ASSIGN_OR_RETURN(Database db, Database::Open(u, std::move(edb)));
//   SEQDL_ASSIGN_OR_RETURN(PreparedProgram prog, Engine::Compile(u, p));
//   Session at_k = db.Snapshot();                        // pins epoch k
//   SEQDL_ASSIGN_OR_RETURN(uint64_t e, db.Append(std::move(more_facts)));
//   Session at_k1 = db.Snapshot();                       // sees the append
//   SEQDL_ASSIGN_OR_RETURN(Instance before, at_k.Run(prog));   // epoch k
//   SEQDL_ASSIGN_OR_RETURN(Instance after, at_k1.Run(prog));   // epoch k+1
//
// Each segment's store builds the (relation, column, family) index a
// probe asks for on first use, exactly once, and measures its StoreStats
// once; runs probe every segment and Stats() merges the measurements.
// Compact() folds the stack into one merged segment
// (same facts, same epoch — compaction is invisible to semantics); open
// sessions keep their pinned segments alive via shared_ptr, so compaction
// under open sessions is a semantic no-op for them and the retired
// segments are freed when the last pinned session goes away.
// OpenOptions::auto_compact_segments makes Append fold the stack
// automatically once it grows past a threshold, LSM-style. That fold is
// tiered: while the segments above the base stay small next to it, it
// folds only them (into one tombstone and one fact segment) and keeps
// the base segment — indexes, statistics and sealed file — as it is.
// It runs in memory only; the next checkpoint seals the folded stack.
//
// Retract() publishes the inverse of Append as the same kind of immutable
// segment: a *tombstone* segment whose tuples shadow matching facts in
// every older segment — a fact is visible iff the newest segment holding
// it is a fact segment (Visible, index.h). Commits maintain a *flip
// invariant*: Append only publishes facts not currently visible, Retract
// only tombstones facts that are, so each fact's occurrences in stack
// order alternate fact/tombstone/fact/… and visibility is decided by the
// newest occurrence. Sessions pinned before a retraction keep seeing the
// fact (MVCC as usual); Compact() applies and folds tombstones away — the
// merged stack holds exactly the visible facts and zero tombstone
// segments. Every fold raises SegmentSet::shrink_floor to its newest
// folded stamp: views older than that never saw every folded segment and
// can no longer be delta-maintained.
//
// Thread-safety contract: one writer at a time (Append/Retract/Compact
// serialize on an internal writer mutex), any number of concurrent
// readers; the published segment list is swapped under a mutex and pinned
// by shared_ptr, all per-run mutable state is private to the run, and the
// Universe interns with synchronization. Sessions may outlive epochs but
// not the Database; the Database must not outlive the Universe.
//
// Unlike PreparedProgram::Run (input plus derived facts), Session::Run
// returns only the facts the program derived — the EDB is shared and
// usually large, so callers materialize session.edb() + derived only when
// they actually need the union.
#ifndef SEQDL_ENGINE_DATABASE_H_
#define SEQDL_ENGINE_DATABASE_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "src/base/status.h"
#include "src/engine/engine.h"
#include "src/engine/index.h"
#include "src/engine/instance.h"
#include "src/engine/stats.h"
#include "src/storage/storage.h"
#include "src/term/universe.h"

namespace seqdl {

class Session;
class ViewManager;

/// A long-lived, versioned EDB: an epoch-stamped stack of immutable
/// segments shared by every session. Move-only; must outlive all
/// sessions opened from it.
class Database {
 public:
  struct OpenOptions {
    /// Append/Retract fold the segment stack once it holds more than
    /// this many segments (0 = compact manually via Compact()). Keeps
    /// read amplification bounded under sustained ingest, LSM-style. The
    /// fold covers the bottom segments every stored view has already
    /// seen (all of them when no view is stored, or when a view lags so
    /// far that the rest would stay over the limit). While the net
    /// change above the base stays under a quarter of the base, it folds
    /// only that tail into one tombstone and one fact segment and keeps
    /// the base segment as it is; otherwise it merges the covered range
    /// into a new base. Either way the stack may keep tombstone segments.
    size_t auto_compact_segments = 0;
    /// Durability. Empty (the default) keeps the database purely in
    /// memory. Non-empty names a data directory (created if absent):
    /// commits write a CRC-framed WAL record *before* they publish, and
    /// the stack seals to immutable on-disk files at checkpoints:
    /// seeding, the WAL threshold below, Close() and Compact(), never an
    /// automatic fold. Open on an initialized directory recovers the
    /// last committed epoch's visible facts (sealed segments + WAL tail
    /// replay, folding as it goes); the segment shape and shrink_floor
    /// may differ from the crash-time stack's. See docs/storage.md.
    std::string data_dir;
    /// When a commit's WAL write reaches stable media (storage/wal.h):
    /// kAlways fsyncs per commit, kInterval at most once per
    /// `sync_interval_ms`, kNever leaves flushing to the OS.
    storage::SyncMode sync_mode = storage::SyncMode::kAlways;
    uint32_t sync_interval_ms = 100;
    /// Seal the stack and rotate the WAL once the log outgrows this.
    /// Automatic folds do not checkpoint, so this bounds the log Open
    /// replays (docs/storage.md measures the replay rate).
    uint64_t checkpoint_wal_bytes = 4ull << 20;
  };

  /// Takes ownership of `edb` and publishes it as the epoch-0 segment.
  /// `u` must be the Universe the instance's paths are interned in and
  /// must outlive the Database. (Two overloads rather than a default
  /// argument: GCC rejects defaulted nested-aggregate arguments inside
  /// the enclosing class.)
  static Result<Database> Open(Universe& u, Instance edb,
                               const OpenOptions& opts);
  static Result<Database> Open(Universe& u, Instance edb);

  /// Durable open without a seed instance: recovers an initialized
  /// `opts.data_dir` to its last committed epoch, or initializes a
  /// fresh directory with an empty EDB. `opts.data_dir` must be
  /// non-empty. The Instance overload above also accepts a data_dir,
  /// but only to *initialize* a fresh directory from `edb` — opening
  /// an already-initialized directory with a non-empty seed fails with
  /// kIoError [SD405] rather than guessing whether to merge or ignore.
  static Result<Database> Open(Universe& u, const OpenOptions& opts);

  /// True when `dir` holds an initialized data directory (a CURRENT
  /// pointer): Open will recover rather than initialize.
  static bool DataDirInitialized(const std::string& dir);

  // Moves and the destructor are defined out of line: DbState holds the
  // (forward-declared) ViewManager by unique_ptr.
  Database(Database&&) noexcept;
  Database& operator=(Database&&) noexcept;
  ~Database();
  Database(const Database&) = delete;
  Database& operator=(const Database&) = delete;

  /// An epoch-pinned view of the database: the returned session reads
  /// exactly the facts committed as of now, forever, regardless of later
  /// Append/Retract/Compact calls. Any number may be open at once, from
  /// any threads.
  Session Snapshot() const;

  /// Work a commit runs against a session pinned at its new stack (the
  /// epoch Append or Retract returns), beside the WAL sync or after
  /// publishing (Append).
  using CommitWork = std::function<void(const Session& staged)>;

  /// Publishes `delta` as a new immutable segment and bumps the epoch.
  /// Facts already present in the current stack are dropped (segments
  /// stay pairwise disjoint); if nothing remains, no segment is published
  /// and the epoch does not move. Returns the epoch the facts are visible
  /// at, and (optionally) how many facts were actually new — measured
  /// under the writer lock, so it is exact even with concurrent writers.
  /// Serializes with other writers; never blocks readers.
  ///
  /// `work` (may be empty) runs once per commit that changes something.
  /// When the commit owes a WAL sync and no other commit is in flight
  /// (waiting for the writer lock or running its own work), it runs
  /// before the stack publishes, under the writer
  /// lock, while the sync is in flight on the storage engine's helper
  /// thread (StorageEngine::LogCommit): the fsync hides behind it, and
  /// nothing it computes can be shown before the commit is durable.
  /// Otherwise (in memory, a sync mode that owes no sync, or concurrent
  /// writers) it runs after the stack published, outside the writer
  /// lock, so the other writers' commits need not wait for it. It does
  /// not run when nothing changes or the WAL write fails; when it ran
  /// beside a sync that then fails, its results are the caller's to
  /// discard. An exception it
  /// throws propagates once the commit has published; a commit that
  /// fails returns its Status instead. It must not write to this
  /// database.
  Result<uint64_t> Append(Instance delta, size_t* appended = nullptr,
                          const CommitWork& work = {});

  /// Publishes a *tombstone* segment retracting `victims` and bumps the
  /// epoch. Facts not currently visible are dropped (retracting an absent
  /// or already-retracted fact is a no-op); if nothing remains, no
  /// segment is published and the epoch does not move. Returns the epoch
  /// the retraction is visible at, and (optionally) how many facts were
  /// actually retracted. Serializes with other writers; never blocks
  /// readers — sessions pinned at older epochs keep seeing the facts.
  /// `work` runs as for Append.
  Result<uint64_t> Retract(Instance victims, size_t* retracted = nullptr,
                           const CommitWork& work = {});

  /// Folds all current segments into one merged *fact* segment, applying
  /// tombstones as it goes: the merged stack holds exactly the visible
  /// facts and no tombstone segments, so post-compaction queries pay no
  /// shadow probes at all. The visible fact set and the epoch are
  /// unchanged — compaction is invisible to semantics; it trades one
  /// rebuild for O(1) segment probes afterwards. Stored views older than
  /// the newest folded segment re-materialize cold at their next Refresh
  /// (the fold raises shrink_floor). Open sessions keep their
  /// pinned pre-compaction segments (freed when the last such session
  /// closes). Returns false if there was nothing to fold (one segment or
  /// none). In durable mode the merged segment seals to disk and a new
  /// manifest generation publishes *before* the in-memory swap
  /// (copy-forward-then-swap): on error nothing changes, in memory or
  /// on disk, and the Status carries an SD4xx diagnostic code
  /// (DiagnosticFromStatus renders it). A stack with nothing to fold
  /// still seals when the WAL holds records, so afterwards the disk
  /// holds exactly the stack. Serializes with other writers.
  Result<bool> Compact();

  /// Retires the database from ingest: every later Append or Retract
  /// fails with kFailedPrecondition, and Compact becomes a
  /// no-op. Reads are unaffected — Snapshot() and open sessions keep
  /// serving the final epoch. Idempotent. A draining server closes its
  /// database so late appends cannot land after the final epoch was
  /// reported.
  void Close();
  bool closed() const;

  /// The current epoch: 0 after Open, +1 per published Append/Retract.
  uint64_t epoch() const;
  /// Number of segments in the current stack (1 after Open or Compact).
  size_t NumSegments() const;
  /// Total *visible* facts across the current stack (appended minus
  /// retracted).
  size_t NumFacts() const;
  /// Number of tombstone segments in the current stack: 0 right after
  /// Open, Compact() or a size-ratio fold, which fold every tombstone
  /// away. A segment-count fold may keep some: the one holding the base
  /// facts the folded tail retracted, and any above the folded range.
  size_t NumTombstones() const;

  /// Measured per-(relation, column, index-family) statistics of the
  /// current epoch: every live segment's measurement (taken once per
  /// segment, IndexedStore::Stats) merged with everything sessions
  /// derived in runs that set
  /// RunOptions::collect_derived_stats. Derived-run measurements age out
  /// as epochs bump (StatsAccumulator::Age), so estimates can shrink
  /// after compaction instead of pinning the all-time max. Feed the
  /// snapshot into CompileOptions::stats — or just call Compile() below —
  /// so the planner ranks access paths by measured selectivity.
  /// Thread-safe.
  StoreStats Stats() const;

  /// Compiles `p` against this database's Universe with Stats() as the
  /// planner's selectivity input. Equivalent to Engine::Compile with
  /// opts.stats pointed at a Stats() snapshot. (Two overloads rather than
  /// a default argument, matching Open above.)
  Result<PreparedProgram> Compile(Program p, const CompileOptions& opts) const;
  Result<PreparedProgram> Compile(Program p) const;

  /// The materialized-view subsystem over this database (view/view.h):
  /// per-program derived-IDB snapshots kept current across appends by
  /// delta evaluation instead of re-running the fixpoint. Lazily does
  /// nothing until someone calls ViewManager::Refresh; heap-stable (lives
  /// in DbState), so the reference survives moves of the Database.
  ViewManager& views() const;

  /// Durability counters (manifest generation, on-disk bytes, WAL
  /// length) for DbInfo/kStats replies. All zero for an in-memory
  /// database. Thread-safe (server stats workers race the writer).
  storage::StorageInfo storage_info() const;

  Universe& universe() const { return *state_->universe; }
  /// Materializes the union of the current stack's facts (a copy — the
  /// EDB spans several immutable segments once appends happened).
  Instance edb() const;
  /// The first (oldest / post-compaction merged) segment of the current
  /// stack, for tests and tools. The reference is stable only while no
  /// concurrent writer compacts; single-threaded callers only.
  const IndexedStore& base() const;
  /// Number of (relation, column, family) indexes built so far, summed
  /// over the current stack's segments.
  size_t NumIndexedFamilies() const;

 private:
  friend class Session;
  friend class ViewManager;

  /// One published version: an immutable, atomically swapped value.
  /// Sessions pin it (and thereby every segment) by shared ownership.
  struct SegmentSet {
    uint64_t epoch = 0;
    /// Bottom of the stack first. A segment's stamp is how ViewManager
    /// tells the delta segments apart from the base a view of epoch e
    /// already covers: everything stamped > e is new. A folded segment
    /// mixes facts the view has seen with facts it has not, so
    /// delta-evaluating it would count support twice; `shrink_floor`
    /// sends such views to a cold run.
    std::vector<Segment> segments;
    /// Delta-maintenance horizon: a view pinned at an epoch <
    /// shrink_floor cannot be delta-maintained, because a fold merged
    /// segments the view has not seen with ones it has (and may have
    /// folded away tombstones it never observed) — Refresh must fall
    /// back to a cold run. Every fold, automatic or explicit, raises it
    /// to the fold's newest stamp; 0 while nothing was ever folded.
    uint64_t shrink_floor = 0;
    /// Visible facts (appended minus retracted).
    size_t total_facts = 0;
  };

  /// Heap-stable shared state: the Database object may move while
  /// sessions hold pointers into this.
  struct DbState {
    // Out of line: the unique_ptr<ViewManager> member must only require
    // the complete ViewManager type inside database.cc.
    DbState();
    ~DbState();

    Universe* universe = nullptr;
    OpenOptions opts;
    /// Guards `current` (pointer swap only — never held during index
    /// builds or runs).
    mutable std::mutex mu;
    std::shared_ptr<const SegmentSet> current;
    /// Serializes Append/Retract/Compact (single-writer).
    std::mutex writer_mu;
    /// Commits between entering Commit and returning from it, their
    /// work included: a commit runs its work beside its WAL sync only
    /// while it is the only one (Append).
    std::atomic<int> commits_in_flight{0};
    /// Set by Close(): writers fail, readers continue.
    std::atomic<bool> closed{false};
    StatsAccumulator accum;
    /// The materialized-view subsystem (view/view.h); constructed at
    /// Open so views() can hand out a stable reference.
    std::unique_ptr<ViewManager> views;
    /// Durability engine (null for an in-memory database). Mutated only
    /// under writer_mu; storage->info() is internally synchronized.
    std::unique_ptr<storage::StorageEngine> storage;
    /// True while Open replays the WAL tail through the normal commit
    /// path: suppresses WAL logging (the records are already on disk)
    /// and the WAL-threshold checkpoint (rotating the WAL mid-replay
    /// would drop the records not yet replayed). The automatic fold
    /// still runs, so the replayed stack stays shallow and replay time
    /// linear in the log. Only touched during single-threaded Open.
    bool replaying = false;

    std::shared_ptr<const SegmentSet> Current() const {
      std::lock_guard<std::mutex> lock(mu);
      return current;
    }
    void Publish(std::shared_ptr<const SegmentSet> next) {
      std::lock_guard<std::mutex> lock(mu);
      current = std::move(next);
    }
  };

  explicit Database(std::unique_ptr<DbState> state)
      : state_(std::move(state)) {}

  /// The one commit path of Append (kFacts), Retract (kTombstones) and
  /// WAL replay: publishes the facts of `batch` whose visibility the
  /// commit flips as one segment of `kind` at the next epoch, once they
  /// are in the WAL, and runs `work` as Append says. `committed` (may be
  /// null) receives how many facts that was.
  static Result<uint64_t> Commit(DbState& state, SegmentKind kind,
                                 Instance batch, size_t* committed,
                                 const CommitWork& work);
  /// The tiered fold of the segment-count trigger, or the full fold of
  /// Compact().
  enum class Fold { kTiered, kFull };
  /// The stack `fold` makes of `cur`: the same visible facts at the same
  /// epoch, shrink_floor raised to the newest folded stamp. Null when
  /// `cur` has one segment or none. writer_mu must be held.
  static std::shared_ptr<const SegmentSet> FoldLocked(const DbState& state,
                                                      const SegmentSet& cur,
                                                      Fold fold);
  /// The automatic fold: the tiered fold of `set` iff it holds more
  /// segments than auto_compact_segments, else `set`. A commit stages it
  /// with its new segment. Calls no storage function: every commit it
  /// folds is durable in the WAL once the commit publishes, and the next
  /// checkpoint seals the folded stack. writer_mu must be held.
  static std::shared_ptr<const SegmentSet> AutoFoldLocked(
      const DbState& state, std::shared_ptr<const SegmentSet> set);
  /// Seals the stack after a commit if the WAL outgrew its threshold
  /// (not while replaying). Open runs it once more after replay. Best
  /// effort; writer_mu must be held.
  static void AfterCommitLocked(DbState& state);
  /// Seals the *given* (about-to-publish or current) stack under a new
  /// manifest generation (StorageEngine::Checkpoint: segments already
  /// sealed keep their files). Runs at seeding, at the WAL threshold, at
  /// Close() and at Compact() only. writer_mu must be held. No-op in
  /// memory-only mode.
  static Status CheckpointLocked(DbState& state, const SegmentSet& set);

  std::unique_ptr<DbState> state_;
};

/// An epoch-pinned snapshot handle over a Database. Copyable and cheap;
/// safe to use from one thread at a time (open one per thread —
/// Snapshot() is free). All runs see exactly the facts of the pinned
/// epoch and write only private overlays; concurrent Append/Retract/
/// Compact on the Database never changes what this session reads. Pins
/// its segments by shared ownership, so moving the Database — or
/// compacting it — does not invalidate open sessions.
class Session {
 public:
  /// Runs `prog` over the pinned epoch's EDB; returns only the derived
  /// IDB facts. `prog` must be compiled against the database's Universe.
  /// With RunOptions::collect_derived_stats set, the run's derived facts
  /// are measured into EvalStats::derived_stats and folded into the
  /// Database's Stats(), so later compiles plan from observed workloads.
  Result<Instance> Run(const PreparedProgram& prog, const RunOptions& opts = {},
                       EvalStats* stats = nullptr) const;

  /// The epoch this session is pinned to.
  uint64_t epoch() const { return pinned_->epoch; }
  /// Segments backing this snapshot (compaction after the pin does not
  /// change this — the pre-compaction stack stays pinned).
  size_t NumSegments() const { return pinned_->segments.size(); }
  /// Total EDB facts visible to this session (appended minus retracted
  /// as of the pinned epoch).
  size_t NumFacts() const { return pinned_->total_facts; }
  /// Materializes the visible facts of the pinned stack (a copy):
  /// fact segments union in, tombstone segments remove.
  Instance edb() const;
  /// Database::Stats() of the pinned stack: every segment's measurement
  /// (tombstone segments discount) merged with the derived-run
  /// measurements accumulated so far.
  StoreStats Stats() const;

 private:
  friend class Database;
  friend class ViewManager;
  Session(Universe& u, std::shared_ptr<const Database::SegmentSet> pinned,
          StatsAccumulator* accum)
      : universe_(&u), pinned_(std::move(pinned)), accum_(accum) {}

  Universe* universe_;
  std::shared_ptr<const Database::SegmentSet> pinned_;
  /// The owning Database's derived-stats accumulator (heap-stable).
  StatsAccumulator* accum_;
};

}  // namespace seqdl

#endif  // SEQDL_ENGINE_DATABASE_H_
