// Materialized views: derived results as first-class versioned state.
//
// A ViewSnapshot is the complete derived IDB of one prepared program at
// one database epoch — immutable, shared by shared_ptr, and published
// under the same MVCC discipline as the EDB's segment stack (database.h).
// The ViewManager (one per Database, reachable via Database::views())
// keeps at most one current snapshot per view key and keeps it fresh
// *incrementally*: when Refresh finds the database epoch has moved past a
// stored snapshot, it partitions the current segment stack by publish
// stamp (Segment::stamp) into the base prefix the snapshot
// already covers and the segments published since, and runs
// PreparedProgram::RunDelta — semi-naive delta evaluation of the net
// additions plus counting DRed (delete/re-derive) for the net
// retractions, against the stored IDB — instead of re-running the full
// fixpoint. Every stratum is adopted and patched in place, shrink epochs
// and negation included: a fact a negated relation gained seeds the
// deletion phase, and a fact it lost seeds the insertion pass. A
// snapshot pinned below SegmentSet::shrink_floor (a fold covered
// segments it never saw) falls back to a cold materialization. The
// refreshed snapshot is
// byte-identical to a cold fixpoint at the new epoch
// (tests/differential_test.cc enforces this at every epoch, across
// retraction and compaction).
//
// Epoch lifecycle of one view key:
//
//   epoch   0         1          2          3
//   EDB     [s0]      [s0 s1]    [s0 s1 s2] [s0 s1 s2 s3]
//            |          |           |          |
//   view    cold ----> delta ----> delta ----> delta     (Refresh calls)
//            v0@0       v1@1        v2@2        v3@3
//
// Each vk is immutable once published; a reader holding v1 keeps reading
// v1 while the manager publishes v3 (exactly like epoch-pinned Sessions).
// Compaction folds segments under an unchanged epoch: a view at that
// epoch is still a hit. A view older than the newest folded segment must
// not delta-evaluate the merged result — it mixes facts the view already
// counted with new ones, so their support would be counted twice and a
// later retraction would keep a dead tuple alive — so every fold raises
// shrink_floor and such a view re-materializes cold. Automatic folds
// avoid that cost by folding only segments every stored view has seen
// (OldestEpoch below; Database::OpenOptions::auto_compact_segments):
//
//   epoch   4 (eager refresh: views at 3)   after the fold
//   EDB     [s0 s1 s2 s3 s4]                [s0 T F s4]   (T, F @3)
//   view    v@3: base = s0..s3, delta = s4  v@3: base = s0 T F, delta = s4
//
// Every snapshot also records counting-based *support*: per derived
// tuple, how many rule firings produced it (RunOptions::support). The
// stored counts drive DRed on retraction epochs: the deletion phase
// decrements the support of every derivation consuming a retracted fact,
// only tuples whose count reaches zero are provisionally deleted, and
// only those need the expensive re-derivation check. Count-gating is
// exact only for relations whose support is acyclic — a relation that
// reaches itself through its stratum's other heads can be propped up by
// firings that die with the tuple itself, so the executor deletes those
// on the first decrement (classic over-deleting DRed, see
// CyclicHeads in engine.cc) and lets re-derivation rescue survivors.
// Every stratum carries its counts forward plus fresh events minus the
// deletion phase's decrements (saturating, floored at one for surviving
// tuples — a high-fan-in tuple can never wrap past zero and be wrongly
// dropped). A derivation counts and dies once, whichever of its
// positive or negated literals changed. The counts are a lower bound on
// the true derivation count, which errs in the safe direction (an
// undercount triggers a spurious re-derivation check, never a wrong
// deletion).
//
// A writer that must not show a view before its commit is durable
// evaluates it with Evaluate at the commit's staged stack (a Session the
// commit hands its work, Database::CommitWork) and stores it with
// Install once the stack has published; the server's write path does
// (service.h). Refresh is the two in one, at the published stack.
//
// Thread-safety: all ViewManager methods may be called from any thread.
// The map mutex guards lookups and publishes only — evaluation runs
// outside it, so a slow refresh never blocks hits on other keys. Two
// racing refreshes of one key both evaluate and the newer epoch wins. A
// stored view is never advanced backwards: a view stored at a newer
// epoch than the stack being evaluated re-pins (Refresh) or runs cold
// (Evaluate). The map mutex is the innermost lock: the compacting writer
// (OldestEpoch) and the server cache (Install, Invalidate) take it while
// holding their own.
#ifndef SEQDL_VIEW_VIEW_H_
#define SEQDL_VIEW_VIEW_H_

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>

#include "src/base/status.h"
#include "src/engine/database.h"
#include "src/engine/engine.h"
#include "src/engine/instance.h"

namespace seqdl {

/// Per-relation support counts of one view, shared between snapshots:
/// a delta refresh that neither decremented a relation nor derived new
/// facts for it reuses the previous snapshot's table wholesale instead of
/// rebuilding O(|view|) entries (both snapshots are immutable, so
/// sharing is safe).
using SharedSupport = std::map<RelId, std::shared_ptr<const TupleCounts>>;

/// One immutable materialized view: the complete derived IDB of a program
/// at one epoch, plus per-tuple support counts.
class ViewSnapshot {
 public:
  /// The database epoch this view is current at.
  uint64_t epoch() const { return epoch_; }
  /// Segments of the stack the view was evaluated over.
  uint64_t segments() const { return segments_; }
  /// The derived facts (never contains EDB facts — exactly what a cold
  /// Session::Run returns).
  const Instance& idb() const { return idb_; }
  /// Derivation-event counts per derived tuple (see file comment).
  /// Covers every tuple of idb() with a count >= 1.
  const SharedSupport& support() const { return support_; }
  /// Heap bytes of the view's tables: the rows and slots of every IDB
  /// relation and the rows, slots and counts of every support table (a
  /// table shared with another snapshot counts in both) — the currency of
  /// the server cache's byte accounting (service.h).
  size_t ApproxBytes() const { return bytes_; }

 private:
  friend class ViewManager;
  uint64_t epoch_ = 0;
  uint64_t segments_ = 0;
  Instance idb_;
  SharedSupport support_;
  size_t bytes_ = 0;
};

/// Keeps materialized views fresh across appends. Owned by Database
/// (heap-stable in its DbState); obtain via Database::views().
class ViewManager {
 public:
  struct Counters {
    /// Refresh found the stored snapshot already at the current epoch.
    uint64_t hits = 0;
    /// Full materializations (first Refresh of a key, or after
    /// Invalidate).
    uint64_t cold_runs = 0;
    /// Incremental refreshes (RunDelta over the segments published
    /// since).
    uint64_t delta_refreshes = 0;
    /// The subset of delta_refreshes whose window contained a tombstone
    /// segment — the DRed deletion/re-derivation machinery ran. (It
    /// also runs when a negated relation gains facts; those refreshes
    /// count here only with a tombstone in the window.)
    uint64_t dred_refreshes = 0;
    /// Always 0: a delta refresh maintains every stratum in place,
    /// negation included. Kept, with the wire field that reports it,
    /// while the repo benchmark still reads it (ROADMAP item 9).
    uint64_t strata_recomputed = 0;
  };

  /// The current snapshot for `key`, materializing or delta-refreshing
  /// as needed: a stored snapshot at the current epoch is returned as
  /// is; a stale one is advanced by RunDelta over the segments appended
  /// since; a missing one is cold-materialized (a full fixpoint). `key`
  /// is the caller's identity for the view (the server uses the program
  /// text); `prog` must be compiled against the database's Universe and
  /// must be the same program for every call with the same key — the
  /// manager stores results, not programs. On evaluation failure the
  /// stored snapshot (still correct at its own epoch) is left in place.
  Result<std::shared_ptr<const ViewSnapshot>> Refresh(
      const std::string& key, const PreparedProgram& prog,
      const RunOptions& opts = {}, EvalStats* stats = nullptr);

  /// The view of `key` at `at`'s stack, evaluated as Refresh would but
  /// stored nowhere (Install stores it): the stored snapshot when it is
  /// at `at`'s epoch, a delta refresh of it when it is older, and a cold
  /// run when none is stored or the stored one is newer than `at` (a
  /// view is never run backwards). `at` may be a commit's staged,
  /// not yet published stack.
  Result<std::shared_ptr<const ViewSnapshot>> Evaluate(
      const std::string& key, const PreparedProgram& prog, const Session& at,
      const RunOptions& opts = {}, EvalStats* stats = nullptr);

  /// Stores `view` as `key`'s snapshot unless a newer one is stored.
  /// `view` must be at a published epoch.
  void Install(const std::string& key,
               std::shared_ptr<const ViewSnapshot> view);

  /// The stored snapshot for `key` (possibly stale), or null.
  std::shared_ptr<const ViewSnapshot> Lookup(const std::string& key) const;

  /// Drops the stored snapshot for `key` (the next Refresh runs cold).
  void Invalidate(const std::string& key);
  /// Drops every stored snapshot.
  void Clear();

  size_t NumViews() const;
  Counters counters() const;

  /// The oldest epoch among the stored snapshots, or nullopt when none is
  /// stored. Automatic compaction folds only segments stamped at or below
  /// it, so no stored view sees a folded segment as delta. Takes only the
  /// map mutex (the compacting writer calls it under its writer mutex;
  /// no ViewManager path takes that mutex while holding this one).
  std::optional<uint64_t> OldestEpoch() const;

 private:
  friend class Database;
  explicit ViewManager(Database::DbState& state) : state_(&state) {}

  /// The view at `at`'s stack from `old` (null, or at most `at`'s epoch):
  /// `old` itself at that epoch, else delta or cold as Refresh decides.
  Result<std::shared_ptr<const ViewSnapshot>> Advance(
      std::shared_ptr<const ViewSnapshot> old, const Session& at,
      const PreparedProgram& prog, const RunOptions& opts, EvalStats* stats);

  Database::DbState* state_;
  mutable std::mutex mu_;
  std::map<std::string, std::shared_ptr<const ViewSnapshot>> views_;
  Counters counters_;
};

}  // namespace seqdl

#endif  // SEQDL_VIEW_VIEW_H_
