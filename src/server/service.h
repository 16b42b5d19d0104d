// DatabaseService: the engine-facing half of a seqdl server. Every front
// end reaches it through the request switch of server.h
// (ServiceRequestHandler): the TCP server and the CLI's stdin loop alike.
// Tests call it directly to exercise request handling without sockets.
//
// A service owns a versioned Database (database.h) and one serving cache
// keyed by *program text*: clients ship small program sources to the
// large, long-lived, indexed EDB, and clients sending byte-identical
// programs share one entry. An entry holds
//   * the compiled record: plan, admission report, lints, compile epoch,
//     and the statistics of the relations the rule bodies read, which
//     ranked the plan. Once they drift past recompile_drift (StatsDrift),
//     a write's eager refresh or the next request recompiles it;
//   * the maintained view (view/view.h), which a write refreshes instead
//     of dropping: delta evaluation of appended facts (RunDelta) and DRed
//     for retracted ones, negated inputs included, so re-serving after
//     ingest costs O(delta) instead of a full fixpoint;
//   * the renderings produced from the view, one per output relation,
//     which the write patches along with the view (PatchOutput renders
//     only the lines of the facts that left or arrived), so the next run
//     of a standing query is a plain cache hit: no plan check, no view
//     lookup, no render.
// ServiceOptions::result_cache_entries and cache_bytes bound the entries;
// past either, the least recently used go, compiled record and view
// together. Hit/miss/evict counters travel in Stats() replies.
//
// Thread-safety: all methods may be called concurrently from any number
// of threads. Run pins an epoch snapshot per call (Database::Snapshot or
// an immutable ViewSnapshot); writes serialize on the database's writer
// mutex. One mutex guards the cache, for lookups, inserts and evictions
// only: parse, compile, the drift check's Database::Stats(), evaluation,
// rendering and patching run outside it, so a slow compile or refresh
// never stalls a cache hit. Renderings are shared and immutable: a hit
// takes a reference under the mutex and copies the bytes after it, and
// a write installs patched ones the same way. A run holds its compiled
// record by shared_ptr, so an eviction never pulls the plan out from
// under it.
#ifndef SEQDL_SERVER_SERVICE_H_
#define SEQDL_SERVER_SERVICE_H_

#include <cstdint>
#include <functional>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>

#include "src/analysis/admission.h"
#include "src/base/status.h"
#include "src/engine/database.h"
#include "src/engine/engine.h"
#include "src/engine/stats.h"
#include "src/server/protocol.h"
#include "src/term/universe.h"
#include "src/view/view.h"

namespace seqdl {

/// The default caps clamped onto runs of *generative* programs under
/// AdmissionPolicy::kBudget: small enough that a non-terminating
/// fixpoint fails (kResourceExhausted) in milliseconds instead of
/// starving the server, large enough for legitimate bounded transforms.
inline RunOptions DefaultGenerativeBudget() {
  RunOptions r;
  r.max_facts = 100'000;
  r.max_iterations = 10'000;
  r.max_path_length = 4096;
  return r;
}

struct ServiceOptions {
  /// Recompile a cached program once the database's measured statistics
  /// drift past this relative change since the plan was ranked
  /// (StatsDrift); the epoch must also have moved. <= 0 recompiles on
  /// every epoch bump; >= 1 effectively never.
  double recompile_drift = 0.25;
  /// Budgets and knobs applied to every Run (the per-request cancel
  /// callback is layered on top of, and ORed with, any cancel set here).
  RunOptions run_options;
  /// Diagnostic sink for recompilation notices ("recompiled <name>
  /// (stats drift 0.31 >= 0.25 since epoch 3)"); null = silent.
  std::function<void(const std::string&)> log;
  /// Capacity of the cache in *program texts*; an entry holds the
  /// compiled program, its maintained view and its renderings. 0 keeps
  /// nothing, compiled programs included: every Compile and Run parses
  /// and compiles fresh, and every Run evaluates from scratch on an
  /// epoch-pinned session — the differential harness's mode. At a pinned
  /// epoch the EDB is immutable and evaluation is deterministic, so a
  /// run's rendered output is a pure function of (program text, output
  /// relation, epoch): repeated point queries are answered straight from
  /// the cache — a hit costs a hash lookup instead of a fixpoint (>= 100k
  /// small queries/s on loopback) — and a write refreshes the entries'
  /// views instead of dropping them. Compaction (same facts, same epoch)
  /// leaves hits valid.
  size_t result_cache_entries = 4096;
  /// Byte budget for the cache, summed over entries: each is charged its
  /// program text, its rendered output bytes and the bytes of its view's
  /// tables (ViewSnapshot::ApproxBytes). When the total runs past it,
  /// least-recently-used entries are evicted (their views too) until it
  /// fits — the hottest entry always survives. 0 = unbounded.
  size_t cache_bytes = 64u << 20;
  /// Keep materialized views and refresh them across writes (the
  /// default). False caches renderings per epoch only, and the first run
  /// of a program after a write evaluates a full fixpoint.
  bool maintain_views = true;
  /// Delta-refresh every cached view eagerly inside Append and Retract
  /// (the `seqdl serve` write path) and patch its renderings to match, so
  /// the next query of each is a cache hit. False defers the refresh to
  /// the next Run of each program, which then renders in full.
  bool refresh_on_append = true;
  /// How programs flagged *generative* by admission analysis
  /// (analysis/admission.h: SD301-SD303, potentially non-terminating
  /// fixpoints) are treated. kOff runs everything under `run_options`
  /// unchanged (trusted clients — the default, and the differential
  /// harness's mode); kBudget clamps their runs to `generative_budget`;
  /// kStrict refuses to Run them (kFailedPrecondition naming the SD3xx
  /// finding). Compile always succeeds and reports the verdict.
  AdmissionPolicy admission = AdmissionPolicy::kOff;
  /// Caps enforced on generative programs under kBudget, applied as the
  /// minimum with `run_options` (a budget can only tighten).
  RunOptions generative_budget = DefaultGenerativeBudget();
};

/// Occupancy and lifetime traffic counters of the serving cache, rendered
/// into Stats() replies.
struct CacheCounters {
  uint64_t hits = 0;        ///< runs answered from a cached rendering
  uint64_t misses = 0;      ///< runs that had to evaluate or render
  uint64_t evictions = 0;   ///< entries evicted past the byte/entry caps
  uint64_t entries = 0;     ///< programs currently cached
  uint64_t bytes = 0;       ///< accounted bytes currently cached
};

/// The request handlers of a seqdl server, over an owned Database.
class DatabaseService {
 public:
  /// `u` must be the Universe `db` was opened with and must outlive the
  /// service.
  DatabaseService(Universe& u, Database db, ServiceOptions opts = {});

  DatabaseService(const DatabaseService&) = delete;
  DatabaseService& operator=(const DatabaseService&) = delete;

  /// Parses + plans the request's program and caches the plan keyed by
  /// its text; a later identical text is a cache hit (no parse, no plan)
  /// while the entry lasts. Parse errors come back annotated
  /// "<source_name>:line:col: ...".
  Result<protocol::CompileReply> Compile(const protocol::CompileRequest& req);

  /// Evaluates the request's program on an epoch-pinned snapshot and
  /// renders the derived facts (projected onto output_rel when set).
  /// Compiles through the same cache as Compile. `cancel` (may be null)
  /// is polled during evaluation; returning true fails the run with
  /// kCancelled — the server's graceful-drain hook.
  Result<protocol::RunReply> Run(const protocol::RunRequest& req,
                                 const std::function<bool()>& cancel = {});

  /// Parses the request's facts and publishes them as a new segment,
  /// then (with maintain_views + refresh_on_append) delta-refreshes every
  /// cached view to the new epoch and patches its renderings, so
  /// re-serving stays O(delta) and the next run is a cache hit.
  Result<protocol::AppendReply> Append(const protocol::AppendRequest& req);

  /// Parses the request's facts and retracts the visible matches by
  /// publishing a tombstone segment (Database::Retract). Cached views go
  /// through the same eager refresh as Append — the ViewManager sees the
  /// tombstone epoch and runs the DRed delete/re-derive phases, never the
  /// insertion pass alone, so a shrink epoch can never be served from a
  /// monotone-refresh result.
  Result<protocol::RetractReply> Retract(const protocol::RetractRequest& req);

  /// Current epoch / segment / fact counts.
  protocol::DbInfo Info() const;

  /// Folds the segment stack (Database::Compact). Errors only in
  /// durable mode, when sealing the merged segment to disk fails — the
  /// Status carries an SD4xx diagnostic code.
  Result<protocol::CompactReply> Compact();

  /// Rendered measured statistics (Database::Stats), closed by a
  /// `universe  paths=N atoms=M` line (the size of the Universe's symbol
  /// stores), plus cache and view counters.
  protocol::StatsReply Stats() const;

  /// Cache occupancy and traffic.
  CacheCounters CacheStats() const;

  /// Distinct program texts currently cached (= CacheStats().entries).
  size_t NumCachedPrograms() const;
  /// Renderings currently in the cache: one per (program, output
  /// relation) pair served at its entry's epoch.
  size_t NumCachedResults() const;

  Database& db() { return db_; }
  const Database& db() const { return db_; }
  Universe& universe() { return *u_; }

 private:
  /// What one compile of a program text produced. Immutable, shared by
  /// the cache entry and the runs using it.
  struct CompiledProgram {
    PreparedProgram prog;
    uint64_t epoch = 0;         ///< db epoch at compile time
    StoreStats stats;           ///< Stats() of the relations bodies read
    AdmissionReport admission;  ///< Run enforces the policy from it
    DiagnosticList lints;       ///< SD1xx warnings, for compile replies
    std::string source_name;    ///< the request's name, for recompile logs
  };

  /// Renderings of one view, keyed by output relation ("" = all derived
  /// facts). Immutable once made, so readers copy them outside mu_.
  using Renderings =
      std::map<std::string, std::shared_ptr<const std::string>>;

  /// One program text's cache entry: its compiled record and, once it
  /// has run, its maintained view (null with maintain_views off) and
  /// every rendering of it at `epoch`, made by a run or patched by a
  /// write. `bytes` accounts the program text, the view's materialized
  /// IDB and the rendering strings.
  struct Entry {
    std::shared_ptr<const CompiledProgram> compiled;
    std::optional<uint64_t> epoch;  ///< unset until the program runs
    uint64_t segments = 0;
    std::shared_ptr<const ViewSnapshot> view;
    Renderings rendered;
    /// Stats of the run/refresh that brought the entry to `epoch`;
    /// replayed into replies answered from the cache.
    protocol::WireEvalStats stats;
    size_t bytes = 0;
    std::list<std::string>::iterator lru;  ///< position in lru_
  };

  struct Prepared {
    std::shared_ptr<const CompiledProgram> compiled;
    bool cache_hit = false;  ///< served from the cache: no parse, no plan
  };

  /// The cached record of `program_text`, through Revalidate.
  Result<Prepared> Prepare(const std::string& program_text,
                           const std::string& source_name);
  /// `cached` (may be null) unless the statistics its bodies read drifted
  /// past recompile_drift; otherwise a fresh compile, cached. The drift
  /// is measured against `now` when given (a Stats() the caller took for
  /// several programs at once), else against a fresh Stats().
  Result<Prepared> Revalidate(const std::string& program_text,
                              const std::string& source_name,
                              std::shared_ptr<const CompiledProgram> cached,
                              const StoreStats* now);

  /// Parse, analyze and compile against a fresh statistics snapshot.
  Result<std::shared_ptr<const CompiledProgram>> CompileFresh(
      const std::string& program_text, const std::string& source_name) const;

  /// Enforces the service's admission policy on one prepared run:
  /// returns kFailedPrecondition for a generative program under kStrict,
  /// clamps `ropts` to `generative_budget` under kBudget, and passes
  /// tame programs through untouched.
  Status ApplyAdmission(const AdmissionReport& admission,
                        RunOptions* ropts) const;

  /// After a write (Append or Retract), revalidates the plan of every
  /// entry with a view against one Stats() of the stack, advances the
  /// view to the current epoch under the program's admission policy
  /// (Refresh picks cold vs delta, with DRed when facts die) and patches
  /// the entry's renderings from the old view to the new one. A failed
  /// refresh leaves the entry stale and a failed patch drops its
  /// rendering: the next Run recovers either.
  void RefreshCachedViews();

  /// Moves `it`'s entry to the LRU front. Caller holds mu_.
  void TouchLocked(std::unordered_map<std::string, Entry>::iterator it);
  /// The entry for `key`, moved to the LRU front; inserted holding
  /// `compiled` when missing. Caller holds mu_.
  Entry& TouchOrInsertLocked(
      const std::string& key,
      const std::shared_ptr<const CompiledProgram>& compiled);
  /// An entry's view and its renderings of it, as SetViewLocked replaces
  /// them. Destroyed after releasing mu_, so no snapshot or rendering is
  /// freed under the lock.
  struct Replaced {
    std::shared_ptr<const ViewSnapshot> view;
    Renderings rendered;
  };
  /// Points `e` (the entry for `key`) at `view` at `epoch` with
  /// `rendered`, renderings of `view`, and returns its previous view and
  /// renderings. Caller holds mu_.
  [[nodiscard]] Replaced SetViewLocked(
      const std::string& key, Entry& e,
      std::shared_ptr<const ViewSnapshot> view, uint64_t epoch,
      uint64_t segments, const protocol::WireEvalStats& stats,
      Renderings rendered);
  /// Evicts LRU entries until entry and byte caps hold, never touching
  /// `keep`. Caller holds mu_.
  void EvictLocked(const std::string& keep);

  Universe* u_;
  Database db_;
  ServiceOptions opts_;

  /// The cache, keyed by program text, with an LRU list for eviction
  /// (front = most recently used).
  mutable std::mutex mu_;
  std::unordered_map<std::string, Entry> entries_;
  std::list<std::string> lru_;
  size_t cache_bytes_used_ = 0;
  CacheCounters counters_;
};

}  // namespace seqdl

#endif  // SEQDL_SERVER_SERVICE_H_
