// seqdl — command line front end for the Sequence Datalog library.
//
//   seqdl run <program.sdl> [<instance.sdl>] [--data-dir=DIR]
//              [--sync=always|interval|never] [--output=REL] [--naive]
//              [--no-index] [--stats] [--explain] [--legacy-planner]
//       Evaluate a program on an instance and print the derived facts
//       (all IDB relations, or just --output). The planner ranks access
//       paths by selectivity statistics measured over the instance;
//       --legacy-planner forces the first-ground-argument heuristic.
//       --explain prints the chosen plan (key column and scan order per
//       rule step); --stats reports the engine's extended counters
//       (per-stratum rounds, a per-index-family probe table, compile/run
//       wall times). With --data-dir the program runs against a durable
//       database (docs/storage.md): an initialized directory is
//       recovered without re-ingesting anything (the instance argument
//       becomes optional), a fresh one is seeded from the instance.
//
//   seqdl serve [<instance.sdl>] [--data-dir=DIR]
//               [--sync=always|interval|never] [--stats] [--threads=N]
//               [--recompile-drift=X] [--auto-compact=N] [--listen=PORT]
//               [--admission=off|budget|strict]
//       Load the instance into a versioned Database once, then serve it.
//       With --data-dir the database is durable: commits are logged to a
//       WAL before they publish (--sync picks the fsync policy), and a
//       restart pointed at the same directory recovers the exact
//       pre-restart EDB without re-ingesting any source file (the
//       instance argument is then optional and ignored if given).
//       With --listen=PORT the database is served over TCP (the framed
//       wire protocol of src/server/protocol.h; PORT 0 picks a free
//       ephemeral port): the server prints "listening on HOST:PORT" to
//       stdout and runs until a client sends `shutdown`. --threads=N
//       sizes the worker pool (one connection served per worker at a
//       time). Use `seqdl query --connect=HOST:PORT ...` or the C++
//       client (src/server/client.h) to talk to it; see docs/server.md.
//
//       Without --listen, answer commands from stdin until EOF, one per
//       line:
//
//           run <program.sdl> [REL]    evaluate against the current-epoch
//                                      EDB, print derived facts (or REL)
//           append <instance.sdl>      ingest more facts: publishes a new
//                                      immutable segment and bumps the
//                                      epoch; in-flight runs keep their
//                                      pinned snapshot
//           retract <instance.sdl>     retract facts: visible matches are
//                                      shadowed by a tombstone segment at
//                                      a new epoch; maintained views are
//                                      DRed-refreshed (delete/re-derive)
//           epoch                      print epoch / segment / fact counts
//           compact                    fold all segments into one store
//                                      (tombstones fold away entirely)
//           stats                      print the database's measured
//                                      selectivity statistics (live
//                                      segments plus everything runs
//                                      derived, epoch-aged)
//           quit                       exit
//
//       Programs are compiled once per source text and cached (shared
//       with TCP clients sending the same text); when a later append
//       moves the database's measured statistics past --recompile-drift
//       (default 0.25, relative tuple-count change), the cached plan is
//       recompiled against the fresh statistics. --threads=N answers
//       consecutive `run` commands on a worker pool of N threads; every
//       other command first waits for the runs queued before it, so each
//       answer reflects exactly the commands above it; --auto-compact=N
//       folds the segment stack whenever it grows past N segments
//       (default 8, 0 = manual `compact` only). Malformed `append` files
//       are reported as structured "<file>:line:col: ..." errors.
//       --admission=off|budget|strict (default off) screens every
//       program through admission analysis before running it:
//       potentially non-terminating programs (SD301-SD303) are capped
//       (budget) or refused (strict) — see docs/analysis.md.
//
//   seqdl coordinate --shards=HOST:PORT[,HOST:PORT...] [--listen=PORT]
//               [--threads=N] [--broadcast=REL,...] [--pin=REL=SHARD,...]
//               [--connect-timeout-ms=N] [--io-timeout-ms=N]
//               [--cache-entries=N] [--no-forward-shutdown]
//       Serve a cluster of `seqdl serve --listen` shard servers behind
//       one endpoint speaking the same wire protocol (docs/cluster.md).
//       Appends/retractions are hash-partitioned across the shards by
//       each fact's first value; queries scatter to every shard in
//       parallel and the answers are merged (programs the shard-locality
//       analysis cannot prove distribution-transparent are finished on
//       the coordinator instead — slower, still exact). --broadcast
//       replicates small relations on every shard; --pin routes a
//       relation's facts to one shard. A client's `shutdown` drains the
//       shards too unless --no-forward-shutdown.
//
//   seqdl query --connect=HOST:PORT <command> [args]
//       Blocking client for a `seqdl serve --listen` server. Commands:
//           run <program.sdl> [REL]     ship the program text to the
//                                       server, print the derived facts
//           compile <program.sdl>       warm the server's program cache
//           append <instance.sdl>       ship facts; bumps the epoch
//           retract <instance.sdl>      retract facts; bumps the epoch
//           epoch | compact | stats     as in serve's stdin mode
//           shutdown                    drain and stop the server
//       [--stats] prints the run's engine counters to stderr.
//
//   seqdl check <program.sdl> [--json] [--output=REL]
//               [--admission=off|budget|strict] [--werror]
//       The full program analyzer: parse and validation errors (SD0xx),
//       the lint suite (SD1xx: duplicate rules/literals, singleton
//       variables, never-fires, cross-product joins; --output=REL adds
//       dead-rule and unused-relation analysis), and admission
//       classification (SD3xx: is the program potentially
//       non-terminating, and what happens to it under the given
//       policy). Reports the features used and the Figure 1
//       expressiveness class; --json emits one machine-readable
//       document; --werror upgrades warnings to errors. Exit code 0 =
//       clean, 1 = errors, 2 = usage/IO, 4 = warnings only. See
//       docs/analysis.md for the diagnostic catalog.
//
//   seqdl transform <program.sdl> --eliminate=packing|equations|arity|all
//       Apply the paper's redundancy transformations and print the result.
//
//   seqdl normalform <program.sdl>
//       Print the Lemma 7.2 normal form (nonrecursive, equation-free
//       programs; equations are eliminated first if present).
//
//   seqdl algebra <program.sdl> <REL>
//       Print the Theorem 7.1 sequence relational algebra expression for
//       an IDB relation of a nonrecursive program.
//
//   seqdl hasse [--dot]
//       Print the Figure 1 Hasse diagram.
//
//   seqdl regex <pattern>
//       Compile a regular expression to a Sequence Datalog matcher and
//       print the program.
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "src/algebra/algebra.h"
#include "src/algebra/from_datalog.h"
#include "src/analysis/admission.h"
#include "src/analysis/diagnostics.h"
#include "src/analysis/features.h"
#include "src/analysis/lint.h"
#include "src/analysis/safety.h"
#include "src/cluster/coordinator.h"
#include "src/cluster/frontend.h"
#include "src/engine/database.h"
#include "src/engine/engine.h"
#include "src/engine/instance.h"
#include "src/engine/stats.h"
#include "src/fragments/fragments.h"
#include "src/queries/regex.h"
#include "src/server/client.h"
#include "src/server/protocol.h"
#include "src/server/server.h"
#include "src/server/service.h"
#include "src/syntax/parser.h"
#include "src/syntax/printer.h"
#include "src/term/universe.h"
#include "src/transform/arity_elim.h"
#include "src/transform/equation_elim.h"
#include "src/transform/normal_form.h"
#include "src/transform/packing_elim.h"

namespace {

int Fail(const seqdl::Status& status) {
  std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
  return 1;
}

// Reports a failure through the structured diagnostics renderer when the
// status carries a source location ("parse error at L:C: ...", or a
// service error already annotated "<name>:L:C: ..."), so every front end
// prints the same "name:L:C: error: msg [SDxxx]" line as `seqdl check`.
// Falls back to the plain "error:" line for statuses without a location.
int FailDiag(const std::string& source_name, const seqdl::Status& status) {
  const std::string& msg = status.message();
  seqdl::SourceSpan span = seqdl::SpanFromStatusMessage(msg);
  if (status.code() != seqdl::StatusCode::kInvalidArgument || !span.valid()) {
    return Fail(status);
  }
  // Strip everything through the "L:C: " location to recover the bare
  // message the diagnostic re-renders with its own span prefix.
  std::string needle =
      std::to_string(span.line) + ":" + std::to_string(span.col) + ":";
  size_t pos = msg.find(needle);
  std::string bare =
      pos == std::string::npos ? msg : msg.substr(pos + needle.size());
  while (!bare.empty() && bare.front() == ' ') bare.erase(bare.begin());
  const char* code =
      msg.rfind("lex error at ", 0) == 0 ? "SD001" : "SD002";
  seqdl::Diagnostic d = seqdl::Diagnostic::Error(code, span, bare);
  std::fprintf(stderr, "%s\n", d.ToString(source_name).c_str());
  return 1;
}

seqdl::Result<std::string> ReadFile(const std::string& path) {
  std::ifstream file(path);
  if (!file) {
    return seqdl::Status::NotFound("cannot open " + path);
  }
  std::stringstream buffer;
  buffer << file.rdbuf();
  return buffer.str();
}

bool HasFlag(const std::vector<std::string>& args, const std::string& flag) {
  for (const std::string& a : args) {
    if (a == flag) return true;
  }
  return false;
}

std::string FlagValue(const std::vector<std::string>& args,
                      const std::string& prefix) {
  for (const std::string& a : args) {
    if (a.rfind(prefix, 0) == 0) return a.substr(prefix.size());
  }
  return "";
}

/// The positional (non `--flag`) arguments, in order.
std::vector<std::string> PositionalArgs(const std::vector<std::string>& args) {
  std::vector<std::string> out;
  for (const std::string& a : args) {
    if (a.rfind("--", 0) != 0) out.push_back(a);
  }
  return out;
}

/// Parses --sync= values (always | interval | never).
seqdl::Result<seqdl::storage::SyncMode> ParseSyncMode(const std::string& v) {
  if (v == "always") return seqdl::storage::SyncMode::kAlways;
  if (v == "interval") return seqdl::storage::SyncMode::kInterval;
  if (v == "never") return seqdl::storage::SyncMode::kNever;
  return seqdl::Status::InvalidArgument(
      "--sync= must be always, interval or never (got '" + v + "')");
}

/// Fills OpenOptions durability fields from --data-dir= / --sync=.
/// Returns false (after printing the error) on a malformed flag.
bool ApplyStorageFlags(const std::vector<std::string>& args,
                       seqdl::Database::OpenOptions* dbopts) {
  dbopts->data_dir = FlagValue(args, "--data-dir=");
  if (std::string v = FlagValue(args, "--sync="); !v.empty()) {
    auto mode = ParseSyncMode(v);
    if (!mode.ok()) {
      Fail(mode.status());
      return false;
    }
    dbopts->sync_mode = *mode;
  }
  return true;
}

/// One extra status line when the database is durable (generation 0
/// means in-memory: print nothing, keeping legacy output stable).
void PrintStorageLine(FILE* f, const seqdl::protocol::DbInfo& info) {
  if (info.manifest_generation == 0) return;
  std::fprintf(f,
               "storage: generation %llu, %llu bytes on disk, "
               "%llu wal bytes\n",
               static_cast<unsigned long long>(info.manifest_generation),
               static_cast<unsigned long long>(info.on_disk_bytes),
               static_cast<unsigned long long>(info.wal_bytes));
}

/// Renders a storage-layer failure (kIoError with an SD4xx code) like
/// an analyzer finding; other statuses fall back to Fail().
int FailStorage(const seqdl::Status& status) {
  seqdl::Diagnostic d = seqdl::DiagnosticFromStatus(status);
  std::fprintf(stderr, "%s\n", d.ToString().c_str());
  return 1;
}

// The per-index-family scan counters as one aligned table.
void PrintScanTable(const seqdl::EvalStats& stats) {
  struct Row {
    const char* name;
    size_t count;
  };
  const Row rows[] = {
      {"whole-value probes", stats.index_probes},
      {"first-value probes", stats.prefix_probes},
      {"last-value probes", stats.suffix_probes},
      {"full scans", stats.full_scans},
      {"delta scans", stats.delta_scans},
      {"delta-indexed", stats.delta_index_probes},
  };
  std::fprintf(stderr, "-- %-20s %12s\n", "scan family", "count");
  for (const Row& row : rows) {
    std::fprintf(stderr, "-- %-20s %12zu\n", row.name, row.count);
  }
}

// `seqdl run --data-dir=DIR`: evaluate against a durable database —
// recovering an initialized directory (the second positional instance,
// if any, is ignored with a note), or seeding a fresh one from the
// instance file first.
int RunDurable(const std::vector<std::string>& args,
               const std::vector<std::string>& pos, seqdl::Universe& u,
               seqdl::Program program) {
  seqdl::Database::OpenOptions dbopts;
  if (!ApplyStorageFlags(args, &dbopts)) return 2;
  bool recovering = seqdl::Database::DataDirInitialized(dbopts.data_dir);
  seqdl::Instance seed;
  if (recovering) {
    if (pos.size() > 1) {
      std::fprintf(stderr,
                   "-- note: %s is already initialized; ignoring %s "
                   "(the recovered EDB is authoritative)\n",
                   dbopts.data_dir.c_str(), pos[1].c_str());
    }
  } else {
    if (pos.size() < 2) {
      std::fprintf(stderr,
                   "error: %s is not initialized; pass an instance file "
                   "to seed it\n",
                   dbopts.data_dir.c_str());
      return 2;
    }
    auto instance_text = ReadFile(pos[1]);
    if (!instance_text.ok()) return Fail(instance_text.status());
    auto instance = seqdl::ParseInstance(u, *instance_text);
    if (!instance.ok()) return FailDiag(pos[1], instance.status());
    seed = std::move(*instance);
  }
  auto db = seqdl::Database::Open(u, std::move(seed), dbopts);
  if (!db.ok()) return FailStorage(db.status());

  // Database::Compile feeds the recovered stack's measured statistics
  // to the planner — the durable twin of ComputeInstanceStats below.
  auto prepared = db->Compile(std::move(program));
  if (!prepared.ok()) return Fail(prepared.status());
  if (HasFlag(args, "--explain")) {
    std::fprintf(stderr, "%s", prepared->ExplainPlan().c_str());
  }
  seqdl::RunOptions opts;
  opts.seminaive = !HasFlag(args, "--naive");
  opts.use_index = !HasFlag(args, "--no-index");
  seqdl::EvalStats stats;
  seqdl::Session session = db->Snapshot();
  auto out = session.Run(*prepared, opts, &stats);
  if (!out.ok()) return Fail(out.status());

  std::string output_rel = FlagValue(args, "--output=");
  if (!output_rel.empty()) {
    auto rel = u.FindRel(output_rel);
    if (!rel.ok()) return Fail(rel.status());
    std::printf("%s", out->ToString(u, {&*rel, 1}).c_str());
  } else {
    std::set<seqdl::RelId> idb = seqdl::IdbRels(prepared->program());
    std::vector<seqdl::RelId> rels(idb.begin(), idb.end());
    std::printf("%s", out->ToString(u, rels).c_str());
  }
  seqdl::storage::StorageInfo sinfo = db->storage_info();
  std::fprintf(stderr,
               "-- %zu facts derived in %zu rounds (%zu firings) at epoch "
               "%llu; storage generation %llu, %llu bytes on disk\n",
               stats.derived_facts, stats.rounds, stats.rule_firings,
               static_cast<unsigned long long>(session.epoch()),
               static_cast<unsigned long long>(sinfo.manifest_generation),
               static_cast<unsigned long long>(sinfo.on_disk_bytes));
  if (HasFlag(args, "--stats")) {
    PrintScanTable(stats);
    std::fprintf(stderr, "-- compile %.3f ms, run %.3f ms\n",
                 stats.compile_seconds * 1e3, stats.run_seconds * 1e3);
  }
  return 0;
}

int CmdRun(const std::vector<std::string>& args) {
  std::vector<std::string> pos = PositionalArgs(args);
  std::string data_dir = FlagValue(args, "--data-dir=");
  if (pos.empty() || (pos.size() < 2 && data_dir.empty())) {
    std::fprintf(stderr,
                 "usage: seqdl run <program> [<instance>] [--data-dir=DIR] "
                 "[--sync=always|interval|never] [--output=REL] [--naive] "
                 "[--no-index] [--stats] [--explain] [--legacy-planner]\n"
                 "(the instance is required without --data-dir; with one, "
                 "it seeds a fresh data directory)\n");
    return 2;
  }
  seqdl::Universe u;
  auto program_text = ReadFile(pos[0]);
  if (!program_text.ok()) return Fail(program_text.status());
  seqdl::DiagnosticList parse_diags;
  auto program = seqdl::ParseProgram(u, *program_text, &parse_diags);
  if (!program.ok()) {
    // The same structured rendering as `seqdl check`: file:line:col,
    // severity, stable SD code.
    std::fprintf(stderr, "%s", parse_diags.RenderText(pos[0]).c_str());
    return 1;
  }

  if (!data_dir.empty()) return RunDurable(args, pos, u, std::move(*program));

  auto instance_text = ReadFile(pos[1]);
  if (!instance_text.ok()) return Fail(instance_text.status());
  auto instance = seqdl::ParseInstance(u, *instance_text);
  if (!instance.ok()) return FailDiag(pos[1], instance.status());

  // Measure the instance so the planner can rank access paths by
  // selectivity; --legacy-planner keeps the first-ground-argument
  // heuristic (results are identical either way — only cost changes).
  seqdl::CompileOptions copts;
  seqdl::StoreStats selectivity;
  if (!HasFlag(args, "--legacy-planner")) {
    selectivity = seqdl::ComputeInstanceStats(u, *instance);
    copts.stats = &selectivity;
  }
  auto prepared = seqdl::Engine::Compile(u, std::move(*program), copts);
  if (!prepared.ok()) return Fail(prepared.status());
  if (HasFlag(args, "--explain")) {
    std::fprintf(stderr, "%s", prepared->ExplainPlan().c_str());
  }

  seqdl::RunOptions opts;
  opts.seminaive = !HasFlag(args, "--naive");
  opts.use_index = !HasFlag(args, "--no-index");
  seqdl::EvalStats stats;
  auto out = prepared->Run(*instance, opts, &stats);
  if (!out.ok()) return Fail(out.status());

  std::string output_rel = FlagValue(args, "--output=");
  if (!output_rel.empty()) {
    auto rel = u.FindRel(output_rel);
    if (!rel.ok()) return Fail(rel.status());
    std::printf("%s", out->ToString(u, {&*rel, 1}).c_str());
  } else {
    std::set<seqdl::RelId> idb = seqdl::IdbRels(prepared->program());
    std::vector<seqdl::RelId> rels(idb.begin(), idb.end());
    std::printf("%s", out->ToString(u, rels).c_str());
  }
  std::fprintf(stderr, "-- %zu facts derived in %zu rounds (%zu firings)\n",
               stats.derived_facts, stats.rounds, stats.rule_firings);
  if (HasFlag(args, "--stats")) {
    PrintScanTable(stats);
    std::fprintf(stderr, "-- compile %.3f ms, run %.3f ms\n",
                 stats.compile_seconds * 1e3, stats.run_seconds * 1e3);
    for (size_t i = 0; i < stats.per_stratum.size(); ++i) {
      const seqdl::StratumStats& s = stats.per_stratum[i];
      std::fprintf(stderr,
                   "-- stratum %zu: %zu rounds, %zu firings, %zu facts\n",
                   i, s.rounds, s.rule_firings, s.derived_facts);
    }
  }
  return 0;
}

// Repeated-query serving loop over a DatabaseService (the same request
// handlers the TCP server dispatches to — the stdin loop is just another
// front end): the EDB is loaded once and then grows by `append`
// (epoch-bumping segment publishes); `run` commands execute against an
// epoch-pinned snapshot, on the calling thread or on a --threads=N
// worker pool, and every other command waits for the queued runs first,
// so commands take effect in input order. Compiled programs are cached
// by source text in the service and recompiled when the database's
// measured statistics drift past --recompile-drift since compile time.
class ServeLoop {
 public:
  ServeLoop(seqdl::DatabaseService& service, bool stats_on)
      : service_(service), stats_on_(stats_on) {}

  ~ServeLoop() { StopWorkers(); }

  void StartWorkers(size_t threads) {
    for (size_t t = 0; t < threads; ++t) {
      workers_.emplace_back([this] { WorkerLoop(); });
    }
  }

  void StopWorkers() {
    {
      std::unique_lock<std::mutex> lock(queue_mu_);
      done_ = true;
    }
    queue_cv_.notify_all();
    for (std::thread& w : workers_) w.join();
    workers_.clear();
  }

  // `run <program> [REL]`: inline when there is no pool, else enqueued.
  void Run(std::string path, std::string output_rel) {
    if (workers_.empty()) {
      RunOne(path, output_rel);
      return;
    }
    {
      std::unique_lock<std::mutex> lock(queue_mu_);
      queue_.emplace_back(std::move(path), std::move(output_rel));
    }
    queue_cv_.notify_one();
  }

  void Append(const std::string& path) {
    auto text = ReadFile(path);
    if (!text.ok()) {
      std::lock_guard<std::mutex> lock(io_mu_);
      Fail(text.status());
      return;
    }
    seqdl::protocol::AppendRequest req;
    req.facts = std::move(*text);
    // Naming the source turns a malformed fact into a structured
    // "<path>:line:col: ..." error instead of a bare parse error.
    req.source_name = path;
    auto reply = service_.Append(req);
    if (!reply.ok()) {
      std::lock_guard<std::mutex> lock(io_mu_);
      FailDiag(path, reply.status());
      return;
    }
    std::lock_guard<std::mutex> lock(io_mu_);
    std::fprintf(stderr,
                 "-- appended %s (%llu new facts): epoch %llu, %llu "
                 "segments, %llu facts total\n",
                 path.c_str(),
                 static_cast<unsigned long long>(reply->appended),
                 static_cast<unsigned long long>(reply->db.epoch),
                 static_cast<unsigned long long>(reply->db.segments),
                 static_cast<unsigned long long>(reply->db.facts));
  }

  void Retract(const std::string& path) {
    auto text = ReadFile(path);
    if (!text.ok()) {
      std::lock_guard<std::mutex> lock(io_mu_);
      Fail(text.status());
      return;
    }
    seqdl::protocol::RetractRequest req;
    req.facts = std::move(*text);
    req.source_name = path;
    auto reply = service_.Retract(req);
    if (!reply.ok()) {
      std::lock_guard<std::mutex> lock(io_mu_);
      FailDiag(path, reply.status());
      return;
    }
    std::lock_guard<std::mutex> lock(io_mu_);
    std::fprintf(stderr,
                 "-- retracted %s (%llu facts): epoch %llu, %llu "
                 "segments, %llu facts total\n",
                 path.c_str(),
                 static_cast<unsigned long long>(reply->retracted),
                 static_cast<unsigned long long>(reply->db.epoch),
                 static_cast<unsigned long long>(reply->db.segments),
                 static_cast<unsigned long long>(reply->db.facts));
  }

  void Epoch() {
    seqdl::protocol::DbInfo info = service_.Info();
    std::lock_guard<std::mutex> lock(io_mu_);
    std::printf("epoch %llu: %llu segments, %llu facts\n",
                static_cast<unsigned long long>(info.epoch),
                static_cast<unsigned long long>(info.segments),
                static_cast<unsigned long long>(info.facts));
    PrintStorageLine(stdout, info);
    std::fflush(stdout);
  }

  void Compact() {
    seqdl::Result<seqdl::protocol::CompactReply> reply = service_.Compact();
    std::lock_guard<std::mutex> lock(io_mu_);
    if (!reply.ok()) {
      // Disk-full / permission failures during the seal render with
      // their SD4xx code, like analyzer findings.
      FailStorage(reply.status());
      return;
    }
    std::fprintf(stderr, "-- %s: epoch %llu, %llu segments, %llu facts\n",
                 reply->folded ? "compacted" : "nothing to compact",
                 static_cast<unsigned long long>(reply->db.epoch),
                 static_cast<unsigned long long>(reply->db.segments),
                 static_cast<unsigned long long>(reply->db.facts));
    PrintStorageLine(stderr, reply->db);
  }

  void Stats() {
    // The planner's view: live-segment measurements merged with the
    // derived-fact statistics reported back by earlier runs — plus the
    // maintained-view cache's traffic.
    seqdl::protocol::StatsReply reply = service_.Stats();
    std::lock_guard<std::mutex> lock(io_mu_);
    std::printf("%s", reply.rendered.c_str());
    std::printf("cache: %llu hits, %llu misses, %llu evictions; "
                "%llu entries, %llu bytes\n",
                static_cast<unsigned long long>(reply.cache_hits),
                static_cast<unsigned long long>(reply.cache_misses),
                static_cast<unsigned long long>(reply.cache_evictions),
                static_cast<unsigned long long>(reply.cache_entries),
                static_cast<unsigned long long>(reply.cache_bytes));
    std::printf("views: %llu hits, %llu cold runs, %llu delta refreshes "
                "(%llu DRed, %llu strata recomputed)\n",
                static_cast<unsigned long long>(reply.view_hits),
                static_cast<unsigned long long>(reply.view_cold_runs),
                static_cast<unsigned long long>(reply.view_delta_refreshes),
                static_cast<unsigned long long>(reply.view_dred_refreshes),
                static_cast<unsigned long long>(reply.view_strata_recomputed));
    std::fflush(stdout);
  }

  // Waits until every queued `run` has finished.
  void Drain() {
    std::unique_lock<std::mutex> lock(queue_mu_);
    drained_cv_.wait(lock, [this] { return queue_.empty() && in_flight_ == 0; });
  }

 private:
  void WorkerLoop() {
    while (true) {
      std::pair<std::string, std::string> job;
      {
        std::unique_lock<std::mutex> lock(queue_mu_);
        queue_cv_.wait(lock, [this] { return done_ || !queue_.empty(); });
        if (queue_.empty()) {
          if (done_) return;
          continue;
        }
        job = std::move(queue_.front());
        queue_.pop_front();
        ++in_flight_;
      }
      RunOne(job.first, job.second);
      {
        std::unique_lock<std::mutex> lock(queue_mu_);
        --in_flight_;
      }
      drained_cv_.notify_all();
    }
  }

  // Reads the program, ships it through the service (text-keyed program
  // cache, drift-aware recompilation, epoch-pinned snapshot run), and
  // prints the rendered derived facts.
  void RunOne(const std::string& path, const std::string& output_rel) {
    auto text = ReadFile(path);
    if (!text.ok()) {
      std::lock_guard<std::mutex> lock(io_mu_);
      Fail(text.status());
      return;
    }
    seqdl::protocol::RunRequest req;
    req.program = std::move(*text);
    req.source_name = path;
    req.output_rel = output_rel;
    // Feed each run's derived-fact statistics back into Database::Stats()
    // so later-compiled programs plan from the observed workload.
    req.collect_derived_stats = true;
    auto reply = service_.Run(req);
    std::lock_guard<std::mutex> lock(io_mu_);
    if (!reply.ok()) {
      FailDiag(path, reply.status());
      return;
    }
    std::printf("%s", reply->rendered.c_str());
    std::fflush(stdout);
    const seqdl::protocol::WireEvalStats& stats = reply->stats;
    std::fprintf(stderr, "-- %llu facts derived in %.3f ms (epoch %llu)\n",
                 static_cast<unsigned long long>(stats.derived_facts),
                 stats.run_seconds * 1e3,
                 static_cast<unsigned long long>(reply->epoch));
    if (stats_on_) {
      std::fprintf(stderr,
                   "-- scans: %llu index, %llu prefix, %llu suffix, %llu "
                   "full, %llu delta (%llu delta-indexed); %zu base columns "
                   "indexed over %llu segments\n",
                   static_cast<unsigned long long>(stats.index_probes),
                   static_cast<unsigned long long>(stats.prefix_probes),
                   static_cast<unsigned long long>(stats.suffix_probes),
                   static_cast<unsigned long long>(stats.full_scans),
                   static_cast<unsigned long long>(stats.delta_scans),
                   static_cast<unsigned long long>(stats.delta_index_probes),
                   service_.db().NumIndexedColumns(),
                   static_cast<unsigned long long>(reply->segments));
    }
  }

  seqdl::DatabaseService& service_;
  bool stats_on_;

  std::mutex io_mu_;

  std::mutex queue_mu_;
  std::condition_variable queue_cv_, drained_cv_;
  std::deque<std::pair<std::string, std::string>> queue_;
  size_t in_flight_ = 0;
  bool done_ = false;
  std::vector<std::thread> workers_;
};

int CmdServe(const std::vector<std::string>& args) {
  const char* usage =
      "usage: seqdl serve [<instance>] [--data-dir=DIR] "
      "[--sync=always|interval|never] [--stats] [--threads=N] "
      "[--recompile-drift=X] [--auto-compact=N] [--cache-bytes=N] "
      "[--listen=PORT] [--admission=off|budget|strict]\n"
      "(the instance is required without --data-dir, and when "
      "initializing a fresh data directory it seeds the EDB)\n";
  std::vector<std::string> pos = PositionalArgs(args);
  std::string data_dir = FlagValue(args, "--data-dir=");
  if (pos.empty() && data_dir.empty()) {
    std::fprintf(stderr, "%s", usage);
    return 2;
  }
  bool stats_on = HasFlag(args, "--stats");
  bool listen_mode = false;
  uint16_t listen_port = 0;
  if (std::string v = FlagValue(args, "--listen="); !v.empty()) {
    listen_mode = true;
    listen_port = static_cast<uint16_t>(std::strtoul(v.c_str(), nullptr, 10));
  }
  size_t threads = listen_mode ? 4 : 1;
  if (std::string v = FlagValue(args, "--threads="); !v.empty()) {
    threads = std::strtoull(v.c_str(), nullptr, 10);
    if (threads == 0) threads = 1;
  }
  double recompile_drift = 0.25;
  if (std::string v = FlagValue(args, "--recompile-drift="); !v.empty()) {
    recompile_drift = std::strtod(v.c_str(), nullptr);
  }
  seqdl::Database::OpenOptions dbopts;
  dbopts.auto_compact_segments = 8;
  if (std::string v = FlagValue(args, "--auto-compact="); !v.empty()) {
    dbopts.auto_compact_segments = std::strtoull(v.c_str(), nullptr, 10);
  }
  if (!ApplyStorageFlags(args, &dbopts)) return 2;

  seqdl::Universe u;
  // With --data-dir on an initialized directory the recovered EDB is
  // authoritative: a restart serves the pre-restart facts without
  // re-ingesting any source file, and a supplied instance is ignored
  // (with a note) rather than merged.
  bool recovering =
      !data_dir.empty() && seqdl::Database::DataDirInitialized(data_dir);
  seqdl::Instance seed;
  if (recovering) {
    if (!pos.empty()) {
      std::fprintf(stderr,
                   "-- note: %s is already initialized; ignoring %s "
                   "(the recovered EDB is authoritative)\n",
                   data_dir.c_str(), pos[0].c_str());
    }
  } else if (!pos.empty()) {
    auto instance_text = ReadFile(pos[0]);
    if (!instance_text.ok()) return Fail(instance_text.status());
    auto instance = seqdl::ParseInstance(u, *instance_text);
    if (!instance.ok()) return Fail(instance.status());
    seed = std::move(*instance);
  }
  auto db = seqdl::Database::Open(u, std::move(seed), dbopts);
  if (!db.ok()) return FailStorage(db.status());
  size_t edb_facts = db->NumFacts();
  const std::string source_desc = recovering || pos.empty()
                                      ? data_dir
                                      : pos[0];

  static std::mutex log_mu;
  seqdl::ServiceOptions sopts;
  sopts.recompile_drift = recompile_drift;
  // Byte budget for the maintained-view/result cache (rendered output
  // plus materialized IDBs); LRU entries are evicted past it.
  if (std::string v = FlagValue(args, "--cache-bytes="); !v.empty()) {
    sopts.cache_bytes = std::strtoull(v.c_str(), nullptr, 10);
  }
  // Admission control for untrusted programs (docs/analysis.md): off
  // runs everything (trusted clients, the default), budget caps runs of
  // potentially non-terminating programs, strict refuses them.
  if (std::string v = FlagValue(args, "--admission="); !v.empty()) {
    auto policy = seqdl::ParseAdmissionPolicy(v);
    if (!policy.ok()) {
      Fail(policy.status());
      return 2;
    }
    sopts.admission = *policy;
  }
  sopts.log = [](const std::string& msg) {
    std::lock_guard<std::mutex> lock(log_mu);
    std::fprintf(stderr, "-- %s\n", msg.c_str());
  };
  seqdl::DatabaseService service(u, std::move(*db), sopts);

  if (listen_mode) {
    if (stats_on) {
      std::fprintf(stderr,
                   "-- note: --stats has no effect with --listen; per-run "
                   "counters travel in each reply (seqdl query ... run "
                   "--stats)\n");
    }
    seqdl::ServerOptions server_opts;
    server_opts.port = listen_port;
    server_opts.threads = threads;
    auto server = seqdl::Server::Start(service, server_opts);
    if (!server.ok()) return Fail(server.status());
    // The CI integration step and scripts parse this line; keep stdout.
    std::printf("listening on %s:%u\n", (*server)->host().c_str(),
                (*server)->port());
    std::fflush(stdout);
    std::fprintf(stderr,
                 "-- serving %zu EDB facts from %s over TCP "
                 "(%zu worker thread%s); stop with "
                 "'seqdl query --connect=%s:%u shutdown'\n",
                 edb_facts, source_desc.c_str(), threads,
                 threads == 1 ? "" : "s", (*server)->host().c_str(),
                 (*server)->port());
    (*server)->Wait();
    // The final epoch is now immutable: reject any append that lost the
    // race against shutdown.
    service.db().Close();
    std::fprintf(stderr,
                 "-- server drained: %llu connections, %llu requests\n",
                 static_cast<unsigned long long>(
                     (*server)->connections_accepted()),
                 static_cast<unsigned long long>(
                     (*server)->requests_served()));
    return 0;
  }

  std::fprintf(stderr,
               "-- serving %zu EDB facts from %s (%zu worker thread%s); "
               "'run <program> [REL]', 'append <instance>', "
               "'retract <instance>', 'epoch', 'compact', 'stats', or "
               "'quit'\n",
               edb_facts, source_desc.c_str(), threads, threads == 1 ? "" : "s");

  ServeLoop loop(service, stats_on);
  if (threads > 1) loop.StartWorkers(threads);

  std::string line;
  while (std::getline(std::cin, line)) {
    std::istringstream words(line);
    std::string cmd;
    words >> cmd;
    if (cmd.empty()) continue;
    // Queued runs answer the state the commands above them left, so a
    // write or a report must not overtake them.
    if (cmd != "run") loop.Drain();
    if (cmd == "quit" || cmd == "exit") break;
    if (cmd == "stats") {
      loop.Stats();
      continue;
    }
    if (cmd == "epoch") {
      loop.Epoch();
      continue;
    }
    if (cmd == "compact") {
      loop.Compact();
      continue;
    }
    if (cmd == "append") {
      std::string path;
      words >> path;
      if (path.empty()) {
        std::fprintf(stderr, "usage: append <instance>\n");
        continue;
      }
      loop.Append(path);
      continue;
    }
    if (cmd == "retract") {
      std::string path;
      words >> path;
      if (path.empty()) {
        std::fprintf(stderr, "usage: retract <instance>\n");
        continue;
      }
      loop.Retract(path);
      continue;
    }
    if (cmd != "run") {
      std::fprintf(stderr, "error: unknown serve command '%s'\n", cmd.c_str());
      continue;
    }
    std::string path, output_rel;
    words >> path >> output_rel;
    if (path.empty()) {
      std::fprintf(stderr, "usage: run <program> [REL]\n");
      continue;
    }
    loop.Run(std::move(path), std::move(output_rel));
  }
  loop.Drain();
  loop.StopWorkers();
  return 0;
}

// Serves a shard cluster: lazily connects to the listed `seqdl serve
// --listen` shard servers and exposes the standard wire protocol, so
// `seqdl query --connect=` works against a cluster exactly as against a
// single server. See docs/cluster.md.
int CmdCoordinate(const std::vector<std::string>& args) {
  const char* usage =
      "usage: seqdl coordinate --shards=HOST:PORT[,HOST:PORT...] "
      "[--listen=PORT] [--threads=N] [--broadcast=REL[,REL...]] "
      "[--pin=REL=SHARD[,REL=SHARD...]] [--connect-timeout-ms=N] "
      "[--io-timeout-ms=N] [--cache-entries=N] [--no-forward-shutdown]\n";
  std::string shards_spec = FlagValue(args, "--shards=");
  if (shards_spec.empty()) {
    std::fprintf(stderr, "%s", usage);
    return 2;
  }
  auto shards = seqdl::ParseShardList(shards_spec);
  if (!shards.ok()) return Fail(shards.status());

  seqdl::CoordinatorOptions copts;
  if (std::string v = FlagValue(args, "--broadcast="); !v.empty()) {
    std::istringstream rels(v);
    std::string rel;
    while (std::getline(rels, rel, ',')) {
      if (!rel.empty()) copts.partition.broadcast.insert(rel);
    }
  }
  if (std::string v = FlagValue(args, "--pin="); !v.empty()) {
    std::istringstream pins(v);
    std::string pin;
    while (std::getline(pins, pin, ',')) {
      size_t eq = pin.find('=');
      if (eq == std::string::npos || eq == 0 || eq + 1 == pin.size()) {
        return Fail(seqdl::Status::InvalidArgument(
            "bad --pin entry '" + pin + "': expected REL=SHARD"));
      }
      copts.partition.pinned[pin.substr(0, eq)] = static_cast<uint32_t>(
          std::strtoul(pin.c_str() + eq + 1, nullptr, 10));
    }
  }
  if (std::string v = FlagValue(args, "--connect-timeout-ms="); !v.empty()) {
    copts.connect_timeout_ms =
        static_cast<uint32_t>(std::strtoul(v.c_str(), nullptr, 10));
  }
  if (std::string v = FlagValue(args, "--io-timeout-ms="); !v.empty()) {
    copts.io_timeout_ms =
        static_cast<uint32_t>(std::strtoul(v.c_str(), nullptr, 10));
  }
  if (std::string v = FlagValue(args, "--cache-entries="); !v.empty()) {
    copts.result_cache_entries = std::strtoull(v.c_str(), nullptr, 10);
  }
  uint16_t listen_port = 0;
  if (std::string v = FlagValue(args, "--listen="); !v.empty()) {
    listen_port = static_cast<uint16_t>(std::strtoul(v.c_str(), nullptr, 10));
  }
  size_t threads = 4;
  if (std::string v = FlagValue(args, "--threads="); !v.empty()) {
    threads = std::strtoull(v.c_str(), nullptr, 10);
    if (threads == 0) threads = 1;
  }

  seqdl::Universe u;
  size_t num_shards = shards->size();
  seqdl::Coordinator coordinator(u, std::move(*shards), copts);
  seqdl::CoordinatorHandler handler(
      coordinator, !HasFlag(args, "--no-forward-shutdown"));
  seqdl::ServerOptions server_opts;
  server_opts.port = listen_port;
  server_opts.threads = threads;
  auto server = seqdl::Server::Start(handler, server_opts);
  if (!server.ok()) return Fail(server.status());
  // Scripts parse this line, matching `seqdl serve --listen`'s contract.
  std::printf("listening on %s:%u\n", (*server)->host().c_str(),
              (*server)->port());
  std::fflush(stdout);
  std::fprintf(stderr,
               "-- coordinating %zu shard%s (%s), %zu worker thread%s; "
               "stop with 'seqdl query --connect=%s:%u shutdown'\n",
               num_shards, num_shards == 1 ? "" : "s", shards_spec.c_str(),
               threads, threads == 1 ? "" : "s", (*server)->host().c_str(),
               (*server)->port());
  (*server)->Wait();
  std::fprintf(stderr,
               "-- server drained: %llu connections, %llu requests\n",
               static_cast<unsigned long long>(
                   (*server)->connections_accepted()),
               static_cast<unsigned long long>(
                   (*server)->requests_served()));
  return 0;
}

// Client for a `seqdl serve --listen` server: ships program/fact texts
// over the wire protocol and prints the replies.
int CmdQuery(const std::vector<std::string>& args) {
  const char* usage =
      "usage: seqdl query --connect=HOST:PORT "
      "<run <program> [REL] | compile <program> | append <instance> | "
      "retract <instance> | epoch | compact | stats | shutdown> "
      "[--stats]\n";
  std::string endpoint = FlagValue(args, "--connect=");
  size_t colon = endpoint.rfind(':');
  if (endpoint.empty() || colon == std::string::npos) {
    std::fprintf(stderr, "%s", usage);
    return 2;
  }
  std::string host = endpoint.substr(0, colon);
  uint16_t port = static_cast<uint16_t>(
      std::strtoul(endpoint.c_str() + colon + 1, nullptr, 10));

  // The first non-flag argument is the command; the rest are operands.
  std::vector<std::string> words;
  for (const std::string& a : args) {
    if (a.rfind("--", 0) != 0) words.push_back(a);
  }
  if (words.empty()) {
    std::fprintf(stderr, "%s", usage);
    return 2;
  }
  const std::string& cmd = words[0];

  auto client = seqdl::Client::Connect(host, port);
  if (!client.ok()) return Fail(client.status());

  if (cmd == "run") {
    if (words.size() < 2) {
      std::fprintf(stderr, "usage: seqdl query --connect=... run "
                           "<program> [REL]\n");
      return 2;
    }
    auto text = ReadFile(words[1]);
    if (!text.ok()) return Fail(text.status());
    std::string output_rel = words.size() > 2 ? words[2] : "";
    auto reply = client->Run(*text, output_rel, words[1]);
    if (!reply.ok()) return Fail(reply.status());
    std::printf("%s", reply->rendered.c_str());
    std::fflush(stdout);
    std::fprintf(stderr, "-- %llu facts derived in %.3f ms (epoch %llu)\n",
                 static_cast<unsigned long long>(
                     reply->stats.derived_facts),
                 reply->stats.run_seconds * 1e3,
                 static_cast<unsigned long long>(reply->epoch));
    if (HasFlag(args, "--stats")) {
      const seqdl::protocol::WireEvalStats& s = reply->stats;
      std::fprintf(stderr,
                   "-- scans: %llu index, %llu prefix, %llu suffix, "
                   "%llu full, %llu delta (%llu delta-indexed)\n",
                   static_cast<unsigned long long>(s.index_probes),
                   static_cast<unsigned long long>(s.prefix_probes),
                   static_cast<unsigned long long>(s.suffix_probes),
                   static_cast<unsigned long long>(s.full_scans),
                   static_cast<unsigned long long>(s.delta_scans),
                   static_cast<unsigned long long>(s.delta_index_probes));
    }
    return 0;
  }
  if (cmd == "compile") {
    if (words.size() < 2) {
      std::fprintf(stderr,
                   "usage: seqdl query --connect=... compile <program>\n");
      return 2;
    }
    auto text = ReadFile(words[1]);
    if (!text.ok()) return Fail(text.status());
    auto reply = client->Compile(*text, words[1]);
    if (!reply.ok()) return Fail(reply.status());
    std::printf("%s: %llu rules in %llu strata (%s, compile %.3f ms)\n",
                words[1].c_str(),
                static_cast<unsigned long long>(reply->rules),
                static_cast<unsigned long long>(reply->strata),
                reply->cache_hit ? "cache hit" : "compiled",
                reply->compile_seconds * 1e3);
    if (!reply->features.empty()) {
      std::printf("features %s, class %s, admission: %s\n",
                  reply->features.c_str(), reply->fragment_class.c_str(),
                  seqdl::AdmissionVerdictToString(
                      static_cast<seqdl::AdmissionVerdict>(reply->admission)));
    }
    // The server's analyzer findings (lint SD1xx, admission SD3xx),
    // rendered like `seqdl check` renders its local ones.
    for (const seqdl::protocol::WireDiagnostic& w : reply->diagnostics) {
      seqdl::Diagnostic d;
      d.severity = static_cast<seqdl::Severity>(w.severity);
      d.code = w.code;
      d.span.line = static_cast<int>(w.line);
      d.span.col = static_cast<int>(w.col);
      d.span.end_line = static_cast<int>(w.end_line);
      d.span.end_col = static_cast<int>(w.end_col);
      d.message = w.message;
      d.notes = w.notes;
      std::fprintf(stderr, "%s\n", d.ToString(words[1]).c_str());
    }
    return 0;
  }
  if (cmd == "append") {
    if (words.size() < 2) {
      std::fprintf(stderr,
                   "usage: seqdl query --connect=... append <instance>\n");
      return 2;
    }
    auto text = ReadFile(words[1]);
    if (!text.ok()) return Fail(text.status());
    auto reply = client->Append(*text, words[1]);
    if (!reply.ok()) return Fail(reply.status());
    std::printf("appended %llu facts: epoch %llu, %llu segments, "
                "%llu facts total\n",
                static_cast<unsigned long long>(reply->appended),
                static_cast<unsigned long long>(reply->db.epoch),
                static_cast<unsigned long long>(reply->db.segments),
                static_cast<unsigned long long>(reply->db.facts));
    return 0;
  }
  if (cmd == "retract") {
    if (words.size() < 2) {
      std::fprintf(stderr,
                   "usage: seqdl query --connect=... retract <instance>\n");
      return 2;
    }
    auto text = ReadFile(words[1]);
    if (!text.ok()) return Fail(text.status());
    auto reply = client->Retract(*text, words[1]);
    if (!reply.ok()) return Fail(reply.status());
    std::printf("retracted %llu facts: epoch %llu, %llu segments, "
                "%llu facts total\n",
                static_cast<unsigned long long>(reply->retracted),
                static_cast<unsigned long long>(reply->db.epoch),
                static_cast<unsigned long long>(reply->db.segments),
                static_cast<unsigned long long>(reply->db.facts));
    return 0;
  }
  if (cmd == "epoch") {
    auto reply = client->Epoch();
    if (!reply.ok()) return Fail(reply.status());
    std::printf("epoch %llu: %llu segments, %llu facts\n",
                static_cast<unsigned long long>(reply->epoch),
                static_cast<unsigned long long>(reply->segments),
                static_cast<unsigned long long>(reply->facts));
    PrintStorageLine(stdout, *reply);
    return 0;
  }
  if (cmd == "compact") {
    auto reply = client->Compact();
    if (!reply.ok()) return FailStorage(reply.status());
    std::printf("%s: epoch %llu, %llu segments, %llu facts\n",
                reply->folded ? "compacted" : "nothing to compact",
                static_cast<unsigned long long>(reply->db.epoch),
                static_cast<unsigned long long>(reply->db.segments),
                static_cast<unsigned long long>(reply->db.facts));
    PrintStorageLine(stdout, reply->db);
    return 0;
  }
  if (cmd == "stats") {
    auto reply = client->Stats();
    if (!reply.ok()) return Fail(reply.status());
    std::printf("%s", reply->rendered.c_str());
    std::printf("cache: %llu hits, %llu misses, %llu evictions; "
                "%llu entries, %llu bytes\n",
                static_cast<unsigned long long>(reply->cache_hits),
                static_cast<unsigned long long>(reply->cache_misses),
                static_cast<unsigned long long>(reply->cache_evictions),
                static_cast<unsigned long long>(reply->cache_entries),
                static_cast<unsigned long long>(reply->cache_bytes));
    std::printf("views: %llu hits, %llu cold runs, %llu delta refreshes "
                "(%llu DRed, %llu strata recomputed)\n",
                static_cast<unsigned long long>(reply->view_hits),
                static_cast<unsigned long long>(reply->view_cold_runs),
                static_cast<unsigned long long>(reply->view_delta_refreshes),
                static_cast<unsigned long long>(reply->view_dred_refreshes),
                static_cast<unsigned long long>(
                    reply->view_strata_recomputed));
    return 0;
  }
  if (cmd == "shutdown") {
    seqdl::Status st = client->Shutdown();
    if (!st.ok()) return Fail(st);
    std::printf("server shut down\n");
    return 0;
  }
  std::fprintf(stderr, "error: unknown query command '%s'\n%s", cmd.c_str(),
               usage);
  return 2;
}

// The full program analyzer: parse, validation (SD0xx), lints (SD1xx),
// and admission classification (SD3xx) in one pass, rendered as
// compiler-style diagnostics or one JSON document (--json). Exit codes:
// 0 clean, 1 errors (including strict-admission rejection), 2 usage/IO,
// 4 warnings only.
int CmdCheck(const std::vector<std::string>& args) {
  if (args.empty() || args[0].rfind("--", 0) == 0) {
    std::fprintf(stderr,
                 "usage: seqdl check <program> [--json] [--output=REL] "
                 "[--admission=off|budget|strict] [--werror]\n");
    return 2;
  }
  const std::string& source = args[0];
  bool json = HasFlag(args, "--json");
  seqdl::AdmissionPolicy policy = seqdl::AdmissionPolicy::kBudget;
  if (std::string v = FlagValue(args, "--admission="); !v.empty()) {
    auto parsed = seqdl::ParseAdmissionPolicy(v);
    if (!parsed.ok()) {
      Fail(parsed.status());
      return 2;
    }
    policy = *parsed;
  }

  seqdl::Universe u;
  auto text = ReadFile(source);
  if (!text.ok()) {
    Fail(text.status());
    return 2;
  }
  seqdl::DiagnosticList diags;
  auto program = seqdl::ParseProgram(u, *text, &diags);
  bool parsed = program.ok();

  seqdl::AdmissionReport report;
  if (parsed) {
    seqdl::ValidateProgram(u, *program, &diags);
    seqdl::LintOptions lopts;
    if (std::string v = FlagValue(args, "--output="); !v.empty()) {
      auto rel = u.FindRel(v);
      if (!rel.ok()) {
        Fail(seqdl::Status::NotFound("--output=" + v +
                                     ": relation not used by the program"));
        return 2;
      }
      lopts.output = *rel;
    }
    seqdl::LintProgram(u, *program, lopts, &diags);
    report = seqdl::AnalyzeAdmission(u, *program);
    seqdl::DiagnosticList admission =
        seqdl::PolicyDiagnostics(report, policy);
    for (const seqdl::Diagnostic& d : admission.all()) diags.Add(d);
  }

  if (HasFlag(args, "--werror")) {
    seqdl::DiagnosticList hard;
    for (const seqdl::Diagnostic& d : diags.all()) {
      seqdl::Diagnostic c = d;
      if (c.severity == seqdl::Severity::kWarning) {
        c.severity = seqdl::Severity::kError;
      }
      hard.Add(std::move(c));
    }
    diags = std::move(hard);
  }

  const char* verdict =
      seqdl::AdmissionVerdictToString(report.Verdict(policy));
  if (json) {
    std::string out = "{\n  \"source\": ";
    seqdl::AppendJsonString(&out, source);
    out += ",\n  \"valid\": ";
    out += diags.HasErrors() ? "false" : "true";
    if (parsed) {
      out += ",\n  \"rules\": " + std::to_string(program->NumRules());
      out += ",\n  \"strata\": " + std::to_string(program->strata.size());
      out += ",\n  \"features\": ";
      seqdl::AppendJsonString(&out, report.features.ToString());
      out += ",\n  \"class\": ";
      seqdl::AppendJsonString(&out, report.fragment_class);
      out += ",\n  \"admission\": ";
      seqdl::AppendJsonString(&out, verdict);
    }
    out += ",\n  \"errors\": " + std::to_string(diags.NumErrors());
    out += ",\n  \"warnings\": " + std::to_string(diags.NumWarnings());
    out += ",\n  \"diagnostics\": " + diags.RenderJson();
    out += "\n}\n";
    std::printf("%s", out.c_str());
  } else {
    std::fprintf(stderr, "%s", diags.RenderText(source).c_str());
    if (parsed) {
      std::printf("rules:      %zu in %zu strata\n", program->NumRules(),
                  program->strata.size());
      std::printf("features:   %s\n", report.features.ToString().c_str());
      std::printf("class:      %s (Figure 1)\n",
                  report.fragment_class.c_str());
      std::printf("admission:  %s (policy %s)\n", verdict,
                  seqdl::AdmissionPolicyToString(policy));
    }
    std::printf("diagnostics: %zu errors, %zu warnings\n",
                diags.NumErrors(), diags.NumWarnings());
  }
  if (diags.HasErrors()) return 1;
  if (diags.NumWarnings() > 0) return 4;
  return 0;
}

int CmdTransform(const std::vector<std::string>& args) {
  if (args.empty()) {
    std::fprintf(stderr, "usage: seqdl transform <program> "
                         "--eliminate=packing|equations|arity|all\n");
    return 2;
  }
  seqdl::Universe u;
  auto text = ReadFile(args[0]);
  if (!text.ok()) return Fail(text.status());
  auto program = seqdl::ParseProgram(u, *text);
  if (!program.ok()) return Fail(program.status());
  std::string what = FlagValue(args, "--eliminate=");
  if (what.empty()) what = "all";

  seqdl::Program current = *program;
  auto apply = [&](const std::string& name) -> seqdl::Status {
    if (name == "packing") {
      auto q = seqdl::EliminatePackingNonrecursive(u, current);
      if (!q.ok()) return q.status();
      current = std::move(*q);
    } else if (name == "equations") {
      auto q = seqdl::EliminateEquations(u, current);
      if (!q.ok()) return q.status();
      current = std::move(*q);
    } else if (name == "arity") {
      auto q = seqdl::EliminateArity(u, current);
      if (!q.ok()) return q.status();
      current = std::move(*q);
    } else {
      return seqdl::Status::InvalidArgument("unknown elimination " + name);
    }
    return seqdl::Status::OK();
  };

  if (what == "all") {
    seqdl::FeatureSet f = seqdl::DetectFeatures(current);
    if (f.Contains(seqdl::Feature::kPacking)) {
      seqdl::Status s = apply("packing");
      if (!s.ok()) return Fail(s);
    }
    f = seqdl::DetectFeatures(current);
    if (f.Contains(seqdl::Feature::kEquations)) {
      seqdl::Status s = apply("equations");
      if (!s.ok()) return Fail(s);
    }
    f = seqdl::DetectFeatures(current);
    if (f.Contains(seqdl::Feature::kArity)) {
      seqdl::Status s = apply("arity");
      if (!s.ok()) return Fail(s);
    }
  } else {
    seqdl::Status s = apply(what);
    if (!s.ok()) return Fail(s);
  }
  std::printf("%s", seqdl::FormatProgram(u, current).c_str());
  std::fprintf(stderr, "-- %zu rules, features %s\n", current.NumRules(),
               seqdl::DetectFeatures(current).ToString().c_str());
  return 0;
}

int CmdNormalForm(const std::vector<std::string>& args) {
  if (args.empty()) {
    std::fprintf(stderr, "usage: seqdl normalform <program>\n");
    return 2;
  }
  seqdl::Universe u;
  auto text = ReadFile(args[0]);
  if (!text.ok()) return Fail(text.status());
  auto program = seqdl::ParseProgram(u, *text);
  if (!program.ok()) return Fail(program.status());
  seqdl::Program staged = *program;
  bool has_equations = false;
  for (const seqdl::Rule* r : staged.AllRules()) {
    for (const seqdl::Literal& l : r->body) {
      has_equations |= l.is_equation();
    }
  }
  if (has_equations) {
    auto q = seqdl::EliminateEquations(u, staged);
    if (!q.ok()) return Fail(q.status());
    staged = std::move(*q);
  }
  auto normal = seqdl::ToNormalForm(u, staged);
  if (!normal.ok()) return Fail(normal.status());
  std::printf("%s", seqdl::FormatProgram(u, *normal).c_str());
  return 0;
}

int CmdAlgebra(const std::vector<std::string>& args) {
  if (args.size() < 2) {
    std::fprintf(stderr, "usage: seqdl algebra <program> <REL>\n");
    return 2;
  }
  seqdl::Universe u;
  auto text = ReadFile(args[0]);
  if (!text.ok()) return Fail(text.status());
  auto program = seqdl::ParseProgram(u, *text);
  if (!program.ok()) return Fail(program.status());
  auto rel = u.FindRel(args[1]);
  if (!rel.ok()) return Fail(rel.status());
  auto alg = seqdl::DatalogToAlgebra(u, *program, *rel);
  if (!alg.ok()) return Fail(alg.status());
  std::printf("%s\n", seqdl::FormatAlgebra(u, **alg).c_str());
  return 0;
}

int CmdHasse(const std::vector<std::string>& args) {
  seqdl::HasseDiagram d = seqdl::BuildHasseDiagram();
  if (HasFlag(args, "--dot")) {
    std::printf("%s", seqdl::HasseToDot(d).c_str());
  } else {
    std::printf("%s", seqdl::RenderHasse(d).c_str());
  }
  return 0;
}

int CmdRegex(const std::vector<std::string>& args) {
  if (args.empty()) {
    std::fprintf(stderr, "usage: seqdl regex <pattern>\n");
    return 2;
  }
  seqdl::Universe u;
  auto q = seqdl::RegexToDatalog(u, args[0]);
  if (!q.ok()) return Fail(q.status());
  std::printf("%% strings go into %s; matches appear in %s\n",
              u.RelName(q->input).c_str(), u.RelName(q->output).c_str());
  std::printf("%s", seqdl::FormatProgram(u, q->program).c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr,
                 "usage: seqdl <run|serve|coordinate|query|check|transform|"
                 "normalform|algebra|hasse|regex> ...\n");
    return 2;
  }
  std::string cmd = argv[1];
  std::vector<std::string> args(argv + 2, argv + argc);
  if (cmd == "run") return CmdRun(args);
  if (cmd == "serve") return CmdServe(args);
  if (cmd == "coordinate") return CmdCoordinate(args);
  if (cmd == "query") return CmdQuery(args);
  if (cmd == "check") return CmdCheck(args);
  if (cmd == "transform") return CmdTransform(args);
  if (cmd == "normalform") return CmdNormalForm(args);
  if (cmd == "algebra") return CmdAlgebra(args);
  if (cmd == "hasse") return CmdHasse(args);
  if (cmd == "regex") return CmdRegex(args);
  std::fprintf(stderr, "unknown command '%s'\n", cmd.c_str());
  return 2;
}
