// seqdl — command line front end for the Sequence Datalog library.
//
//   seqdl run <program.sdl> [<instance.sdl>] [--data-dir=DIR]
//              [--sync=always|interval|never] [--output=REL] [--naive]
//              [--no-index] [--stats] [--explain] [--legacy-planner]
//       Load the instance into a Database, run the program on it once
//       and print the facts it derives (all of them, or just the --output
//       relation) exactly as `serve` and `query` print them: facts the
//       instance already holds are not printed. The planner ranks access
//       paths by the database's measured selectivity statistics;
//       --legacy-planner forces the first-ground-argument heuristic.
//       --explain prints the chosen plan (key column and scan order per
//       rule step); --stats reports the engine's extended counters (a
//       per-index-family probe table, compile/run wall times, then the
//       rounds, firings and facts of each stratum). With --data-dir the
//       database is durable (docs/storage.md): an initialized directory
//       is recovered without re-ingesting anything (the instance argument
//       becomes optional), a fresh one is seeded from the instance, and
//       the trailer adds the epoch and the storage generation.
//
//   seqdl serve [<instance.sdl>] [--data-dir=DIR]
//               [--sync=always|interval|never] [--stats] [--threads=N]
//               [--recompile-drift=X] [--auto-compact=N] [--cache-bytes=N]
//               [--listen=PORT] [--admission=off|budget|strict]
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
//       line: the commands of `seqdl query` below (run, compile, append,
//       retract, epoch, compact, stats, shutdown) plus `quit`. Each line
//       becomes a request payload, answered by the same request handler
//       the TCP server runs, and printed the way `seqdl query` prints it:
//       results on stdout; the run trailer, the --stats scan line and
//       errors on stderr. Errors in shipped files render as structured
//       "<file>:line:col: error: ... [SDxxx]" lines.
//
//       Programs are compiled once per source text and cached (shared
//       with TCP clients sending the same text); when a later write
//       moves the database's measured statistics past --recompile-drift
//       (default 0.25, relative tuple-count change), the cached plan is
//       recompiled against the fresh statistics. --threads=N queues
//       consecutive `run` commands to a worker pool of N threads; every
//       other command first waits for the runs queued before it, so each
//       answer reflects exactly the commands above it; --auto-compact=N
//       folds the segment stack whenever it grows past N segments
//       (default 8, 0 = manual `compact` only).
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
//   seqdl query --connect=HOST:PORT <command> [args] [--stats]
//       Blocking client for a `seqdl serve --listen` server or a `seqdl
//       coordinate` front end. Commands:
//           run <program.sdl> [REL]    ship the program text to the
//                                      server, print the derived facts
//                                      (or REL); --stats adds the run's
//                                      scan counters on stderr
//           compile <program.sdl>      warm the server's program cache
//           append <instance.sdl>      ingest more facts: publishes a
//                                      new immutable segment and bumps
//                                      the epoch; in-flight runs keep
//                                      their pinned snapshot
//           retract <instance.sdl>     retract facts: visible matches are
//                                      shadowed by a tombstone segment at
//                                      a new epoch; maintained views are
//                                      DRed-refreshed (delete/re-derive)
//           epoch                      print epoch / segment / fact counts
//           compact                    fold all segments into one store
//                                      (tombstones fold away entirely)
//           stats                      print the database's measured
//                                      selectivity statistics and the
//                                      cache and view counters
//           shutdown                   drain and stop the server
//
//   Numeric flags of serve, coordinate and query are strict: a value
//   with trailing bytes or out of range is a usage error (exit 2). So is
//   a flag the subcommand does not read (a typo like --datadir=DIR, or
//   --data-dir DIR without the '='), for every subcommand.
//   HOST:PORT takes a dotted quad or "localhost" and a port from 1 to
//   65535.
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
#include <charconv>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <deque>
#include <fstream>
#include <initializer_list>
#include <iostream>
#include <iterator>
#include <limits>
#include <mutex>
#include <sstream>
#include <string>
#include <string_view>
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
#include "src/engine/database.h"
#include "src/engine/engine.h"
#include "src/engine/instance.h"
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

// The CLI's one error renderer. A status with a source location ("parse
// error at L:C: ...", or a served error already annotated "<name>:L:C:
// ...") prints as the "name:L:C: error: msg [SDxxx]" line `seqdl check`
// prints; one carrying an SD code (the storage engine's SD4xx) as
// "error: msg [SDxxx]"; any other as "error: <Code>: msg". Returns 1, the
// exit code of a failed command.
int ReportError(const seqdl::Status& status, const std::string& source = "") {
  seqdl::Diagnostic d = seqdl::DiagnosticFromStatus(status);
  seqdl::SourceSpan span = seqdl::SpanFromStatusMessage(d.message);
  if (status.code() == seqdl::StatusCode::kInvalidArgument && span.valid()) {
    // Strip everything through the "L:C: " location to recover the bare
    // message the diagnostic re-renders with its own span prefix.
    std::string needle =
        std::to_string(span.line) + ":" + std::to_string(span.col) + ":";
    size_t pos = d.message.find(needle);
    if (pos != std::string::npos) d.message.erase(0, pos + needle.size());
    while (!d.message.empty() && d.message.front() == ' ') {
      d.message.erase(d.message.begin());
    }
    if (d.code.empty()) {
      d.code = status.message().rfind("lex error at ", 0) == 0 ? "SD001"
                                                               : "SD002";
    }
    d.span = span;
    std::fprintf(stderr, "%s\n", d.ToString(source).c_str());
  } else if (!d.code.empty()) {
    std::fprintf(stderr, "%s\n", d.ToString().c_str());
  } else {
    std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
  }
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

/// True iff every `--` argument is one of `flags`: a switch ("--stats")
/// or a value prefix ("--sync="). Otherwise prints the first one that is
/// not and returns false, and `command` exits 2 before it reads a file,
/// opens a directory or binds a port.
bool OnlyKnownFlags(const std::vector<std::string>& args, const char* command,
                    std::initializer_list<std::string_view> flags) {
  for (const std::string& a : args) {
    if (a.rfind("--", 0) != 0) continue;
    bool known = false;
    for (std::string_view f : flags) {
      known = known || (f.back() == '=' ? a.rfind(f, 0) == 0 : a == f);
    }
    if (!known) {
      std::fprintf(stderr, "error: unknown flag '%s' for %s\n", a.c_str(),
                   command);
      return false;
    }
  }
  return true;
}

/// Parses `text`, the value of `what`, into *out. The whole text must be
/// a number from `lo` to `hi`: trailing bytes ("64M") or a value out of
/// range (a port of 70000) print a usage error and return false, and the
/// command then exits 2.
template <typename T>
bool ParseNumber(const std::string& what, const std::string& text, T lo, T hi,
                 T* out) {
  T v{};
  const char* end = text.data() + text.size();
  auto [ptr, ec] = std::from_chars(text.data(), end, v);
  // Written so that NaN fails the range test.
  if (ec == std::errc() && ptr == end && lo <= v && v <= hi) {
    *out = v;
    return true;
  }
  std::ostringstream range;
  range << lo << " to " << hi;
  std::fprintf(stderr, "error: bad %s value '%s': expected a number from %s\n",
               what.c_str(), text.c_str(), range.str().c_str());
  return false;
}

/// ParseNumber on the value of flag `prefix` ("--threads="), which every
/// numeric flag of `serve`, `coordinate` and `query` goes through. An
/// absent flag leaves *out as it is.
template <typename T>
bool NumericFlag(const std::vector<std::string>& args,
                 const std::string& prefix, T lo, T hi, T* out) {
  for (const std::string& a : args) {
    if (a.rfind(prefix, 0) == 0) {
      return ParseNumber(prefix.substr(0, prefix.size() - 1),
                         a.substr(prefix.size()), lo, hi, out);
    }
  }
  return true;
}

/// A server's worker pool past this size only adds threads that wait.
constexpr size_t kMaxThreads = 1024;

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
      ReportError(mode.status());
      return false;
    }
    dbopts->sync_mode = *mode;
  }
  return true;
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

// `seqdl run`: open a Database over the instance (in memory, or seeding
// or recovering --data-dir), compile through it, run one snapshot, and
// print the derived facts the way `serve` and `query` print them.
int CmdRun(const std::vector<std::string>& args) {
  if (!OnlyKnownFlags(args, "run",
                      {"--data-dir=", "--sync=", "--output=", "--naive",
                       "--no-index", "--stats", "--explain",
                       "--legacy-planner"})) {
    return 2;
  }
  std::vector<std::string> pos = PositionalArgs(args);
  seqdl::Database::OpenOptions dbopts;
  if (!ApplyStorageFlags(args, &dbopts)) return 2;
  const bool durable = !dbopts.data_dir.empty();
  if (pos.empty() || (pos.size() < 2 && !durable)) {
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
  if (!program_text.ok()) return ReportError(program_text.status());
  seqdl::DiagnosticList parse_diags;
  auto program = seqdl::ParseProgram(u, *program_text, &parse_diags);
  if (!program.ok()) {
    // The same structured rendering as `seqdl check`: file:line:col,
    // severity, stable SD code.
    std::fprintf(stderr, "%s", parse_diags.RenderText(pos[0]).c_str());
    return 1;
  }

  // An initialized data directory is recovered without re-ingesting
  // anything; otherwise the instance seeds the database.
  seqdl::Instance seed;
  if (durable && seqdl::Database::DataDirInitialized(dbopts.data_dir)) {
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
    if (!instance_text.ok()) return ReportError(instance_text.status());
    auto instance = seqdl::ParseInstance(u, *instance_text);
    if (!instance.ok()) return ReportError(instance.status(), pos[1]);
    seed = std::move(*instance);
  }
  auto db = seqdl::Database::Open(u, std::move(seed), dbopts);
  if (!db.ok()) return ReportError(db.status());

  // The planner ranks access paths by the database's measured
  // statistics; --legacy-planner keeps the first-ground-argument
  // heuristic (results are identical either way — only cost changes).
  auto prepared = HasFlag(args, "--legacy-planner")
                      ? seqdl::Engine::Compile(u, std::move(*program))
                      : db->Compile(std::move(*program));
  if (!prepared.ok()) return ReportError(prepared.status());
  if (HasFlag(args, "--explain")) {
    std::fprintf(stderr, "%s", prepared->ExplainPlan().c_str());
  }
  seqdl::RunOptions opts;
  opts.seminaive = !HasFlag(args, "--naive");
  opts.use_index = !HasFlag(args, "--no-index");
  seqdl::EvalStats stats;
  seqdl::Session session = db->Snapshot();
  auto out = session.Run(*prepared, opts, &stats);
  if (!out.ok()) return ReportError(out.status());
  auto rendered = seqdl::RenderOutput(u, *out, FlagValue(args, "--output="));
  if (!rendered.ok()) return ReportError(rendered.status());
  std::printf("%s", rendered->c_str());

  std::fprintf(stderr, "-- %zu facts derived in %zu rounds (%zu firings)",
               stats.derived_facts, stats.rounds, stats.rule_firings);
  if (durable) {
    seqdl::storage::StorageInfo sinfo = db->storage_info();
    std::fprintf(stderr,
                 " at epoch %llu; storage generation %llu, %llu bytes on "
                 "disk",
                 static_cast<unsigned long long>(session.epoch()),
                 static_cast<unsigned long long>(sinfo.manifest_generation),
                 static_cast<unsigned long long>(sinfo.on_disk_bytes));
  }
  std::fprintf(stderr, "\n");
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

// --- One serve path ---------------------------------------------------------
// `seqdl serve`'s stdin loop and `seqdl query` share the command table
// (verb -> request frame), the reply printer and ReportError: a command
// prints the same lines through either front end, and both send their
// requests through the RequestHandler a TCP server runs.

using U = unsigned long long;

struct Command {
  const char* verb;
  seqdl::protocol::MsgType type;
  const char* operands;  ///< "" when the request has no body
};

constexpr Command kCommands[] = {
    {"run", seqdl::protocol::MsgType::kRun, "<program> [REL]"},
    {"compile", seqdl::protocol::MsgType::kCompile, "<program>"},
    {"append", seqdl::protocol::MsgType::kAppend, "<instance>"},
    {"retract", seqdl::protocol::MsgType::kRetract, "<instance>"},
    {"epoch", seqdl::protocol::MsgType::kEpoch, ""},
    {"compact", seqdl::protocol::MsgType::kCompact, ""},
    {"stats", seqdl::protocol::MsgType::kStats, ""},
    {"shutdown", seqdl::protocol::MsgType::kShutdown, ""},
};

/// "run <program> [REL] | compile <program> | ... | shutdown".
std::string CommandList() {
  std::string out;
  for (const Command& c : kCommands) {
    if (!out.empty()) out += " | ";
    out += c.verb;
    if (*c.operands != '\0') {
      out += " ";
      out += c.operands;
    }
  }
  return out;
}

/// The command `words` (a verb, then its operands) names, or null after
/// printing why not: an unknown verb, or a missing file operand.
const Command* FindCommand(const std::vector<std::string>& words,
                           const char* usage_prefix) {
  for (const Command& c : kCommands) {
    if (words[0] != c.verb) continue;
    if (*c.operands != '\0' && words.size() < 2) {
      std::fprintf(stderr, "usage: %s%s %s\n", usage_prefix, c.verb,
                   c.operands);
      return nullptr;
    }
    return &c;
  }
  std::fprintf(stderr, "error: unknown command '%s'\n", words[0].c_str());
  return nullptr;
}

/// The file a command ships, which names it in error locations.
std::string SourceOf(const std::vector<std::string>& words) {
  return words.size() > 1 ? words[1] : "";
}

/// The request frame of command `c` with operands `words`, carrying the
/// text of the file the command ships.
seqdl::Result<std::string> EncodeCommand(
    const Command& c, const std::vector<std::string>& words) {
  using seqdl::protocol::MsgType;
  if (*c.operands == '\0') return seqdl::protocol::EncodeBareRequest(c.type);
  SEQDL_ASSIGN_OR_RETURN(std::string text, ReadFile(words[1]));
  switch (c.type) {
    case MsgType::kRun: {
      seqdl::protocol::RunRequest req;
      req.program = std::move(text);
      req.source_name = words[1];
      if (words.size() > 2) req.output_rel = words[2];
      return seqdl::protocol::EncodeRunRequest(req);
    }
    case MsgType::kCompile:
      return seqdl::protocol::EncodeCompileRequest({std::move(text), words[1]});
    case MsgType::kAppend:
      return seqdl::protocol::EncodeAppendRequest({std::move(text), words[1]});
    default:
      return seqdl::protocol::EncodeRetractRequest({std::move(text), words[1]});
  }
}

/// One extra status line when the database is durable (generation 0
/// means in-memory: print nothing, keeping legacy output stable).
void PrintStorageLine(const seqdl::protocol::DbInfo& info) {
  if (info.manifest_generation == 0) return;
  std::printf("storage: generation %llu, %llu bytes on disk, %llu wal bytes\n",
              U(info.manifest_generation), U(info.on_disk_bytes),
              U(info.wal_bytes));
}

/// Prints the reply to command `words`: results on stdout; the run
/// trailer, the --stats line and a compile's findings on stderr.
void PrintReply(const std::vector<std::string>& words,
                const seqdl::protocol::Reply& reply, bool stats) {
  using seqdl::protocol::MsgType;
  switch (reply.orig_type) {
    case MsgType::kRun: {
      const seqdl::protocol::WireEvalStats& s = reply.run.stats;
      std::fwrite(reply.run.rendered.data(), 1, reply.run.rendered.size(),
                  stdout);
      std::fflush(stdout);
      std::fprintf(stderr, "-- %llu facts derived in %.3f ms (epoch %llu)\n",
                   U(s.derived_facts), s.run_seconds * 1e3,
                   U(reply.run.epoch));
      if (stats) {
        std::fprintf(stderr,
                     "-- scans: %llu index, %llu prefix, %llu suffix, "
                     "%llu full, %llu delta (%llu delta-indexed)\n",
                     U(s.index_probes), U(s.prefix_probes),
                     U(s.suffix_probes), U(s.full_scans), U(s.delta_scans),
                     U(s.delta_index_probes));
      }
      break;
    }
    case MsgType::kCompile: {
      const seqdl::protocol::CompileReply& c = reply.compile;
      std::printf("%s: %llu rules in %llu strata (%s, compile %.3f ms)\n",
                  words[1].c_str(), U(c.rules), U(c.strata),
                  c.cache_hit ? "cache hit" : "compiled",
                  c.compile_seconds * 1e3);
      if (!c.features.empty()) {
        std::printf("features %s, class %s, admission: %s\n",
                    c.features.c_str(), c.fragment_class.c_str(),
                    seqdl::AdmissionVerdictToString(
                        static_cast<seqdl::AdmissionVerdict>(c.admission)));
      }
      // The server's analyzer findings (lint SD1xx, admission SD3xx),
      // rendered like `seqdl check` renders its local ones.
      for (const seqdl::protocol::WireDiagnostic& w : c.diagnostics) {
        std::fprintf(stderr, "%s\n",
                     seqdl::protocol::FromWire(w).ToString(words[1]).c_str());
      }
      break;
    }
    case MsgType::kAppend:
      std::printf("appended %llu facts: epoch %llu, %llu segments, "
                  "%llu facts total\n",
                  U(reply.append.appended), U(reply.append.db.epoch),
                  U(reply.append.db.segments), U(reply.append.db.facts));
      break;
    case MsgType::kRetract:
      std::printf("retracted %llu facts: epoch %llu, %llu segments, "
                  "%llu facts total\n",
                  U(reply.retract.retracted), U(reply.retract.db.epoch),
                  U(reply.retract.db.segments), U(reply.retract.db.facts));
      break;
    case MsgType::kEpoch:
      std::printf("epoch %llu: %llu segments, %llu facts\n",
                  U(reply.info.epoch), U(reply.info.segments),
                  U(reply.info.facts));
      PrintStorageLine(reply.info);
      break;
    case MsgType::kCompact:
      std::printf("%s: epoch %llu, %llu segments, %llu facts\n",
                  reply.compact.folded ? "compacted" : "nothing to compact",
                  U(reply.compact.db.epoch), U(reply.compact.db.segments),
                  U(reply.compact.db.facts));
      PrintStorageLine(reply.compact.db);
      break;
    case MsgType::kStats: {
      const seqdl::protocol::StatsReply& st = reply.stats;
      // The planner's view: live-segment measurements merged with the
      // derived-fact statistics of earlier runs, plus the cache traffic.
      std::printf("%s", st.rendered.c_str());
      std::printf("cache: %llu hits, %llu misses, %llu evictions; "
                  "%llu entries, %llu bytes\n",
                  U(st.cache_hits), U(st.cache_misses),
                  U(st.cache_evictions), U(st.cache_entries),
                  U(st.cache_bytes));
      std::printf("views: %llu hits, %llu cold runs, %llu delta refreshes "
                  "(%llu DRed, %llu strata recomputed)\n",
                  U(st.view_hits), U(st.view_cold_runs),
                  U(st.view_delta_refreshes), U(st.view_dred_refreshes),
                  U(st.view_strata_recomputed));
      break;
    }
    case MsgType::kShutdown:
      std::printf("server shut down\n");
      break;
    default:
      break;
  }
  std::fflush(stdout);
}

// `seqdl serve` without --listen: a transport that makes each stdin
// command a request payload and answers it through the RequestHandler a
// TCP server runs. With a pool (--threads=N > 1), `run` payloads queue to
// the workers, and every other command first waits for the runs queued
// before it, so each answer reflects exactly the commands above it.
class StdinLoop {
 public:
  StdinLoop(seqdl::RequestHandler& handler, bool stats, size_t threads)
      : handler_(handler), stats_(stats) {
    for (size_t t = 0; threads > 1 && t < threads; ++t) {
      workers_.emplace_back([this] { WorkerLoop(); });
    }
  }

  /// Answers the runs still queued, then joins the workers.
  ~StdinLoop() {
    {
      std::lock_guard<std::mutex> lock(queue_mu_);
      done_ = true;
    }
    queue_cv_.notify_all();
    for (std::thread& w : workers_) w.join();
  }

  StdinLoop(const StdinLoop&) = delete;
  StdinLoop& operator=(const StdinLoop&) = delete;

  /// Answers command `words`, whose request payload is `payload`; false
  /// once a `shutdown` request ends the loop.
  bool Serve(seqdl::protocol::MsgType type, std::vector<std::string> words,
             std::string payload) {
    Job job{std::move(words), std::move(payload)};
    if (type == seqdl::protocol::MsgType::kRun && !workers_.empty()) {
      {
        std::lock_guard<std::mutex> lock(queue_mu_);
        queue_.push_back(std::move(job));
      }
      queue_cv_.notify_one();
      return true;
    }
    // Queued runs answer the state the commands above them left, so a
    // write or a report must not overtake them.
    std::unique_lock<std::mutex> lock(queue_mu_);
    drained_cv_.wait(lock,
                     [this] { return queue_.empty() && in_flight_ == 0; });
    lock.unlock();
    return Answer(job);
  }

  /// ReportError, serialized with the answers of the workers.
  void Report(const seqdl::Status& status) {
    std::lock_guard<std::mutex> lock(io_mu_);
    ReportError(status);
  }

 private:
  struct Job {
    std::vector<std::string> words;
    std::string payload;
  };

  bool Answer(const Job& job) {
    bool shutdown = false;
    std::string frame = handler_.Handle(job.payload, {}, &shutdown);
    seqdl::Result<seqdl::protocol::Reply> reply =
        seqdl::protocol::DecodeReply(std::string_view(frame).substr(4));
    std::lock_guard<std::mutex> lock(io_mu_);
    const seqdl::Status& status = reply.ok() ? reply->status : reply.status();
    if (status.ok()) {
      PrintReply(job.words, *reply, stats_);
    } else {
      ReportError(status, SourceOf(job.words));
    }
    return !shutdown;
  }

  void WorkerLoop() {
    while (true) {
      Job job;
      {
        std::unique_lock<std::mutex> lock(queue_mu_);
        queue_cv_.wait(lock, [this] { return done_ || !queue_.empty(); });
        if (queue_.empty()) return;  // done_ and nothing left to answer
        job = std::move(queue_.front());
        queue_.pop_front();
        ++in_flight_;
      }
      Answer(job);
      {
        std::lock_guard<std::mutex> lock(queue_mu_);
        --in_flight_;
      }
      drained_cv_.notify_all();
    }
  }

  seqdl::RequestHandler& handler_;
  bool stats_;

  std::mutex io_mu_;  ///< keeps each answer's lines together

  std::mutex queue_mu_;
  std::condition_variable queue_cv_, drained_cv_;
  std::deque<Job> queue_;
  size_t in_flight_ = 0;
  bool done_ = false;
  std::vector<std::thread> workers_;  ///< last: joined before the rest dies
};

int CmdServe(const std::vector<std::string>& args) {
  const char* usage =
      "usage: seqdl serve [<instance>] [--data-dir=DIR] "
      "[--sync=always|interval|never] [--stats] [--threads=N] "
      "[--recompile-drift=X] [--auto-compact=N] [--cache-bytes=N] "
      "[--listen=PORT] [--admission=off|budget|strict]\n"
      "(the instance is required without --data-dir, and when "
      "initializing a fresh data directory it seeds the EDB)\n";
  if (!OnlyKnownFlags(args, "serve",
                      {"--data-dir=", "--sync=", "--stats", "--threads=",
                       "--recompile-drift=", "--auto-compact=",
                       "--cache-bytes=", "--listen=", "--admission="})) {
    return 2;
  }
  std::vector<std::string> pos = PositionalArgs(args);
  std::string data_dir = FlagValue(args, "--data-dir=");
  if (pos.empty() && data_dir.empty()) {
    std::fprintf(stderr, "%s", usage);
    return 2;
  }
  bool stats_on = HasFlag(args, "--stats");
  // An empty --listen= fails NumericFlag below.
  bool listen_mode = !FlagValue(args, "--listen=").empty();
  uint16_t listen_port = 0;
  size_t threads = listen_mode ? 4 : 1;
  seqdl::ServiceOptions sopts;
  seqdl::Database::OpenOptions dbopts;
  dbopts.auto_compact_segments = 8;
  if (!NumericFlag<uint16_t>(args, "--listen=", 0, 65535, &listen_port) ||
      !NumericFlag<size_t>(args, "--threads=", 1, kMaxThreads, &threads) ||
      !NumericFlag(args, "--recompile-drift=", 0.0,
                   std::numeric_limits<double>::infinity(),
                   &sopts.recompile_drift) ||
      !NumericFlag<size_t>(args, "--auto-compact=", 0, SIZE_MAX,
                           &dbopts.auto_compact_segments) ||
      // Byte budget for the maintained-view/result cache (rendered output
      // plus materialized IDBs); LRU entries are evicted past it.
      !NumericFlag<size_t>(args, "--cache-bytes=", 0, SIZE_MAX,
                           &sopts.cache_bytes) ||
      !ApplyStorageFlags(args, &dbopts)) {
    return 2;
  }
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
    if (!instance_text.ok()) return ReportError(instance_text.status());
    auto instance = seqdl::ParseInstance(u, *instance_text);
    if (!instance.ok()) return ReportError(instance.status(), pos[0]);
    seed = std::move(*instance);
  }
  auto db = seqdl::Database::Open(u, std::move(seed), dbopts);
  if (!db.ok()) return ReportError(db.status());
  size_t edb_facts = db->NumFacts();
  const std::string source_desc = recovering || pos.empty()
                                      ? data_dir
                                      : pos[0];

  static std::mutex log_mu;
  // Admission control for untrusted programs (docs/analysis.md): off
  // runs everything (trusted clients, the default), budget caps runs of
  // potentially non-terminating programs, strict refuses them.
  if (std::string v = FlagValue(args, "--admission="); !v.empty()) {
    auto policy = seqdl::ParseAdmissionPolicy(v);
    if (!policy.ok()) {
      ReportError(policy.status());
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
    if (!server.ok()) return ReportError(server.status());
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
                 U((*server)->connections_accepted()),
                 U((*server)->requests_served()));
    return 0;
  }

  std::fprintf(stderr,
               "-- serving %zu EDB facts from %s (%zu worker thread%s); "
               "commands: %s | quit\n",
               edb_facts, source_desc.c_str(), threads,
               threads == 1 ? "" : "s", CommandList().c_str());
  seqdl::ServiceRequestHandler handler(service);
  StdinLoop loop(handler, stats_on, threads);
  std::string line;
  while (std::getline(std::cin, line)) {
    std::istringstream in(line);
    std::vector<std::string> words{std::istream_iterator<std::string>(in),
                                   std::istream_iterator<std::string>()};
    if (words.empty()) continue;
    if (words[0] == "quit" || words[0] == "exit") break;
    const Command* c = FindCommand(words, "");
    if (c == nullptr) continue;
    seqdl::Result<std::string> frame = EncodeCommand(*c, words);
    if (!frame.ok()) {
      loop.Report(frame.status());
      continue;
    }
    if (!loop.Serve(c->type, std::move(words), frame->substr(4))) break;
  }
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
  if (!OnlyKnownFlags(args, "coordinate",
                      {"--shards=", "--listen=", "--threads=", "--broadcast=",
                       "--pin=", "--connect-timeout-ms=", "--io-timeout-ms=",
                       "--cache-entries=", "--no-forward-shutdown"})) {
    return 2;
  }
  std::string shards_spec = FlagValue(args, "--shards=");
  if (shards_spec.empty()) {
    std::fprintf(stderr, "%s", usage);
    return 2;
  }
  auto shards = seqdl::ParseShardList(shards_spec);
  if (!shards.ok()) {
    ReportError(shards.status());
    return 2;
  }

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
        ReportError(seqdl::Status::InvalidArgument(
            "bad --pin entry '" + pin + "': expected REL=SHARD"));
        return 2;
      }
      uint32_t shard = 0;
      if (!ParseNumber<uint32_t>("--pin shard", pin.substr(eq + 1), 0,
                                 static_cast<uint32_t>(shards->size() - 1),
                                 &shard)) {
        return 2;
      }
      copts.partition.pinned[pin.substr(0, eq)] = shard;
    }
  }
  uint16_t listen_port = 0;
  size_t threads = 4;
  if (!NumericFlag<uint32_t>(args, "--connect-timeout-ms=", 0, UINT32_MAX,
                             &copts.connect_timeout_ms) ||
      !NumericFlag<uint32_t>(args, "--io-timeout-ms=", 0, UINT32_MAX,
                             &copts.io_timeout_ms) ||
      !NumericFlag<size_t>(args, "--cache-entries=", 0, SIZE_MAX,
                           &copts.result_cache_entries) ||
      !NumericFlag<uint16_t>(args, "--listen=", 0, 65535, &listen_port) ||
      !NumericFlag<size_t>(args, "--threads=", 1, kMaxThreads, &threads)) {
    return 2;
  }

  seqdl::Universe u;
  size_t num_shards = shards->size();
  seqdl::Coordinator coordinator(u, std::move(*shards), copts);
  seqdl::BackendHandler<seqdl::Coordinator> handler(
      coordinator, !HasFlag(args, "--no-forward-shutdown"));
  seqdl::ServerOptions server_opts;
  server_opts.port = listen_port;
  server_opts.threads = threads;
  auto server = seqdl::Server::Start(handler, server_opts);
  if (!server.ok()) return ReportError(server.status());
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
               U((*server)->connections_accepted()),
               U((*server)->requests_served()));
  return 0;
}

// Client for a `seqdl serve --listen` server or a `seqdl coordinate`
// front end: sends one command's request and prints the reply.
int CmdQuery(const std::vector<std::string>& args) {
  if (!OnlyKnownFlags(args, "query", {"--connect=", "--stats"})) return 2;
  std::string endpoint = FlagValue(args, "--connect=");
  std::vector<std::string> words = PositionalArgs(args);
  if (endpoint.empty() || words.empty()) {
    std::fprintf(stderr,
                 "usage: seqdl query --connect=HOST:PORT <%s> [--stats]\n",
                 CommandList().c_str());
    return 2;
  }
  // The --shards= rules: a dotted quad or "localhost", a port from 1 to
  // 65535.
  auto addr = seqdl::ParseShardList(endpoint);
  if (!addr.ok() || addr->size() != 1) {
    std::fprintf(stderr,
                 "error: bad --connect value '%s': expected HOST:PORT with "
                 "a port from 1 to 65535\n",
                 endpoint.c_str());
    return 2;
  }
  const Command* c = FindCommand(words, "seqdl query --connect=HOST:PORT ");
  if (c == nullptr) return 2;
  seqdl::Result<std::string> frame = EncodeCommand(*c, words);
  if (!frame.ok()) return ReportError(frame.status());
  auto client = seqdl::Client::Connect((*addr)[0].host, (*addr)[0].port);
  if (!client.ok()) return ReportError(client.status());
  auto reply = client->RoundTrip(*frame, c->type);
  if (!reply.ok()) return ReportError(reply.status(), SourceOf(words));
  PrintReply(words, *reply, HasFlag(args, "--stats"));
  return 0;
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
  if (!OnlyKnownFlags(args, "check",
                      {"--json", "--output=", "--admission=", "--werror"})) {
    return 2;
  }
  const std::string& source = args[0];
  bool json = HasFlag(args, "--json");
  seqdl::AdmissionPolicy policy = seqdl::AdmissionPolicy::kBudget;
  if (std::string v = FlagValue(args, "--admission="); !v.empty()) {
    auto parsed = seqdl::ParseAdmissionPolicy(v);
    if (!parsed.ok()) {
      ReportError(parsed.status());
      return 2;
    }
    policy = *parsed;
  }

  seqdl::Universe u;
  auto text = ReadFile(source);
  if (!text.ok()) {
    ReportError(text.status());
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
        ReportError(seqdl::Status::NotFound(
            "--output=" + v + ": relation not used by the program"));
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
  if (!OnlyKnownFlags(args, "transform", {"--eliminate="})) return 2;
  seqdl::Universe u;
  auto text = ReadFile(args[0]);
  if (!text.ok()) return ReportError(text.status());
  auto program = seqdl::ParseProgram(u, *text);
  if (!program.ok()) return ReportError(program.status(), args[0]);
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
      if (!s.ok()) return ReportError(s);
    }
    f = seqdl::DetectFeatures(current);
    if (f.Contains(seqdl::Feature::kEquations)) {
      seqdl::Status s = apply("equations");
      if (!s.ok()) return ReportError(s);
    }
    f = seqdl::DetectFeatures(current);
    if (f.Contains(seqdl::Feature::kArity)) {
      seqdl::Status s = apply("arity");
      if (!s.ok()) return ReportError(s);
    }
  } else {
    seqdl::Status s = apply(what);
    if (!s.ok()) return ReportError(s);
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
  if (!OnlyKnownFlags(args, "normalform", {})) return 2;
  seqdl::Universe u;
  auto text = ReadFile(args[0]);
  if (!text.ok()) return ReportError(text.status());
  auto program = seqdl::ParseProgram(u, *text);
  if (!program.ok()) return ReportError(program.status(), args[0]);
  seqdl::Program staged = *program;
  bool has_equations = false;
  for (const seqdl::Rule* r : staged.AllRules()) {
    for (const seqdl::Literal& l : r->body) {
      has_equations |= l.is_equation();
    }
  }
  if (has_equations) {
    auto q = seqdl::EliminateEquations(u, staged);
    if (!q.ok()) return ReportError(q.status());
    staged = std::move(*q);
  }
  auto normal = seqdl::ToNormalForm(u, staged);
  if (!normal.ok()) return ReportError(normal.status());
  std::printf("%s", seqdl::FormatProgram(u, *normal).c_str());
  return 0;
}

int CmdAlgebra(const std::vector<std::string>& args) {
  if (args.size() < 2) {
    std::fprintf(stderr, "usage: seqdl algebra <program> <REL>\n");
    return 2;
  }
  if (!OnlyKnownFlags(args, "algebra", {})) return 2;
  seqdl::Universe u;
  auto text = ReadFile(args[0]);
  if (!text.ok()) return ReportError(text.status());
  auto program = seqdl::ParseProgram(u, *text);
  if (!program.ok()) return ReportError(program.status(), args[0]);
  auto rel = u.FindRel(args[1]);
  if (!rel.ok()) return ReportError(rel.status());
  auto alg = seqdl::DatalogToAlgebra(u, *program, *rel);
  if (!alg.ok()) return ReportError(alg.status());
  std::printf("%s\n", seqdl::FormatAlgebra(u, **alg).c_str());
  return 0;
}

int CmdHasse(const std::vector<std::string>& args) {
  if (!OnlyKnownFlags(args, "hasse", {"--dot"})) return 2;
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
  if (!OnlyKnownFlags(args, "regex", {})) return 2;
  seqdl::Universe u;
  auto q = seqdl::RegexToDatalog(u, args[0]);
  if (!q.ok()) return ReportError(q.status());
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
