// seqdl — command line front end for the Sequence Datalog library.
//
// Each subcommand declares its operands and flags once, in the table its
// CommandLine::Parse call checks the arguments against. `seqdl` with no
// subcommand prints every subcommand's synopsis from those tables;
// README.md's CLI block holds the same lines.
//
// Parsing walks the arguments once: operands may come before, between or
// after flags. An unknown flag (a typo, or a valued flag without its '='),
// a value given to a switch, a repeated flag, a number with trailing bytes
// or out of range, a word not in its list, or too few or too many operands
// is a usage error (exit 2) before the subcommand reads a file, opens a
// directory, connects or binds a port. HOST:PORT takes a dotted quad or
// "localhost" and a port from 1 to 65535.
//
//   seqdl run
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
//   seqdl serve
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
//   seqdl coordinate
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
//   seqdl query
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
//   seqdl check
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
//   seqdl transform
//       Apply the paper's redundancy transformations and print the result:
//       one named by --eliminate, or (all, the default) each in turn whose
//       feature the program has.
//
//   seqdl normalform
//       Print the Lemma 7.2 normal form (nonrecursive, equation-free
//       programs; equations are eliminated first if present).
//
//   seqdl algebra
//       Print the Theorem 7.1 sequence relational algebra expression for
//       an IDB relation of a nonrecursive program.
//
//   seqdl hasse
//       Print the Figure 1 Hasse diagram (--dot: as a Graphviz graph).
//
//   seqdl regex
//       Compile a regular expression to a Sequence Datalog matcher and
//       print the program.
#include <algorithm>
#include <charconv>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <deque>
#include <fstream>
#include <functional>
#include <iostream>
#include <iterator>
#include <limits>
#include <mutex>
#include <span>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <type_traits>
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

/// The program in file `source`, parsed into `u`.
seqdl::Result<seqdl::Program> LoadProgram(seqdl::Universe& u,
                                          const std::string& source) {
  SEQDL_ASSIGN_OR_RETURN(std::string text, ReadFile(source));
  return seqdl::ParseProgram(u, text);
}

/// Parses `text`, the value of `what`, into *out and returns "". The whole
/// text must be a number from `lo` to `hi`: trailing bytes ("64M") or a
/// value out of range (a port of 70000) leave *out as it is and return the
/// usage error.
template <typename T>
std::string ParseNumber(std::string_view what, const std::string& text, T lo,
                        T hi, T* out) {
  T v{};
  const char* end = text.data() + text.size();
  auto [ptr, ec] = std::from_chars(text.data(), end, v);
  // Written so that NaN fails the range test.
  if (ec == std::errc() && ptr == end && lo <= v && v <= hi) {
    *out = v;
    return "";
  }
  std::ostringstream error;
  error << "bad " << what << " value '" << text << "': expected a number from "
        << lo << " to " << hi;
  return error.str();
}

// --- One table per subcommand ----------------------------------------------

/// One flag of a subcommand, `--name` (a switch) or `--name=VALUE`, and
/// the variable it fills.
struct Flag {
  std::string_view name;
  std::string value;  ///< "=VALUE" as the usage shows it; empty for a switch
  /// Stores the flag's value and returns "", or returns why it is bad.
  std::function<std::string(const std::string& text)> set;
  bool required = false;

  std::string Usage() const { return std::string(name) + value; }
};

/// A flag that takes no value and sets *on.
Flag Switch(std::string_view name, bool* on) {
  return {name, "", [on](const std::string&) {
            *on = true;
            return "";
          }};
}

/// A flag whose value is any text, named `value` in the usage.
Flag Text(std::string_view name, const char* value, std::string* out,
          bool required = false) {
  return {name, std::string("=") + value,
          [out](const std::string& text) {
            *out = text;
            return "";
          },
          required};
}

/// A flag whose value is a number from `lo` to `hi` (ParseNumber's rules).
template <typename T>
Flag Number(std::string_view name, const char* value,
            std::type_identity_t<T> lo, std::type_identity_t<T> hi, T* out) {
  return {name, std::string("=") + value,
          [name, lo, hi, out](const std::string& text) {
            return ParseNumber(name, text, lo, hi, out);
          }};
}

/// The words a flag takes, each with the value it stores.
template <typename T>
using Words = std::span<const std::pair<std::string_view, T>>;

/// A flag whose value is one of `words`.
template <typename T>
Flag Word(std::string_view name, std::type_identity_t<Words<T>> words,
          T* out) {
  std::string list;
  for (const auto& [word, value] : words) {
    list += list.empty() ? "" : "|";
    list += word;
  }
  return {name, "=" + list, [name, words, list, out](const std::string& text) {
            for (const auto& [word, value] : words) {
              if (text == word) {
                *out = value;
                return std::string();
              }
            }
            std::ostringstream error;
            error << "bad " << name << " value '" << text << "': expected "
                  << list;
            return error.str();
          }};
}

constexpr std::pair<std::string_view, seqdl::storage::SyncMode> kSyncModes[] =
    {{"always", seqdl::storage::SyncMode::kAlways},
     {"interval", seqdl::storage::SyncMode::kInterval},
     {"never", seqdl::storage::SyncMode::kNever}};

constexpr std::pair<std::string_view, seqdl::AdmissionPolicy>
    kAdmissionPolicies[] = {{"off", seqdl::AdmissionPolicy::kOff},
                            {"budget", seqdl::AdmissionPolicy::kBudget},
                            {"strict", seqdl::AdmissionPolicy::kStrict}};

/// One operand of a subcommand and the string it fills, or (the last row
/// only) the vector that takes every operand left.
struct Operand {
  std::string name;  ///< "<program>" if required, "[<instance>]" if not
  std::string* out;
  std::vector<std::string>* rest = nullptr;
};

/// The arguments of one subcommand, parsed in one pass against its table.
/// A subcommand does nothing before its Parse call but declare what the
/// table fills, so a line without arguments, which only builds the
/// synopsis, runs nothing else.
class CommandLine {
 public:
  CommandLine(std::string command, const std::vector<std::string>* args)
      : command_(std::move(command)), args_(args) {}

  /// Fills the variables of `operands` and `flags` from the arguments.
  /// False after printing one error line and the usage, or at once for a
  /// line without arguments: the subcommand then exits 2.
  bool Parse(const std::vector<Operand>& operands,
             const std::vector<Flag>& flags);

  /// Prints "error: <message>" and the usage; returns 2, the exit code.
  int Fail(const std::string& message) const {
    std::fprintf(stderr, "error: %s\nusage: %s\n", message.c_str(),
                 synopsis_.c_str());
    return 2;
  }

  /// "seqdl run <program> [<instance>] [--data-dir=DIR] ...".
  const std::string& synopsis() const { return synopsis_; }

 private:
  std::string command_;
  const std::vector<std::string>* args_;  ///< null: build the synopsis only
  std::string synopsis_;
};

bool CommandLine::Parse(const std::vector<Operand>& operands,
                        const std::vector<Flag>& flags) {
  // The synopsis: required flags, the operands, then the optional flags.
  synopsis_ = "seqdl " + command_;
  for (const Flag& f : flags) {
    if (f.required) synopsis_ += ' ' + f.Usage();
  }
  for (const Operand& o : operands) synopsis_ += ' ' + o.name;
  for (const Flag& f : flags) {
    if (!f.required) synopsis_ += " [" + f.Usage() + ']';
  }
  if (args_ == nullptr) return false;

  auto fail = [this](const std::string& message) {
    Fail(message);
    return false;
  };
  std::vector<std::string> words;
  std::vector<bool> given(flags.size());
  for (const std::string& arg : *args_) {
    if (arg.rfind("--", 0) != 0) {
      words.push_back(arg);
      continue;
    }
    const size_t eq = std::min(arg.find('='), arg.size());
    const std::string name = arg.substr(0, eq);
    size_t i = 0;
    while (i < flags.size() && flags[i].name != name) ++i;
    if (i == flags.size()) {
      return fail("unknown flag '" + arg + "' for " + command_);
    }
    if (flags[i].value.empty() != (eq == arg.size())) {
      return fail(flags[i].value.empty()
                      ? name + " takes no value"
                      : name + " needs a value: " + flags[i].Usage());
    }
    if (given[i]) return fail(name + " is given twice");
    given[i] = true;
    std::string why = flags[i].set(arg.substr(std::min(eq + 1, arg.size())));
    if (!why.empty()) return fail(why);
  }
  for (size_t i = 0; i < flags.size(); ++i) {
    if (flags[i].required && !given[i]) {
      return fail(flags[i].Usage() + " is required");
    }
  }
  size_t required = 0;
  for (const Operand& o : operands) required += o.name[0] == '<';
  if (words.size() < required) {
    return fail(operands[words.size()].name + " is required");
  }
  if (words.size() > operands.size() &&
      (operands.empty() || operands.back().rest == nullptr)) {
    return fail("unexpected operand '" + words[operands.size()] + "'");
  }
  for (size_t i = 0; i < operands.size() && i < words.size(); ++i) {
    if (operands[i].rest != nullptr) {
      operands[i].rest->assign(words.begin() + i, words.end());
    } else {
      *operands[i].out = words[i];
    }
  }
  return true;
}

/// A server's worker pool past this size only adds threads that wait.
constexpr size_t kMaxThreads = 1024;

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
  };
  std::fprintf(stderr, "-- %-20s %12s\n", "scan family", "count");
  for (const Row& row : rows) {
    std::fprintf(stderr, "-- %-20s %12zu\n", row.name, row.count);
  }
}

// The database of `run` and `serve`. A data directory being recovered is
// not re-ingested: the EDB it holds is authoritative, and a given instance
// is ignored with a note. Otherwise the instance, if given, seeds it.
seqdl::Result<seqdl::Database> OpenDatabase(
    seqdl::Universe& u, const std::string& instance_file,
    const seqdl::Database::OpenOptions& dbopts, bool recovering) {
  seqdl::Instance seed;
  if (recovering && !instance_file.empty()) {
    std::fprintf(stderr,
                 "-- note: %s is already initialized; ignoring %s "
                 "(the recovered EDB is authoritative)\n",
                 dbopts.data_dir.c_str(), instance_file.c_str());
  } else if (!instance_file.empty()) {
    SEQDL_ASSIGN_OR_RETURN(std::string text, ReadFile(instance_file));
    SEQDL_ASSIGN_OR_RETURN(seed, seqdl::ParseInstance(u, text));
  }
  return seqdl::Database::Open(u, std::move(seed), dbopts);
}

// `seqdl run`: open a Database over the instance (in memory, or seeding
// or recovering --data-dir), compile through it, run one snapshot, and
// print the derived facts the way `serve` and `query` print them.
int CmdRun(CommandLine& line) {
  std::string program_file, instance_file, output;
  seqdl::Database::OpenOptions dbopts;
  bool naive = false, no_index = false, stats_on = false, explain = false,
       legacy_planner = false;
  if (!line.Parse(
          {{"<program>", &program_file}, {"[<instance>]", &instance_file}},
          {Text("--data-dir", "DIR", &dbopts.data_dir),
           Word("--sync", kSyncModes, &dbopts.sync_mode),
           Text("--output", "REL", &output),
           Switch("--naive", &naive),
           Switch("--no-index", &no_index),
           Switch("--stats", &stats_on),
           Switch("--explain", &explain),
           Switch("--legacy-planner", &legacy_planner)})) {
    return 2;
  }
  const bool durable = !dbopts.data_dir.empty();
  const bool recovering =
      durable && seqdl::Database::DataDirInitialized(dbopts.data_dir);
  if (instance_file.empty() && !recovering) {
    return line.Fail(
        "<instance> is required without an initialized --data-dir");
  }
  seqdl::Universe u;
  auto program_text = ReadFile(program_file);
  if (!program_text.ok()) return ReportError(program_text.status());
  seqdl::DiagnosticList parse_diags;
  auto program = seqdl::ParseProgram(u, *program_text, &parse_diags);
  if (!program.ok()) {
    // The same structured rendering as `seqdl check`: file:line:col,
    // severity, stable SD code.
    std::fprintf(stderr, "%s", parse_diags.RenderText(program_file).c_str());
    return 1;
  }

  auto db = OpenDatabase(u, instance_file, dbopts, recovering);
  if (!db.ok()) return ReportError(db.status(), instance_file);

  // The planner ranks access paths by the database's measured
  // statistics; --legacy-planner keeps the first-ground-argument
  // heuristic (results are identical either way — only cost changes).
  auto prepared = legacy_planner
                      ? seqdl::Engine::Compile(u, std::move(*program))
                      : db->Compile(std::move(*program));
  if (!prepared.ok()) return ReportError(prepared.status());
  if (explain) {
    std::fprintf(stderr, "%s", prepared->ExplainPlan().c_str());
  }
  seqdl::RunOptions opts;
  opts.seminaive = !naive;
  opts.use_index = !no_index;
  seqdl::EvalStats stats;
  seqdl::Session session = db->Snapshot();
  auto out = session.Run(*prepared, opts, &stats);
  if (!out.ok()) return ReportError(out.status());
  auto rendered = seqdl::RenderOutput(u, *out, output);
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
  if (stats_on) {
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
  /// One word per operand, "<required>" or "[optional]"; "" when the
  /// request has no body.
  const char* operands;
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
/// setting *error: an unknown verb, or too few or too many operands.
const Command* FindCommand(const std::vector<std::string>& words,
                           std::string* error) {
  for (const Command& c : kCommands) {
    if (words[0] != c.verb) continue;
    std::istringstream names(c.operands);
    size_t required = 0, most = 0;
    for (std::string name; names >> name; ++most) required += name[0] == '<';
    if (words.size() - 1 < required || words.size() - 1 > most) {
      *error = words[0] + " takes ";
      *error += most == 0 ? "no operands" : c.operands;
      return nullptr;
    }
    return &c;
  }
  *error = "unknown command '" + words[0] + "'";
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
                     "%llu full, %llu delta\n",
                     U(s.index_probes), U(s.prefix_probes),
                     U(s.suffix_probes), U(s.full_scans), U(s.delta_scans));
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
      // The planner's view: the live segments' measurements, plus the
      // cache traffic.
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

int CmdServe(CommandLine& line) {
  std::string instance_file;
  seqdl::Database::OpenOptions dbopts;
  dbopts.auto_compact_segments = 8;
  seqdl::ServiceOptions sopts;
  bool stats_on = false;
  size_t threads = 0;  // unset: 4 with --listen, 1 without
  int listen_port = -1;  // -1: answer stdin
  if (!line.Parse(
          {{"[<instance>]", &instance_file}},
          {Text("--data-dir", "DIR", &dbopts.data_dir),
           Word("--sync", kSyncModes, &dbopts.sync_mode),
           Switch("--stats", &stats_on),
           Number("--threads", "N", 1, kMaxThreads, &threads),
           Number("--recompile-drift", "X", 0.0,
                  std::numeric_limits<double>::infinity(),
                  &sopts.recompile_drift),
           Number("--auto-compact", "N", 0, SIZE_MAX,
                  &dbopts.auto_compact_segments),
           // Byte budget for the maintained-view/result cache (rendered
           // output plus materialized IDBs); LRU entries are evicted past it.
           Number("--cache-bytes", "N", 0, SIZE_MAX, &sopts.cache_bytes),
           Number("--listen", "PORT", 0, 65535, &listen_port),
           // Admission control for untrusted programs (docs/analysis.md):
           // off runs everything (trusted clients, the default), budget
           // caps runs of potentially non-terminating programs, strict
           // refuses them.
           Word("--admission", kAdmissionPolicies, &sopts.admission)})) {
    return 2;
  }
  if (instance_file.empty() && dbopts.data_dir.empty()) {
    return line.Fail("<instance> is required without --data-dir");
  }
  if (threads == 0) threads = listen_port >= 0 ? 4 : 1;
  seqdl::Universe u;
  // With --data-dir on an initialized directory the recovered EDB is
  // authoritative: a restart serves the pre-restart facts without
  // re-ingesting any source file.
  const bool recovering = !dbopts.data_dir.empty() &&
                          seqdl::Database::DataDirInitialized(dbopts.data_dir);
  auto db = OpenDatabase(u, instance_file, dbopts, recovering);
  if (!db.ok()) return ReportError(db.status(), instance_file);
  size_t edb_facts = db->NumFacts();
  const std::string source_desc =
      recovering || instance_file.empty() ? dbopts.data_dir : instance_file;

  static std::mutex log_mu;
  sopts.log = [](const std::string& msg) {
    std::lock_guard<std::mutex> lock(log_mu);
    std::fprintf(stderr, "-- %s\n", msg.c_str());
  };
  seqdl::DatabaseService service(u, std::move(*db), sopts);

  if (listen_port >= 0) {
    if (stats_on) {
      std::fprintf(stderr,
                   "-- note: --stats has no effect with --listen; per-run "
                   "counters travel in each reply (seqdl query ... run "
                   "--stats)\n");
    }
    seqdl::ServerOptions server_opts;
    server_opts.port = static_cast<uint16_t>(listen_port);
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
  std::string text;
  while (std::getline(std::cin, text)) {
    std::istringstream in(text);
    std::vector<std::string> words{std::istream_iterator<std::string>(in),
                                   std::istream_iterator<std::string>()};
    if (words.empty()) continue;
    if (words[0] == "quit" || words[0] == "exit") break;
    std::string error;
    const Command* c = FindCommand(words, &error);
    if (c == nullptr) {
      std::fprintf(stderr, "error: %s\n", error.c_str());
      continue;
    }
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
int CmdCoordinate(CommandLine& line) {
  std::string shards_spec, broadcast, pins;
  seqdl::CoordinatorOptions copts;
  uint16_t listen_port = 0;
  size_t threads = 4;
  bool no_forward_shutdown = false;
  if (!line.Parse(
          {},
          {Text("--shards", "HOST:PORT[,HOST:PORT...]", &shards_spec,
                /*required=*/true),
           Number("--listen", "PORT", 0, 65535, &listen_port),
           Number("--threads", "N", 1, kMaxThreads, &threads),
           Text("--broadcast", "REL[,REL...]", &broadcast),
           Text("--pin", "REL=SHARD[,REL=SHARD...]", &pins),
           Number("--connect-timeout-ms", "N", 0, UINT32_MAX,
                  &copts.connect_timeout_ms),
           Number("--io-timeout-ms", "N", 0, UINT32_MAX, &copts.io_timeout_ms),
           Number("--cache-entries", "N", 0, SIZE_MAX,
                  &copts.result_cache_entries),
           Switch("--no-forward-shutdown", &no_forward_shutdown)})) {
    return 2;
  }
  auto shards = seqdl::ParseShardList(shards_spec);
  if (!shards.ok()) return line.Fail(shards.status().ToString());

  std::istringstream rels(broadcast);
  for (std::string rel; std::getline(rels, rel, ',');) {
    if (!rel.empty()) copts.partition.broadcast.insert(rel);
  }
  std::istringstream pin_list(pins);
  for (std::string pin; std::getline(pin_list, pin, ',');) {
    size_t eq = pin.find('=');
    if (eq == std::string::npos || eq == 0 || eq + 1 == pin.size()) {
      return line.Fail("bad --pin entry '" + pin + "': expected REL=SHARD");
    }
    uint32_t shard = 0;
    std::string why = ParseNumber<uint32_t>(
        "--pin shard", pin.substr(eq + 1), 0,
        static_cast<uint32_t>(shards->size() - 1), &shard);
    if (!why.empty()) return line.Fail(why);
    copts.partition.pinned[pin.substr(0, eq)] = shard;
  }

  seqdl::Universe u;
  size_t num_shards = shards->size();
  seqdl::Coordinator coordinator(u, std::move(*shards), copts);
  seqdl::BackendHandler<seqdl::Coordinator> handler(
      coordinator, !no_forward_shutdown);
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
int CmdQuery(CommandLine& line) {
  std::string endpoint;
  std::vector<std::string> words;  // a command: its verb, then its operands
  bool stats_on = false;
  if (!line.Parse({{"<" + CommandList() + ">", nullptr, &words}},
                  {Text("--connect", "HOST:PORT", &endpoint, /*required=*/true),
                   Switch("--stats", &stats_on)})) {
    return 2;
  }
  // The --shards= rules: a dotted quad or "localhost", a port from 1 to
  // 65535.
  auto addr = seqdl::ParseShardList(endpoint);
  if (!addr.ok() || addr->size() != 1) {
    return line.Fail("bad --connect value '" + endpoint +
                     "': expected HOST:PORT with a port from 1 to 65535");
  }
  std::string error;
  const Command* c = FindCommand(words, &error);
  if (c == nullptr) return line.Fail(error);
  seqdl::Result<std::string> frame = EncodeCommand(*c, words);
  if (!frame.ok()) return ReportError(frame.status());
  auto client = seqdl::Client::Connect((*addr)[0].host, (*addr)[0].port);
  if (!client.ok()) return ReportError(client.status());
  auto reply = client->RoundTrip(*frame, c->type);
  if (!reply.ok()) return ReportError(reply.status(), SourceOf(words));
  PrintReply(words, *reply, stats_on);
  return 0;
}

// The full program analyzer: parse, validation (SD0xx), lints (SD1xx),
// and admission classification (SD3xx) in one pass, rendered as
// compiler-style diagnostics or one JSON document (--json). Exit codes:
// 0 clean, 1 errors (including strict-admission rejection), 2 usage/IO,
// 4 warnings only.
int CmdCheck(CommandLine& line) {
  std::string source, output;
  bool json = false, werror = false;
  seqdl::AdmissionPolicy policy = seqdl::AdmissionPolicy::kBudget;
  if (!line.Parse({{"<program>", &source}},
                  {Switch("--json", &json), Text("--output", "REL", &output),
                   Word("--admission", kAdmissionPolicies, &policy),
                   Switch("--werror", &werror)})) {
    return 2;
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
    if (!output.empty()) {
      auto rel = u.FindRel(output);
      if (!rel.ok()) {
        return line.Fail("--output=" + output +
                         ": relation not used by the program");
      }
      lopts.output = *rel;
    }
    seqdl::LintProgram(u, *program, lopts, &diags);
    report = seqdl::AnalyzeAdmission(u, *program);
    seqdl::DiagnosticList admission =
        seqdl::PolicyDiagnostics(report, policy);
    for (const seqdl::Diagnostic& d : admission.all()) diags.Add(d);
  }

  if (werror) {
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

/// One of the paper's redundancy transformations: `transform` applies the
/// one --eliminate names, or by default each in table order whose feature
/// the program has.
struct Elimination {
  std::string_view word;
  seqdl::Feature feature;
  seqdl::Result<seqdl::Program> (*apply)(seqdl::Universe&,
                                         const seqdl::Program&);
};

constexpr Elimination kEliminations[] = {
    {"packing", seqdl::Feature::kPacking,
     [](seqdl::Universe& u, const seqdl::Program& p) {
       return seqdl::EliminatePackingNonrecursive(u, p);
     }},
    {"equations", seqdl::Feature::kEquations, seqdl::EliminateEquations},
    {"arity", seqdl::Feature::kArity, seqdl::EliminateArity},
};

int CmdTransform(CommandLine& line) {
  // Each elimination by its word, and "all" (the default) as null.
  std::vector<std::pair<std::string_view, const Elimination*>> words;
  for (const Elimination& e : kEliminations) words.emplace_back(e.word, &e);
  words.emplace_back("all", nullptr);
  std::string source;
  const Elimination* only = nullptr;
  if (!line.Parse({{"<program>", &source}},
                  {Word("--eliminate", words, &only)})) {
    return 2;
  }
  seqdl::Universe u;
  auto program = LoadProgram(u, source);
  if (!program.ok()) return ReportError(program.status(), source);

  seqdl::Program current = std::move(*program);
  for (const Elimination& e : kEliminations) {
    if (only != nullptr ? only != &e
                        : !seqdl::DetectFeatures(current).Contains(e.feature)) {
      continue;
    }
    auto q = e.apply(u, current);
    if (!q.ok()) return ReportError(q.status());
    current = std::move(*q);
  }
  std::printf("%s", seqdl::FormatProgram(u, current).c_str());
  std::fprintf(stderr, "-- %zu rules, features %s\n", current.NumRules(),
               seqdl::DetectFeatures(current).ToString().c_str());
  return 0;
}

int CmdNormalForm(CommandLine& line) {
  std::string source;
  if (!line.Parse({{"<program>", &source}}, {})) return 2;
  seqdl::Universe u;
  auto program = LoadProgram(u, source);
  if (!program.ok()) return ReportError(program.status(), source);
  seqdl::Program staged = std::move(*program);
  if (seqdl::DetectFeatures(staged).Contains(seqdl::Feature::kEquations)) {
    auto q = seqdl::EliminateEquations(u, staged);
    if (!q.ok()) return ReportError(q.status());
    staged = std::move(*q);
  }
  auto normal = seqdl::ToNormalForm(u, staged);
  if (!normal.ok()) return ReportError(normal.status());
  std::printf("%s", seqdl::FormatProgram(u, *normal).c_str());
  return 0;
}

int CmdAlgebra(CommandLine& line) {
  std::string source, rel_name;
  if (!line.Parse({{"<program>", &source}, {"<REL>", &rel_name}}, {})) {
    return 2;
  }
  seqdl::Universe u;
  auto program = LoadProgram(u, source);
  if (!program.ok()) return ReportError(program.status(), source);
  auto rel = u.FindRel(rel_name);
  if (!rel.ok()) return ReportError(rel.status());
  auto alg = seqdl::DatalogToAlgebra(u, *program, *rel);
  if (!alg.ok()) return ReportError(alg.status());
  std::printf("%s\n", seqdl::FormatAlgebra(u, **alg).c_str());
  return 0;
}

int CmdHasse(CommandLine& line) {
  bool dot = false;
  if (!line.Parse({}, {Switch("--dot", &dot)})) return 2;
  seqdl::HasseDiagram d = seqdl::BuildHasseDiagram();
  if (dot) {
    std::printf("%s", seqdl::HasseToDot(d).c_str());
  } else {
    std::printf("%s", seqdl::RenderHasse(d).c_str());
  }
  return 0;
}

int CmdRegex(CommandLine& line) {
  std::string pattern;
  if (!line.Parse({{"<pattern>", &pattern}}, {})) return 2;
  seqdl::Universe u;
  auto q = seqdl::RegexToDatalog(u, pattern);
  if (!q.ok()) return ReportError(q.status());
  std::printf("%% strings go into %s; matches appear in %s\n",
              u.RelName(q->input).c_str(), u.RelName(q->output).c_str());
  std::printf("%s", seqdl::FormatProgram(u, q->program).c_str());
  return 0;
}

/// The subcommands, in the order `seqdl` lists their synopses.
struct Subcommand {
  const char* name;
  int (*run)(CommandLine& line);
};

constexpr Subcommand kSubcommands[] = {
    {"run", CmdRun},
    {"serve", CmdServe},
    {"coordinate", CmdCoordinate},
    {"query", CmdQuery},
    {"check", CmdCheck},
    {"transform", CmdTransform},
    {"normalform", CmdNormalForm},
    {"algebra", CmdAlgebra},
    {"hasse", CmdHasse},
    {"regex", CmdRegex},
};

}  // namespace

int main(int argc, char** argv) {
  for (const Subcommand& s : kSubcommands) {
    if (argc > 1 && std::string_view(argv[1]) == s.name) {
      const std::vector<std::string> args(argv + 2, argv + argc);
      CommandLine line(s.name, &args);
      return s.run(line);
    }
  }
  if (argc > 1) std::fprintf(stderr, "error: unknown command '%s'\n", argv[1]);
  std::fprintf(stderr, "usage:\n");
  for (const Subcommand& s : kSubcommands) {
    CommandLine line(s.name, nullptr);
    s.run(line);  // returns at its Parse call, having built the synopsis
    std::fprintf(stderr, "  %s\n", line.synopsis().c_str());
  }
  return 2;
}
