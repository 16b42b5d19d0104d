// One single-node seqdl service configured the way `seqdl serve`
// configures it by default, plus the traced path of a cache-miss run: the
// benchmark makes the service's own calls itself, in the service's order
// and on the op's own inputs, one span per layer.
#ifndef PERFBENCH_SRC_NODE_H_
#define PERFBENCH_SRC_NODE_H_

#include <memory>
#include <string>
#include <vector>

#include "perfbench/src/bench.h"
#include "src/engine/database.h"
#include "src/engine/engine.h"
#include "src/server/service.h"
#include "src/term/universe.h"

namespace perfbench {

/// `seqdl serve` defaults: result cache of 4096 entries / 64 MiB,
/// maintained views refreshed eagerly, recompile drift 0.25, admission
/// off.
seqdl::ServiceOptions ServeDefaults();
/// `seqdl serve` defaults for the database: --auto-compact=8, and
/// sync=always when `data_dir` is set.
seqdl::Database::OpenOptions OpenDefaults(const std::string& data_dir);

struct Node {
  seqdl::Universe u;
  std::unique_ptr<seqdl::DatabaseService> service;
  std::unique_ptr<seqdl::ServiceRequestHandler> handler;

  /// Builds the service over `db` (opened in `u`).
  void Serve(seqdl::Database db);
  /// Sends one request payload through Handle, as a server worker would
  /// after reading the frame, and returns the reply frame.
  std::string Handle(const std::string& payload);
};

/// Timings of one in-process setup: parse the EDB text, open the
/// database and take its first statistics.
struct OpenTimes {
  double parse_s = 0;
  double open_s = 0;
};

/// Parses `edb_text` and opens an in-memory database over it.
seqdl::Result<seqdl::Database> OpenInMemory(Node& n, const std::string& edb_text,
                                            OpenTimes* times);

/// The live facts, segments and maintained views of `n`'s database, for
/// the stationarity check that compares the two halves of a run.
RoundState StateOf(const Node& n);

/// DatabaseService::CompileFresh, split: parse -> statistics ->
/// admission -> lint -> compile. `stats` receives the statistics the
/// plan was compiled against.
seqdl::Result<seqdl::PreparedProgram> TracedCompile(Node& n, Tracer& t, const std::string& text,
                                                   seqdl::StoreStats* stats);

/// A cache-miss `run`, split the way DatabaseService::Run executes it:
/// decode -> parse -> statistics -> admission -> lint -> compile ->
/// view refresh (cold evaluation) -> render -> encode. Returns the
/// rendering; `stats` receives the evaluation counters.
seqdl::Result<std::string> TracedColdRun(Node& n, Tracer& t, const std::string& payload,
                                         seqdl::EvalStats* stats);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_NODE_H_
