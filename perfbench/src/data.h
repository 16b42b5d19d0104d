// Seeded inputs of the benchmark and the plain C++ answers they are
// checked against. Everything here is computed from the generated data,
// never by the engine: DNA reads (motif marking with packing), event logs
// (process-mining compliance) and path-encoded graphs (reachability),
// the applications the paper uses to motivate Sequence Datalog.
#ifndef PERFBENCH_SRC_DATA_H_
#define PERFBENCH_SRC_DATA_H_

#include <cstdint>
#include <random>
#include <set>
#include <string>
#include <vector>

#include "src/workload/generators.h"

namespace perfbench {

using Rng = std::mt19937_64;

/// A sequence of atoms; DNA reads use the atoms a, c, g, t and event logs
/// the activity names of kActivities.
using Seq = std::vector<std::string>;

extern const std::vector<std::string> kActivities;

Seq RandomDna(Rng& rng, size_t min_len, size_t max_len);
/// An event log; "co" and "rp" are as frequent as every other activity.
Seq RandomLog(Rng& rng, size_t min_len, size_t max_len);
/// A graph of `nodes` nodes with `edges` distinct random edges.
seqdl::Graph RandomDigraph(Rng& rng, size_t nodes, size_t edges);

/// "a ++ c ++ g": the path in program and instance syntax.
std::string PathText(const Seq& s);
/// "a·c·g": the path as Instance::ToString renders it.
std::string Rendered(const Seq& s);
std::string NodeName(uint32_t n);

/// Lines `Rel(args).` joined in byte order, as Instance::ToString
/// renders a fact set.
std::string RenderLines(const std::set<std::string>& lines);

// --- References ------------------------------------------------------------

/// Marked occurrences u·<m>·v of motif `m` in `read` (one line per
/// distinct split), rendered under relation `rel` with an optional key
/// argument in front.
void MotifLines(const Seq& read, const Seq& m, const std::string& rel,
                const std::string& key, std::set<std::string>* out);

/// Is every occurrence of `x` in `log` eventually followed by `y`?
/// (x, y) = (co, rp) goes through the library's EveryCoFollowedByRp.
bool Complies(const Seq& log, const std::string& x, const std::string& y);

/// Nodes reachable from `from` by a nonempty path (Reachable per node).
std::vector<uint32_t> ReachableFrom(const seqdl::Graph& g, uint32_t from);

/// Every pair (x, y) with y reachable from x by a nonempty path, by one
/// breadth-first search per node.
std::vector<std::pair<uint32_t, uint32_t>> Closure(const seqdl::Graph& g);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_DATA_H_
