// Direct C++ baseline implementations of the paper's example queries, used
// for differential testing of the engine and as the non-Datalog comparison
// point in benchmarks.
#ifndef SEQDL_WORKLOAD_BASELINES_H_
#define SEQDL_WORKLOAD_BASELINES_H_

#include <set>
#include <string>
#include <vector>

#include "src/workload/generators.h"

namespace seqdl {

/// Example 2.2: the number of distinct marked occurrences (u, s, v) with
/// u·s·v in `haystacks` and s in `needles`; the query is true iff >= 3.
size_t CountMarkedOccurrences(const std::set<std::string>& haystacks,
                              const std::set<std::string>& needles);

/// Section 5.1.1: is `to` reachable from `from` (nonempty path)?
bool Reachable(const Graph& g, uint32_t from, uint32_t to);

/// Example 4.6: can s be written as a1..an bn..b1 with ai != bi for all i?
bool IsMarkedPair(const std::string& s);

/// Process mining: is every occurrence of "co" in `events` eventually
/// followed by an "rp"?
bool EveryCoFollowedByRp(const std::vector<std::string>& events);

}  // namespace seqdl

#endif  // SEQDL_WORKLOAD_BASELINES_H_
