// The IDB dependency graph of a program (paper §3, footnote 2): nodes are
// IDB relation names; there is an edge from R1 to R2 if R2 occurs in the
// body of a rule with R1 in its head. A program uses recursion iff this
// graph has a cycle.
#ifndef SEQDL_ANALYSIS_DEPENDENCY_GRAPH_H_
#define SEQDL_ANALYSIS_DEPENDENCY_GRAPH_H_

#include <map>
#include <set>
#include <vector>

#include "src/syntax/ast.h"

namespace seqdl {

struct DependencyGraph {
  /// head relation -> relations occurring in bodies of its rules (IDB only).
  std::map<RelId, std::set<RelId>> edges;
  /// Subset of edges arising from negated body predicates (body rel ids).
  std::map<RelId, std::set<RelId>> negative_edges;

  bool HasEdge(RelId from, RelId to) const;
};

DependencyGraph BuildDependencyGraph(const Program& p);

/// True iff the graph has a directed cycle (this is the R feature).
bool HasCycle(const DependencyGraph& g);

/// Relations on some directed cycle (i.e. belonging to a nontrivial SCC or
/// having a self-loop).
std::set<RelId> RecursiveRels(const DependencyGraph& g);

/// The strongly connected components of the graph (Tarjan; reverse
/// topological order). Singleton components without a self-loop are
/// included — callers that care about recursion should check size > 1 or
/// HasEdge(v, v).
std::vector<std::set<RelId>> StronglyConnectedComponents(
    const DependencyGraph& g);

}  // namespace seqdl

#endif  // SEQDL_ANALYSIS_DEPENDENCY_GRAPH_H_
