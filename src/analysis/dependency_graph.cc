#include "src/analysis/dependency_graph.h"

#include <functional>

namespace seqdl {

bool DependencyGraph::HasEdge(RelId from, RelId to) const {
  auto it = edges.find(from);
  return it != edges.end() && it->second.count(to) > 0;
}

DependencyGraph BuildDependencyGraph(const Program& p) {
  std::set<RelId> idb = IdbRels(p);
  DependencyGraph g;
  for (RelId r : idb) g.edges[r];  // ensure all IDB nodes exist
  for (const Rule* r : p.AllRules()) {
    for (const Literal& l : r->body) {
      if (!l.is_predicate()) continue;
      if (!idb.count(l.pred.rel)) continue;
      g.edges[r->head.rel].insert(l.pred.rel);
      if (l.negated) g.negative_edges[r->head.rel].insert(l.pred.rel);
    }
  }
  return g;
}

namespace {

// Iterative DFS cycle detection / SCC via Tarjan.
struct Tarjan {
  const DependencyGraph& g;
  std::map<RelId, int> index, low;
  std::map<RelId, bool> on_stack;
  std::vector<RelId> stack;
  int counter = 0;
  std::vector<std::set<RelId>> sccs;

  explicit Tarjan(const DependencyGraph& graph) : g(graph) {}

  void Run() {
    for (const auto& [node, _] : g.edges) {
      if (!index.count(node)) Visit(node);
    }
  }

  void Visit(RelId v) {
    index[v] = low[v] = counter++;
    stack.push_back(v);
    on_stack[v] = true;
    auto it = g.edges.find(v);
    if (it != g.edges.end()) {
      for (RelId w : it->second) {
        if (!index.count(w)) {
          Visit(w);
          low[v] = std::min(low[v], low[w]);
        } else if (on_stack[w]) {
          low[v] = std::min(low[v], index[w]);
        }
      }
    }
    if (low[v] == index[v]) {
      std::set<RelId> scc;
      while (true) {
        RelId w = stack.back();
        stack.pop_back();
        on_stack[w] = false;
        scc.insert(w);
        if (w == v) break;
      }
      sccs.push_back(std::move(scc));
    }
  }
};

}  // namespace

std::vector<std::set<RelId>> StronglyConnectedComponents(
    const DependencyGraph& g) {
  Tarjan t(g);
  t.Run();
  return std::move(t.sccs);
}

std::set<RelId> RecursiveRels(const DependencyGraph& g) {
  Tarjan t(g);
  t.Run();
  std::set<RelId> out;
  for (const std::set<RelId>& scc : t.sccs) {
    if (scc.size() > 1) {
      out.insert(scc.begin(), scc.end());
    } else {
      RelId v = *scc.begin();
      if (g.HasEdge(v, v)) out.insert(v);
    }
  }
  return out;
}

bool HasCycle(const DependencyGraph& g) { return !RecursiveRels(g).empty(); }

}  // namespace seqdl
