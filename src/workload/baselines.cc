#include "src/workload/baselines.h"

#include <deque>
#include <tuple>

namespace seqdl {

size_t CountMarkedOccurrences(const std::set<std::string>& haystacks,
                              const std::set<std::string>& needles) {
  // Count distinct (u, s, v) triples, matching the set semantics of the
  // T relation in Example 2.2.
  std::set<std::tuple<std::string, std::string, std::string>> marked;
  for (const std::string& hay : haystacks) {
    for (const std::string& s : needles) {
      if (s.size() > hay.size()) continue;
      for (size_t i = 0; i + s.size() <= hay.size(); ++i) {
        if (hay.compare(i, s.size(), s) == 0) {
          marked.emplace(hay.substr(0, i), s, hay.substr(i + s.size()));
        }
      }
    }
  }
  return marked.size();
}

bool Reachable(const Graph& g, uint32_t from, uint32_t to) {
  std::vector<std::vector<uint32_t>> adj(g.nodes);
  for (const auto& [a, b] : g.edges) adj[a].push_back(b);
  std::vector<bool> seen(g.nodes, false);
  std::deque<uint32_t> queue;
  // Nonempty-path reachability: start from successors of `from`.
  for (uint32_t n : adj[from]) {
    if (!seen[n]) {
      seen[n] = true;
      queue.push_back(n);
    }
  }
  while (!queue.empty()) {
    uint32_t n = queue.front();
    queue.pop_front();
    if (n == to) return true;
    for (uint32_t m : adj[n]) {
      if (!seen[m]) {
        seen[m] = true;
        queue.push_back(m);
      }
    }
  }
  return false;
}

bool IsMarkedPair(const std::string& s) {
  if (s.size() % 2 != 0) return false;
  size_t n = s.size() / 2;
  for (size_t i = 0; i < n; ++i) {
    if (s[i] == s[s.size() - 1 - i]) return false;
  }
  return true;
}

bool EveryCoFollowedByRp(const std::vector<std::string>& events) {
  for (size_t i = 0; i < events.size(); ++i) {
    if (events[i] != "co") continue;
    bool found = false;
    for (size_t j = i + 1; j < events.size() && !found; ++j) {
      found = events[j] == "rp";
    }
    if (!found) return false;
  }
  return true;
}

}  // namespace seqdl
