#include "perfbench/src/data.h"

#include <algorithm>

#include "src/workload/baselines.h"

namespace perfbench {

const std::vector<std::string> kActivities = {"co", "rp", "pk", "sh",
                                              "iv", "ap", "rt", "cn"};

namespace {
const char* const kBases[] = {"a", "c", "g", "t"};
}  // namespace

Seq RandomDna(Rng& rng, size_t min_len, size_t max_len) {
  size_t len = std::uniform_int_distribution<size_t>(min_len, max_len)(rng);
  Seq s(len);
  for (std::string& b : s) b = kBases[rng() % 4];
  return s;
}

Seq RandomLog(Rng& rng, size_t min_len, size_t max_len) {
  size_t len = std::uniform_int_distribution<size_t>(min_len, max_len)(rng);
  Seq s(len);
  for (std::string& a : s) a = kActivities[rng() % kActivities.size()];
  return s;
}

seqdl::Graph RandomDigraph(Rng& rng, size_t nodes, size_t edges) {
  seqdl::Graph g;
  g.nodes = nodes;
  std::set<std::pair<uint32_t, uint32_t>> seen;
  while (seen.size() < edges) {
    uint32_t a = static_cast<uint32_t>(rng() % nodes);
    uint32_t b = static_cast<uint32_t>(rng() % nodes);
    if (seen.insert({a, b}).second) g.edges.emplace_back(a, b);
  }
  return g;
}

std::string PathText(const Seq& s) {
  std::string out;
  for (size_t i = 0; i < s.size(); ++i) {
    if (i > 0) out += " ++ ";
    out += s[i];
  }
  return out;
}

std::string Rendered(const Seq& s) {
  std::string out;
  for (size_t i = 0; i < s.size(); ++i) {
    if (i > 0) out += "\xC2\xB7";  // the interpunct Universe::FormatPath uses
    out += s[i];
  }
  return out;
}

std::string NodeName(uint32_t n) {
  std::string name = "n";
  name += std::to_string(n);
  return name;
}

std::string RenderLines(const std::set<std::string>& lines) {
  std::string out;
  for (const std::string& l : lines) {
    out += l;
    out += '\n';
  }
  return out;
}

void MotifLines(const Seq& read, const Seq& m, const std::string& rel,
                const std::string& key, std::set<std::string>* out) {
  if (m.size() > read.size()) return;
  for (size_t i = 0; i + m.size() <= read.size(); ++i) {
    if (!std::equal(m.begin(), m.end(), read.begin() + static_cast<long>(i))) continue;
    Seq u(read.begin(), read.begin() + static_cast<long>(i));
    Seq v(read.begin() + static_cast<long>(i + m.size()), read.end());
    std::string path = Rendered(u);
    if (!u.empty()) path += "\xC2\xB7";
    path += '<';
    path += Rendered(m);
    path += '>';
    if (!v.empty()) {
      path += "\xC2\xB7";
      path += Rendered(v);
    }
    out->insert(rel + "(" + (key.empty() ? "" : key + ", ") + path + ").");
  }
}

bool Complies(const Seq& log, const std::string& x, const std::string& y) {
  if (x == "co" && y == "rp") return seqdl::EveryCoFollowedByRp(log);
  bool pending = false;
  for (const std::string& a : log) {
    if (a == x) pending = true;
    else if (a == y) pending = false;
  }
  // An x after the last y is never followed by one; x == y cannot occur.
  return !pending;
}

std::vector<uint32_t> ReachableFrom(const seqdl::Graph& g, uint32_t from) {
  std::vector<uint32_t> out;
  for (uint32_t n = 0; n < g.nodes; ++n) {
    if (seqdl::Reachable(g, from, n)) out.push_back(n);
  }
  return out;
}

std::vector<std::pair<uint32_t, uint32_t>> Closure(const seqdl::Graph& g) {
  std::vector<std::vector<uint32_t>> adj(g.nodes);
  for (const auto& [a, b] : g.edges) adj[a].push_back(b);
  std::vector<std::pair<uint32_t, uint32_t>> out;
  std::vector<uint32_t> stack;
  for (uint32_t x = 0; x < g.nodes; ++x) {
    std::vector<bool> seen(g.nodes, false);
    stack.assign(adj[x].begin(), adj[x].end());
    while (!stack.empty()) {
      uint32_t y = stack.back();
      stack.pop_back();
      if (seen[y]) continue;
      seen[y] = true;
      out.emplace_back(x, y);
      stack.insert(stack.end(), adj[y].begin(), adj[y].end());
    }
  }
  return out;
}

}  // namespace perfbench
