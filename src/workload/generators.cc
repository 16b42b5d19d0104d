#include "src/workload/generators.h"

namespace seqdl {

std::string LetterName(size_t letter) {
  return std::string(1, static_cast<char>('a' + letter));
}

Result<Instance> RandomStrings(Universe& u, const StringWorkload& w) {
  if (w.alphabet == 0 || w.alphabet > 26) {
    return Status::InvalidArgument("alphabet size must be in [1, 26]");
  }
  std::mt19937_64 rng(w.seed);
  std::uniform_int_distribution<size_t> len_dist(w.min_len, w.max_len);
  std::uniform_int_distribution<size_t> letter_dist(0, w.alphabet - 1);
  SEQDL_ASSIGN_OR_RETURN(RelId rel, u.InternRel(w.rel, 1));
  Instance out;
  for (size_t i = 0; i < w.count; ++i) {
    size_t len = len_dist(rng);
    std::string s;
    for (size_t j = 0; j < len; ++j) {
      s += static_cast<char>('a' + letter_dist(rng));
    }
    out.Add(rel, {u.PathOfChars(s)});
  }
  return out;
}

bool Nfa::Accepts(const std::vector<uint32_t>& word) const {
  std::vector<bool> current = initial;
  for (uint32_t letter : word) {
    if (letter >= alphabet) return false;  // letter outside the alphabet
    std::vector<bool> next(num_states, false);
    for (size_t q = 0; q < num_states; ++q) {
      if (!current[q]) continue;
      for (uint32_t q2 : delta[q][letter]) next[q2] = true;
    }
    current = std::move(next);
  }
  for (size_t q = 0; q < num_states; ++q) {
    if (current[q] && accepting[q]) return true;
  }
  return false;
}

Nfa RandomNfa(const NfaWorkload& w) {
  std::mt19937_64 rng(w.seed);
  std::uniform_real_distribution<double> coin(0.0, 1.0);
  Nfa nfa;
  nfa.num_states = w.num_states;
  nfa.alphabet = w.alphabet;
  nfa.initial.assign(w.num_states, false);
  nfa.accepting.assign(w.num_states, false);
  nfa.delta.assign(w.num_states,
                   std::vector<std::vector<uint32_t>>(w.alphabet));
  nfa.initial[0] = true;
  for (size_t q = 0; q < w.num_states; ++q) {
    if (coin(rng) < 0.4) nfa.accepting[q] = true;
    for (size_t l = 0; l < w.alphabet; ++l) {
      for (size_t q2 = 0; q2 < w.num_states; ++q2) {
        if (coin(rng) < w.density) {
          nfa.delta[q][l].push_back(static_cast<uint32_t>(q2));
        }
      }
    }
  }
  // Guarantee at least one accepting state so the workload is nontrivial.
  if (w.num_states > 0) nfa.accepting[w.num_states - 1] = true;
  return nfa;
}

Result<Instance> NfaToInstance(Universe& u, const Nfa& nfa) {
  SEQDL_ASSIGN_OR_RETURN(RelId n_rel, u.InternRel("N", 1));
  SEQDL_ASSIGN_OR_RETURN(RelId d_rel, u.InternRel("D", 3));
  SEQDL_ASSIGN_OR_RETURN(RelId f_rel, u.InternRel("F", 1));
  Instance out;
  auto state = [&u](size_t q) {
    std::string name = "q";
    name += std::to_string(q);
    return Value::Atom(u.InternAtom(name));
  };
  for (size_t q = 0; q < nfa.num_states; ++q) {
    if (nfa.initial[q]) out.Add(n_rel, {u.SingletonPath(state(q))});
    if (nfa.accepting[q]) out.Add(f_rel, {u.SingletonPath(state(q))});
    for (size_t l = 0; l < nfa.alphabet; ++l) {
      Value letter = Value::Atom(u.InternAtom(LetterName(l)));
      for (uint32_t q2 : nfa.delta[q][l]) {
        out.Add(d_rel, {u.SingletonPath(state(q)), u.SingletonPath(letter),
                        u.SingletonPath(state(q2))});
      }
    }
  }
  return out;
}

Graph RandomGraph(const GraphWorkload& w) {
  std::mt19937_64 rng(w.seed);
  std::uniform_int_distribution<uint32_t> node(
      0, static_cast<uint32_t>(w.nodes - 1));
  Graph g;
  g.nodes = w.nodes;
  for (size_t i = 0; i < w.edges; ++i) {
    g.edges.emplace_back(node(rng), node(rng));
  }
  return g;
}

Result<Instance> GraphToInstance(Universe& u, const Graph& g,
                                 const std::string& rel) {
  SEQDL_ASSIGN_OR_RETURN(RelId r, u.InternRel(rel, 1));
  Instance out;
  auto name = [&u, &g](uint32_t n) {
    // Nodes 0 and 1 are the designated endpoints "a" and "b" used by the
    // reachability query of Section 5.1.1.
    if (n == 0) return Value::Atom(u.InternAtom("a"));
    if (n == 1 && g.nodes > 1) return Value::Atom(u.InternAtom("b"));
    std::string node = "n";
    node += std::to_string(n);
    return Value::Atom(u.InternAtom(node));
  };
  for (const auto& [from, to] : g.edges) {
    Value vs[2] = {name(from), name(to)};
    out.Add(r, {u.InternPath(vs)});
  }
  return out;
}

Result<Instance> RandomEventLogs(Universe& u, const EventLogWorkload& w) {
  std::mt19937_64 rng(w.seed);
  std::uniform_int_distribution<size_t> act(0, w.activities + 1);
  SEQDL_ASSIGN_OR_RETURN(RelId rel, u.InternRel(w.rel, 1));
  Instance out;
  for (size_t i = 0; i < w.count; ++i) {
    std::vector<Value> events;
    for (size_t j = 0; j < w.len; ++j) {
      size_t a = act(rng);
      std::string name;
      if (a == w.activities) {
        name = "co";
      } else if (a == w.activities + 1) {
        name = "rp";
      } else {
        name = "act" + std::to_string(a);
      }
      events.push_back(Value::Atom(u.InternAtom(name)));
    }
    out.Add(rel, {u.InternPath(events)});
  }
  return out;
}

}  // namespace seqdl
