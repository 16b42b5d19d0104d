#include "src/fragments/fragments.h"

#include <algorithm>
#include <array>
#include <functional>
#include <map>

namespace seqdl {

bool Subsumes(FeatureSet f1, FeatureSet f2) {
  // Strip the redundant features A and P.
  f1 = f1.Without(Feature::kArity).Without(Feature::kPacking);
  f2 = f2.Without(Feature::kArity).Without(Feature::kPacking);

  bool n1 = f1.Contains(Feature::kNegation);
  bool r1 = f1.Contains(Feature::kRecursion);
  bool e1 = f1.Contains(Feature::kEquations);
  bool i1 = f1.Contains(Feature::kIntermediate);
  bool n2 = f2.Contains(Feature::kNegation);
  bool r2 = f2.Contains(Feature::kRecursion);
  bool e2 = f2.Contains(Feature::kEquations);
  bool i2 = f2.Contains(Feature::kIntermediate);

  if (n1 && !n2) return false;                       // condition 1
  if (r1 && !r2) return false;                       // condition 2
  if (e1 && !(e2 || i2)) return false;               // condition 3
  if (i1 && !r1 && !n1 && !(i2 || e2)) return false; // condition 4
  if (i1 && (r1 || n1) && !i2) return false;         // condition 5
  return true;
}

bool Equivalent(FeatureSet f1, FeatureSet f2) {
  return Subsumes(f1, f2) && Subsumes(f2, f1);
}

std::vector<FeatureSet> AllCoreFragments() {
  static constexpr Feature kCore[] = {Feature::kEquations,
                                      Feature::kIntermediate,
                                      Feature::kNegation, Feature::kRecursion};
  std::vector<FeatureSet> out;
  for (int mask = 0; mask < 16; ++mask) {
    FeatureSet f;
    for (int b = 0; b < 4; ++b) {
      if (mask & (1 << b)) f = f.With(kCore[b]);
    }
    out.push_back(f);
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<FeatureSet> AllFragments() {
  std::vector<FeatureSet> out;
  for (int mask = 0; mask < 64; ++mask) {
    out.push_back(FeatureSet(static_cast<uint8_t>(mask)));
  }
  return out;
}

std::string FragmentClass::Label() const {
  std::string out;
  for (size_t i = 0; i < members.size(); ++i) {
    if (i > 0) out += " = ";
    out += members[i].ToString();
  }
  return out;
}

std::vector<FragmentClass> CoreEquivalenceClasses() {
  std::vector<FeatureSet> fragments = AllCoreFragments();
  std::vector<FragmentClass> classes;
  std::vector<bool> assigned(fragments.size(), false);
  for (size_t i = 0; i < fragments.size(); ++i) {
    if (assigned[i]) continue;
    FragmentClass cls;
    for (size_t j = i; j < fragments.size(); ++j) {
      if (!assigned[j] && Equivalent(fragments[i], fragments[j])) {
        cls.members.push_back(fragments[j]);
        assigned[j] = true;
      }
    }
    std::sort(cls.members.begin(), cls.members.end());
    classes.push_back(std::move(cls));
  }
  return classes;
}

const std::string& CoreClassLabel(FeatureSet f) {
  // Indexed by feature bits; only the 16 core sets get a label.
  using Labels = std::array<std::string, 1u << kNumFeatures>;
  static const Labels kLabels = [] {
    Labels labels;
    for (const FragmentClass& c : CoreEquivalenceClasses()) {
      for (FeatureSet m : c.members) labels[m.bits()] = c.Label();
    }
    return labels;
  }();
  return kLabels[f.Without(Feature::kArity).Without(Feature::kPacking).bits()];
}

HasseDiagram BuildHasseDiagram() {
  HasseDiagram d;
  d.classes = CoreEquivalenceClasses();
  size_t n = d.classes.size();
  // Strict order on classes.
  std::vector<std::vector<bool>> lt(n, std::vector<bool>(n, false));
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < n; ++j) {
      if (i == j) continue;
      lt[i][j] = Subsumes(d.classes[i].Rep(), d.classes[j].Rep()) &&
                 !Subsumes(d.classes[j].Rep(), d.classes[i].Rep());
    }
  }
  // Transitive reduction: keep i < j with no k strictly between.
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < n; ++j) {
      if (!lt[i][j]) continue;
      bool covered = false;
      for (size_t k = 0; k < n && !covered; ++k) {
        covered = lt[i][k] && lt[k][j];
      }
      if (!covered) d.edges.emplace_back(i, j);
    }
  }
  return d;
}

std::string RenderHasse(const HasseDiagram& d) {
  // Rank = length of the longest chain below the class.
  size_t n = d.classes.size();
  std::vector<std::vector<size_t>> below(n);
  for (const auto& [lo, hi] : d.edges) below[hi].push_back(lo);
  std::vector<int> rank(n, -1);
  std::function<int(size_t)> height = [&](size_t i) -> int {
    if (rank[i] >= 0) return rank[i];
    int h = 0;
    for (size_t b : below[i]) h = std::max(h, height(b) + 1);
    rank[i] = h;
    return h;
  };
  int max_rank = 0;
  for (size_t i = 0; i < n; ++i) max_rank = std::max(max_rank, height(i));

  std::string out;
  for (int r = max_rank; r >= 0; --r) {
    out += "rank " + std::to_string(r) + ":  ";
    bool first = true;
    for (size_t i = 0; i < n; ++i) {
      if (rank[i] != r) continue;
      if (!first) out += "    ";
      out += d.classes[i].Label();
      first = false;
    }
    out += "\n";
  }
  out += "edges (lower < upper):\n";
  for (const auto& [lo, hi] : d.edges) {
    out += "  " + d.classes[lo].Label() + "  <  " + d.classes[hi].Label() +
           "\n";
  }
  return out;
}

std::string HasseToDot(const HasseDiagram& d) {
  std::string out = "digraph hasse {\n  rankdir=BT;\n";
  for (size_t i = 0; i < d.classes.size(); ++i) {
    out += "  n" + std::to_string(i) + " [label=\"" + d.classes[i].Label() +
           "\"];\n";
  }
  for (const auto& [lo, hi] : d.edges) {
    out += "  n" + std::to_string(lo) + " -> n" + std::to_string(hi) + ";\n";
  }
  out += "}\n";
  return out;
}

}  // namespace seqdl
