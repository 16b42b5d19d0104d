#include "src/analysis/features.h"

#include "src/analysis/dependency_graph.h"

namespace seqdl {

char FeatureLetter(Feature f) {
  switch (f) {
    case Feature::kArity: return 'A';
    case Feature::kEquations: return 'E';
    case Feature::kIntermediate: return 'I';
    case Feature::kNegation: return 'N';
    case Feature::kPacking: return 'P';
    case Feature::kRecursion: return 'R';
  }
  return '?';
}

Result<FeatureSet> FeatureSet::FromLetters(const std::string& letters) {
  FeatureSet s;
  for (char c : letters) {
    switch (c) {
      case 'A': s = s.With(Feature::kArity); break;
      case 'E': s = s.With(Feature::kEquations); break;
      case 'I': s = s.With(Feature::kIntermediate); break;
      case 'N': s = s.With(Feature::kNegation); break;
      case 'P': s = s.With(Feature::kPacking); break;
      case 'R': s = s.With(Feature::kRecursion); break;
      case ' ': case ',': break;
      default:
        return Status::InvalidArgument(std::string("unknown feature letter '") +
                                       c + "'");
    }
  }
  return s;
}

std::string FeatureSet::ToString() const {
  // Present in the paper's order A, E, I, N, P, R.
  static constexpr Feature kOrder[] = {
      Feature::kArity,    Feature::kEquations, Feature::kIntermediate,
      Feature::kNegation, Feature::kPacking,   Feature::kRecursion};
  std::string out = "{";
  bool first = true;
  for (Feature f : kOrder) {
    if (!Contains(f)) continue;
    if (!first) out += ",";
    out += FeatureLetter(f);
    first = false;
  }
  out += "}";
  return out;
}

FeatureSet DetectFeatures(const Program& p) {
  FeatureSet s;
  for (const Rule* r : p.AllRules()) {
    if (r->head.args.size() > 1) s = s.With(Feature::kArity);
    for (const Literal& l : r->body) {
      if (l.is_equation()) {
        s = s.With(Feature::kEquations);
        if (l.negated) s = s.With(Feature::kNegation);
      } else {
        if (l.pred.args.size() > 1) s = s.With(Feature::kArity);
        if (l.negated) s = s.With(Feature::kNegation);
      }
    }
    if (RuleHasPacking(*r)) s = s.With(Feature::kPacking);
  }
  if (IdbRels(p).size() >= 2) s = s.With(Feature::kIntermediate);
  if (HasCycle(BuildDependencyGraph(p))) s = s.With(Feature::kRecursion);
  return s;
}

}  // namespace seqdl
