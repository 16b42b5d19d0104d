// The fragment lattice (Sections 3 and 6): Theorem 6.1's decision procedure
// for fragment subsumption, the equivalence classes it induces, and the
// Hasse diagram of Figure 1.
#ifndef SEQDL_FRAGMENTS_FRAGMENTS_H_
#define SEQDL_FRAGMENTS_FRAGMENTS_H_

#include <string>
#include <vector>

#include "src/analysis/features.h"

namespace seqdl {

/// Theorem 6.1: F1 <= F2 (every query computable in F1 is computable in
/// F2) iff the five conditions hold on F̂ = F − {A, P} (arity and packing
/// are fully redundant):
///   1. N ∈ F1 ⇒ N ∈ F2
///   2. R ∈ F1 ⇒ R ∈ F2
///   3. E ∈ F1 ⇒ (E ∈ F2 ∨ I ∈ F2)
///   4. (I ∈ F1 ∧ R ∉ F1 ∧ N ∉ F1) ⇒ (I ∈ F2 ∨ E ∈ F2)
///   5. (I ∈ F1 ∧ (R ∈ F1 ∨ N ∈ F1)) ⇒ I ∈ F2
bool Subsumes(FeatureSet f1, FeatureSet f2);

/// Equivalent in expressive power: F1 <= F2 and F2 <= F1.
bool Equivalent(FeatureSet f1, FeatureSet f2);

/// All 16 fragments over {E, I, N, R}.
std::vector<FeatureSet> AllCoreFragments();

/// All 64 fragments over {A, E, I, N, P, R}.
std::vector<FeatureSet> AllFragments();

/// One equivalence class of fragments under mutual subsumption.
struct FragmentClass {
  std::vector<FeatureSet> members;  // sorted by bits
  /// Canonical display, e.g. "{I,N} = {E,I,N}".
  std::string Label() const;
  /// Representative (first member).
  FeatureSet Rep() const { return members.front(); }
};

/// The equivalence classes of the 16 core fragments (11 classes; Figure 1).
std::vector<FragmentClass> CoreEquivalenceClasses();

/// The Label() of the core class (CoreEquivalenceClasses) holding `f` with
/// A and P projected away (Theorem 6.1: arity and packing are redundant
/// for expressiveness). The classes are computed once, on the first call.
const std::string& CoreClassLabel(FeatureSet f);

/// The Hasse diagram of the equivalence classes: edge (i, j) means class i
/// is *strictly below* class j with nothing in between (transitive
/// reduction of the subsumption order).
struct HasseDiagram {
  std::vector<FragmentClass> classes;
  std::vector<std::pair<size_t, size_t>> edges;  // (lower, upper)
};

HasseDiagram BuildHasseDiagram();

/// Multi-line text rendering of the diagram, ranked by height (Figure 1).
std::string RenderHasse(const HasseDiagram& d);

/// Graphviz dot rendering.
std::string HasseToDot(const HasseDiagram& d);

}  // namespace seqdl

#endif  // SEQDL_FRAGMENTS_FRAGMENTS_H_
