// The six language features of the paper (§3) and their detection:
//
//   A  arity        — some predicate of arity > 1
//   E  equations    — some equation in a rule body
//   I  intermediate — at least two different IDB relation names
//   N  negation     — some negated atom
//   P  packing      — some <e> path expression
//   R  recursion    — a cycle in the IDB dependency graph
//
// A set of features is a *fragment*; a program belongs to a fragment iff it
// uses only features from it.
#ifndef SEQDL_ANALYSIS_FEATURES_H_
#define SEQDL_ANALYSIS_FEATURES_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/base/status.h"
#include "src/syntax/ast.h"

namespace seqdl {

enum class Feature : uint8_t {
  kArity = 0,         // A
  kEquations = 1,     // E
  kIntermediate = 2,  // I
  kNegation = 3,      // N
  kPacking = 4,       // P
  kRecursion = 5,     // R
};

inline constexpr int kNumFeatures = 6;

/// Letter of a feature: A, E, I, N, P, R.
char FeatureLetter(Feature f);

/// A fragment: a subset of {A, E, I, N, P, R}, stored as a bitmask.
class FeatureSet {
 public:
  constexpr FeatureSet() : bits_(0) {}
  constexpr explicit FeatureSet(uint8_t bits) : bits_(bits) {}

  static FeatureSet Of(std::initializer_list<Feature> fs) {
    FeatureSet s;
    for (Feature f : fs) s = s.With(f);
    return s;
  }
  /// Parses letters, e.g. "EIN" -> {E, I, N}. Unknown letters are an error.
  static Result<FeatureSet> FromLetters(const std::string& letters);
  static constexpr FeatureSet All() { return FeatureSet(0x3f); }

  bool Contains(Feature f) const {
    return (bits_ & (1u << static_cast<int>(f))) != 0;
  }
  bool SubsetOf(FeatureSet other) const {
    return (bits_ & ~other.bits_) == 0;
  }
  FeatureSet With(Feature f) const {
    return FeatureSet(bits_ | (1u << static_cast<int>(f)));
  }
  FeatureSet Without(Feature f) const {
    return FeatureSet(bits_ & ~(1u << static_cast<int>(f)));
  }
  FeatureSet Union(FeatureSet other) const {
    return FeatureSet(bits_ | other.bits_);
  }
  FeatureSet Intersect(FeatureSet other) const {
    return FeatureSet(bits_ & other.bits_);
  }
  bool DisjointFrom(FeatureSet other) const {
    return (bits_ & other.bits_) == 0;
  }
  bool empty() const { return bits_ == 0; }
  uint8_t bits() const { return bits_; }

  /// "{E,I,N}" (letters in A,E,I,N,P,R order), "{}" for the empty set.
  std::string ToString() const;

  friend bool operator==(FeatureSet a, FeatureSet b) {
    return a.bits_ == b.bits_;
  }
  friend bool operator!=(FeatureSet a, FeatureSet b) { return !(a == b); }
  friend bool operator<(FeatureSet a, FeatureSet b) {
    return a.bits_ < b.bits_;
  }

 private:
  uint8_t bits_;
};

/// Detects exactly which features `p` uses (paper §3).
FeatureSet DetectFeatures(const Program& p);

}  // namespace seqdl

#endif  // SEQDL_ANALYSIS_FEATURES_H_
