// Instances: finite relations over paths (paper §2.1/§2.3). An instance is
// a set of facts R(p1, ..., pn); tuples hold interned PathIds.
#ifndef SEQDL_ENGINE_INSTANCE_H_
#define SEQDL_ENGINE_INSTANCE_H_

#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <string_view>
#include <unordered_set>
#include <utility>
#include <vector>

#include "src/base/status.h"
#include "src/term/universe.h"

namespace seqdl {

/// A tuple of interned paths. Arity-0 relations hold the empty tuple.
using Tuple = std::vector<PathId>;

struct TupleHash {
  size_t operator()(const Tuple& t) const {
    size_t h = 0x51ed270b;
    for (PathId p : t) {
      h ^= p + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
    }
    return h;
  }
};

using TupleSet = std::unordered_set<Tuple, TupleHash>;

/// The shared empty tuple set returned for absent relations (never
/// allocated per call; also used by the engine's indexed store).
const TupleSet& EmptyTupleSet();

/// A set of facts over interned relation names.
class Instance {
 public:
  /// Adds a fact; returns true if it was new. The tuple size must equal the
  /// relation's arity (checked by assert).
  bool Add(RelId rel, Tuple t);
  /// Adds a fact; returns the stored tuple (stable address — TupleSet
  /// never invalidates references on insert) and whether it was new.
  std::pair<const Tuple*, bool> Insert(RelId rel, Tuple t);
  /// Bulk counterpart of Add: inserts every tuple of `set` with capacity
  /// reserved up front (one hash per tuple, no per-call map lookup).
  /// Returns the number of new facts.
  size_t AddAll(RelId rel, const TupleSet& set);
  bool Contains(RelId rel, const Tuple& t) const;

  /// Removes a fact; returns true if it was present. A relation whose
  /// last tuple is removed disappears entirely (so operator== keeps
  /// treating "no tuples" and "no relation" as the same instance).
  bool Remove(RelId rel, const Tuple& t);

  /// The tuples of `rel` (the shared EmptyTupleSet() if absent).
  const TupleSet& Tuples(RelId rel) const;
  /// All relations with at least one fact.
  std::vector<RelId> Relations() const;

  size_t NumFacts() const;
  bool Empty() const { return NumFacts() == 0; }

  /// Inserts all facts of `other`; returns number of new facts.
  size_t UnionWith(const Instance& other);
  /// As above, but moves tuples out of `other` (node splicing, no tuple
  /// copies); `other` is left empty.
  size_t UnionWith(Instance&& other);

  /// Restriction of this instance to the given relations.
  Instance Project(const std::vector<RelId>& rels) const;

  /// True iff every path of every fact is flat (no packed values).
  bool IsFlat(const Universe& u) const;

  /// Deterministic multi-line rendering: one "R(a·b, c)." line per fact
  /// ("R." for arity 0), whole lines sorted as unsigned bytes, each ended
  /// by a newline.
  std::string ToString(const Universe& u) const;
  /// The rendering of Project(rels), made in place without copying a
  /// tuple.
  std::string ToString(const Universe& u, std::span<const RelId> rels) const;

  friend bool operator==(const Instance& a, const Instance& b) {
    return a.relations_ == b.relations_;
  }
  friend bool operator!=(const Instance& a, const Instance& b) {
    return !(a == b);
  }

 private:
  std::map<RelId, TupleSet> relations_;
};

/// The rendering a query answer carries: `inst` restricted to the relation
/// named `output_rel`, or all of it when `output_rel` is empty. NotFound
/// for a relation name the Universe does not know.
Result<std::string> RenderOutput(const Universe& u, const Instance& inst,
                                 std::string_view output_rel);

/// Parses an instance given as a list of ground facts, e.g.
/// "R(a·b·c). R(eps). S(<a·b>·c)." Non-ground or non-fact input is an error
/// (the first in text order; see ParseFacts in src/syntax/parser.h).
Result<Instance> ParseInstance(Universe& u, std::string_view source);

}  // namespace seqdl

#endif  // SEQDL_ENGINE_INSTANCE_H_
