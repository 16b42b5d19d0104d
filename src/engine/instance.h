// Instances: finite relations over paths (paper §2.1/§2.3). An instance is
// a set of facts R(p1, ..., pn); tuples hold interned PathIds, one flat
// TupleSet (tuple_set.h) per relation.
#ifndef SEQDL_ENGINE_INSTANCE_H_
#define SEQDL_ENGINE_INSTANCE_H_

#include <cstdint>
#include <initializer_list>
#include <map>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/base/status.h"
#include "src/engine/tuple_set.h"
#include "src/term/universe.h"

namespace seqdl {

/// The shared empty tuple set returned for absent relations (never
/// allocated per call; also used by the engine's indexed store).
const TupleSet& EmptyTupleSet();

/// A set of facts over interned relation names.
class Instance {
 public:
  /// Adds a fact; returns true if it was new. The tuple size must equal the
  /// relation's arity (checked by assert).
  bool Add(RelId rel, TupleRef t) { return Insert(rel, t).second; }
  bool Add(RelId rel, std::initializer_list<PathId> t) {
    return Add(rel, TupleRef(t.begin(), t.size()));
  }
  /// Adds a fact; returns its row number in Tuples(rel) and whether it
  /// was new. Row numbers change only when a fact of `rel` is removed.
  std::pair<uint32_t, bool> Insert(RelId rel, TupleRef t);
  /// Bulk counterpart of Add: inserts every tuple of `set` with capacity
  /// reserved up front (one hash per tuple, no per-call map lookup).
  /// Returns the number of new facts.
  size_t AddAll(RelId rel, const TupleSet& set);
  bool Contains(RelId rel, TupleRef t) const;
  bool Contains(RelId rel, std::initializer_list<PathId> t) const {
    return Contains(rel, TupleRef(t.begin(), t.size()));
  }

  /// Removes a fact; returns true if it was present. The relation's last
  /// row takes the removed row's number (TupleSet::Erase). A relation
  /// whose last tuple is removed disappears entirely (so operator== keeps
  /// treating "no tuples" and "no relation" as the same instance).
  bool Remove(RelId rel, TupleRef t);

  /// The tuples of `rel` (the shared EmptyTupleSet() if absent).
  const TupleSet& Tuples(RelId rel) const;
  /// All relations with at least one fact.
  std::vector<RelId> Relations() const;

  size_t NumFacts() const;
  bool Empty() const { return NumFacts() == 0; }

  /// Inserts all facts of `other`; returns number of new facts.
  size_t UnionWith(const Instance& other);
  /// As above, but takes over `other`'s tables where this instance has no
  /// tuples of the relation; `other` is left empty.
  size_t UnionWith(Instance&& other);

  /// Restriction of this instance to the given relations.
  Instance Project(const std::vector<RelId>& rels) const;

  /// True iff every path of every fact is flat (no packed values).
  bool IsFlat(const Universe& u) const;

  /// Deterministic multi-line rendering: one "R(a·b, c)." line per fact
  /// ("R." for arity 0), whole lines sorted as unsigned bytes, each ended
  /// by a newline. Relation names and atoms render as Universe::RelText
  /// and AppendAtom write them, so the text parses back to the facts.
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

/// RenderOutput(u, after, output_rel), computed from `old_text` ==
/// RenderOutput(u, before, output_rel): only the lines of the facts that
/// left or arrived are rendered, then spliced into `old_text` in one
/// merge pass, O(|before| + |after|) tuple probes plus O(|old_text|)
/// bytes. kFailedPrecondition when `old_text` is detectably not that
/// rendering, and when an old line holds a quoted newline (the splice
/// splits lines at newlines); NotFound as RenderOutput.
Result<std::string> PatchOutput(const Universe& u, std::string_view old_text,
                                const Instance& before, const Instance& after,
                                std::string_view output_rel);

/// Parses an instance given as a list of ground facts, e.g.
/// "R(a·b·c). R(eps). S(<a·b>·c)." Non-ground or non-fact input is an error
/// (the first in text order; see ParseFacts in src/syntax/parser.h).
Result<Instance> ParseInstance(Universe& u, std::string_view source);

}  // namespace seqdl

#endif  // SEQDL_ENGINE_INSTANCE_H_
