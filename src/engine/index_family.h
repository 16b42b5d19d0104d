// The index families a scan can key on, named once for the stores
// (index.h), their statistics (stats.h) and the planner (plan.h).
//
// Sequence Datalog joins live inside paths (`T(@x ++ @y), R(@y ++ @z)`),
// so a scan step can often bind only part of an argument before it runs.
// Each (relation, column) pair therefore has three hash indexes, one per
// family, and a step probes the one its ground part determines:
//
//   * kWhole — the argument is fully ground; the key is the column's
//     PathId;
//   * kFirst — a leading run of the argument is ground; the key is the
//     first value of the column's path (a matching tuple must start with
//     the run's first value);
//   * kLast  — a trailing run is ground (`$x ++ a`); the key is the last
//     value of the column's path.
//
// kFirst and kLast buckets overapproximate the tuples that match; the
// executor's MatchArgs filters them exactly. kNone is a full relation
// scan. It comes last so that comparing families orders them from the
// exactest access path to the full scan, the planner's tie-break.
#ifndef SEQDL_ENGINE_INDEX_FAMILY_H_
#define SEQDL_ENGINE_INDEX_FAMILY_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>

#include "src/term/universe.h"
#include "src/term/value.h"

namespace seqdl {

enum class IndexFamily : uint8_t { kWhole, kFirst, kLast, kNone };

/// The families that have an index, in enum order.
inline constexpr IndexFamily kIndexFamilies[] = {
    IndexFamily::kWhole, IndexFamily::kFirst, IndexFamily::kLast};

/// One T per indexed family, indexed by the family.
template <typename T>
struct FamilyArray {
  std::array<T, std::size(kIndexFamilies)> of{};

  T& operator[](IndexFamily f) { return of[static_cast<size_t>(f)]; }
  const T& operator[](IndexFamily f) const {
    return of[static_cast<size_t>(f)];
  }
};

/// The key path `p` files under in `family`'s index: the PathId for
/// kWhole, the bits() of its first or last value for kFirst and kLast.
/// An empty path has no first or last key, and kNone has no index.
inline std::optional<uint32_t> FamilyKey(const Universe& u,
                                         IndexFamily family, PathId p) {
  if (family == IndexFamily::kWhole) return p;
  if (family == IndexFamily::kNone) return std::nullopt;
  std::span<const Value> path = u.GetPath(p);
  if (path.empty()) return std::nullopt;
  return (family == IndexFamily::kFirst ? path.front() : path.back()).bits();
}

}  // namespace seqdl

#endif  // SEQDL_ENGINE_INDEX_FAMILY_H_
