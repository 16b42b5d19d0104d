#include "src/engine/stats.h"

#include <algorithm>
#include <cstdio>
#include <optional>
#include <unordered_map>

namespace seqdl {

namespace {

/// Finalizes one family from a key -> bucket-size count map.
FamilyStats Finalize(const std::unordered_map<uint32_t, size_t>& counts) {
  FamilyStats f;
  f.buckets = counts.size();
  for (const auto& [key, n] : counts) {
    f.entries += n;
    if (n > f.max_bucket) f.max_bucket = n;
  }
  return f;
}

/// Each family's name in ToString rows.
constexpr FamilyArray<const char*> kFamilyNames{{"whole", "first", "last"}};

std::string FormatFamily(const char* name, const FamilyStats& f) {
  char buf[128];
  std::snprintf(buf, sizeof(buf),
                "%-5s buckets=%zu entries=%zu mean=%.2f max=%zu", name,
                f.buckets, f.entries, f.MeanBucket(), f.max_bucket);
  return buf;
}

}  // namespace

const ColumnStats* StoreStats::Find(RelId rel, uint32_t col) const {
  auto it = relations.find(rel);
  if (it == relations.end() || col >= it->second.columns.size()) {
    return nullptr;
  }
  return &it->second.columns[col];
}

double StoreStats::Estimate(RelId rel, uint32_t col,
                            IndexFamily family) const {
  const ColumnStats* c = Find(rel, col);
  if (c != nullptr) return (*c)[family].MeanBucket();
  return family == IndexFamily::kWhole ? kUnknownWhole : kUnknownFirstLast;
}

double StoreStats::EstimateScan(RelId rel) const {
  auto it = relations.find(rel);
  return it == relations.end() ? kUnknownScan
                               : static_cast<double>(it->second.tuples);
}

void StoreStats::MergeFrom(const StoreStats& other) {
  for (const auto& [rel, theirs] : other.relations) {
    RelationStats& mine = relations[rel];
    mine.tuples += theirs.tuples;
    if (mine.columns.size() < theirs.columns.size()) {
      mine.columns.resize(theirs.columns.size());
    }
    for (size_t col = 0; col < theirs.columns.size(); ++col) {
      for (IndexFamily f : kIndexFamilies) {
        mine.columns[col][f].MergeFrom(theirs.columns[col][f]);
      }
    }
  }
}

void StoreStats::DiscountFrom(const StoreStats& other) {
  auto floor_sub = [](size_t a, size_t b) { return a > b ? a - b : 0; };
  for (const auto& [rel, theirs] : other.relations) {
    auto it = relations.find(rel);
    if (it == relations.end()) continue;
    RelationStats& mine = it->second;
    mine.tuples = floor_sub(mine.tuples, theirs.tuples);
    if (mine.tuples == 0) {
      relations.erase(it);
      continue;
    }
    size_t cols = std::min(mine.columns.size(), theirs.columns.size());
    for (size_t col = 0; col < cols; ++col) {
      const ColumnStats& t = theirs.columns[col];
      ColumnStats& m = mine.columns[col];
      // Entries subtract exactly (each tombstoned fact was indexed once);
      // bucket counts only shrink when a whole key disappears, which we
      // cannot see from the aggregate — keeping them is the conservative
      // estimate (mean bucket sizes shrink, never inflate).
      for (IndexFamily f : kIndexFamilies) {
        m[f].entries = floor_sub(m[f].entries, t[f].entries);
      }
    }
  }
}

std::string StoreStats::ToString(const Universe& u) const {
  std::string out;
  for (const auto& [rel, rs] : relations) {
    out += u.RelName(rel) + "  tuples=" + std::to_string(rs.tuples) + "\n";
    for (size_t col = 0; col < rs.columns.size(); ++col) {
      const ColumnStats& c = rs.columns[col];
      std::string prefix = "  col " + std::to_string(col) + "  ";
      for (IndexFamily f : kIndexFamilies) {
        out += prefix + FormatFamily(kFamilyNames[f], c[f]) + "\n";
      }
    }
  }
  return out;
}

StoreStats ComputeInstanceStats(const Universe& u, const Instance& inst) {
  StoreStats stats;
  for (RelId rel : inst.Relations()) {
    const TupleSet& tuples = inst.Tuples(rel);
    RelationStats rs;
    rs.tuples = tuples.size();
    uint32_t arity = u.RelArity(rel);
    rs.columns.resize(arity);
    for (uint32_t col = 0; col < arity; ++col) {
      FamilyArray<std::unordered_map<uint32_t, size_t>> counts;
      for (TupleRef t : tuples) {
        if (col >= t.size()) continue;
        for (IndexFamily f : kIndexFamilies) {
          if (std::optional<uint32_t> key = FamilyKey(u, f, t[col])) {
            ++counts[f][*key];
          }
        }
      }
      for (IndexFamily f : kIndexFamilies) {
        rs.columns[col][f] = Finalize(counts[f]);
      }
    }
    stats.relations.emplace(rel, std::move(rs));
  }
  return stats;
}

double StatsDrift(const StoreStats& before, const StoreStats& after) {
  double drift = 0.0;
  auto relative = [](size_t a, size_t b) {
    size_t hi = std::max(a, b);
    if (hi == 0) return 0.0;
    size_t lo = std::min(a, b);
    return static_cast<double>(hi - lo) / static_cast<double>(hi);
  };
  for (const auto& [rel, rs] : before.relations) {
    auto it = after.relations.find(rel);
    size_t theirs = it == after.relations.end() ? 0 : it->second.tuples;
    drift = std::max(drift, relative(rs.tuples, theirs));
  }
  for (const auto& [rel, rs] : after.relations) {
    if (before.relations.count(rel) == 0) {
      drift = std::max(drift, relative(0, rs.tuples));
    }
  }
  return drift;
}

}  // namespace seqdl
