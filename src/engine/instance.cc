#include "src/engine/instance.h"

#include <algorithm>

#include "src/syntax/parser.h"

namespace seqdl {

const TupleSet& EmptyTupleSet() {
  static const TupleSet kEmpty;
  return kEmpty;
}

bool Instance::Add(RelId rel, Tuple t) {
  return relations_[rel].insert(std::move(t)).second;
}

std::pair<const Tuple*, bool> Instance::Insert(RelId rel, Tuple t) {
  auto [it, is_new] = relations_[rel].insert(std::move(t));
  return {&*it, is_new};
}

size_t Instance::AddAll(RelId rel, const TupleSet& set) {
  if (set.empty()) return 0;
  TupleSet& dst = relations_[rel];
  if (dst.empty()) {
    // Bulk-install into an empty relation: copy the whole set (bucket
    // structure and cached hashes included) instead of rehashing and
    // re-probing tuple by tuple — the adopt path of delta refreshes
    // installs entire stored views this way.
    dst = set;
    return set.size();
  }
  dst.reserve(dst.size() + set.size());
  size_t added = 0;
  for (const Tuple& t : set) {
    if (dst.insert(t).second) ++added;
  }
  return added;
}

bool Instance::Contains(RelId rel, const Tuple& t) const {
  auto it = relations_.find(rel);
  return it != relations_.end() && it->second.count(t) > 0;
}

bool Instance::Remove(RelId rel, const Tuple& t) {
  auto it = relations_.find(rel);
  if (it == relations_.end()) return false;
  if (it->second.erase(t) == 0) return false;
  if (it->second.empty()) relations_.erase(it);
  return true;
}

const TupleSet& Instance::Tuples(RelId rel) const {
  auto it = relations_.find(rel);
  return it != relations_.end() ? it->second : EmptyTupleSet();
}

std::vector<RelId> Instance::Relations() const {
  std::vector<RelId> out;
  for (const auto& [rel, tuples] : relations_) {
    if (!tuples.empty()) out.push_back(rel);
  }
  return out;
}

size_t Instance::NumFacts() const {
  size_t n = 0;
  for (const auto& [_, tuples] : relations_) n += tuples.size();
  return n;
}

size_t Instance::UnionWith(const Instance& other) {
  size_t added = 0;
  for (const auto& [rel, tuples] : other.relations_) {
    for (const Tuple& t : tuples) {
      if (relations_[rel].insert(t).second) ++added;
    }
  }
  return added;
}

size_t Instance::UnionWith(Instance&& other) {
  size_t added = 0;
  for (auto& [rel, tuples] : other.relations_) {
    TupleSet& dst = relations_[rel];
    if (dst.empty()) {
      added += tuples.size();
      dst = std::move(tuples);
    } else {
      size_t before = dst.size();
      dst.merge(tuples);  // splices nodes; duplicates stay behind
      added += dst.size() - before;
    }
  }
  other.relations_.clear();
  return added;
}

Instance Instance::Project(const std::vector<RelId>& rels) const {
  Instance out;
  for (RelId rel : rels) {
    auto it = relations_.find(rel);
    if (it != relations_.end()) out.relations_[rel] = it->second;
  }
  return out;
}

bool Instance::IsFlat(const Universe& u) const {
  for (const auto& [_, tuples] : relations_) {
    for (const Tuple& t : tuples) {
      for (PathId p : t) {
        if (!u.IsFlatPath(p)) return false;
      }
    }
  }
  return true;
}

std::string Instance::ToString(const Universe& u) const {
  return ToString(u, Relations());
}

std::string Instance::ToString(const Universe& u,
                               std::span<const RelId> rels) const {
  // Names are looked up before rendering: AppendPaths holds the atom
  // table's lock across a fact, and RelName takes another lock.
  std::vector<std::pair<std::string_view, const TupleSet*>> picked;
  size_t facts = 0;
  for (const auto& [rel, tuples] : relations_) {
    if (std::find(rels.begin(), rels.end(), rel) == rels.end()) continue;
    picked.emplace_back(u.RelName(rel), &tuples);
    facts += tuples.size();
  }
  // Every fact goes straight into one buffer; the lines are sorted as
  // (offset, length) views of it and joined once.
  using Line = std::pair<size_t, size_t>;  // (offset, length) in buf
  std::string buf;
  std::vector<Line> lines;
  lines.reserve(facts);
  for (const auto& [name, tuples] : picked) {
    for (const Tuple& t : *tuples) {
      size_t start = buf.size();
      buf.append(name);
      if (!t.empty()) {
        buf.push_back('(');
        u.AppendPaths(t, ", ", &buf);
        buf.push_back(')');
      }
      buf.push_back('.');
      lines.emplace_back(start, buf.size() - start);
    }
  }
  const char* text = buf.data();
  auto view = [text](Line l) {
    return std::string_view(text + l.first, l.second);
  };
  // string_view compares through char_traits<char>, i.e. as unsigned
  // bytes, exactly as the std::string comparison of whole lines does.
  std::sort(lines.begin(), lines.end(),
            [&view](Line a, Line b) { return view(a) < view(b); });
  std::string out;
  out.reserve(buf.size() + lines.size());
  for (Line l : lines) {
    out.append(view(l));
    out.push_back('\n');
  }
  return out;
}

Result<std::string> RenderOutput(const Universe& u, const Instance& inst,
                                 std::string_view output_rel) {
  if (output_rel.empty()) return inst.ToString(u);
  SEQDL_ASSIGN_OR_RETURN(RelId rel, u.FindRel(output_rel));
  return inst.ToString(u, {&rel, 1});
}

Result<Instance> ParseInstance(Universe& u, std::string_view source) {
  Instance inst;
  SEQDL_RETURN_IF_ERROR(
      ParseFacts(u, source, [&inst](RelId rel, std::span<const PathId> t) {
        inst.Add(rel, Tuple(t.begin(), t.end()));
      }));
  return inst;
}

}  // namespace seqdl
