#include "src/engine/instance.h"

#include <algorithm>
#include <iterator>

#include "src/syntax/parser.h"

namespace seqdl {

namespace {

// Writes one fact's line, without its newline: "R(p1, p2)." ("R." for
// arity 0). `rel_text` is the relation's Universe::RelText, looked up
// before: AppendPaths holds the atom table's lock across a fact, and
// RelText takes another lock. The one line writer of every rendering.
void AppendFactLine(const Universe& u, std::string_view rel_text,
                    TupleRef t, std::string* out) {
  out->append(rel_text);
  if (!t.empty()) {
    out->push_back('(');
    u.AppendPaths(t, ", ", out);
    out->push_back(')');
  }
  out->push_back('.');
}

// Fact lines written straight into one buffer and sorted as (offset,
// length) views of it. string_view compares through char_traits<char>,
// i.e. as unsigned bytes, exactly as the std::string comparison of whole
// lines does.
class SortedLines {
 public:
  explicit SortedLines(size_t facts = 0) { lines_.reserve(facts); }

  void Add(const Universe& u, std::string_view rel_text, TupleRef t) {
    size_t start = buf_.size();
    AppendFactLine(u, rel_text, t, &buf_);
    lines_.emplace_back(start, buf_.size() - start);
  }

  void Sort() {
    std::sort(lines_.begin(), lines_.end(),
              [this](Line a, Line b) { return View(a) < View(b); });
  }

  size_t size() const { return lines_.size(); }
  std::string_view operator[](size_t i) const { return View(lines_[i]); }
  /// Bytes of the lines joined, each ended by a newline.
  size_t joined_bytes() const { return buf_.size() + lines_.size(); }

 private:
  using Line = std::pair<size_t, size_t>;  // (offset, length) in buf_
  std::string_view View(Line l) const {
    return std::string_view(buf_.data() + l.first, l.second);
  }

  std::string buf_;
  std::vector<Line> lines_;
};

void AppendLine(std::string_view line, std::string* out) {
  out->append(line);
  out->push_back('\n');
}

}  // namespace

const TupleSet& EmptyTupleSet() {
  static const TupleSet kEmpty;
  return kEmpty;
}

std::pair<uint32_t, bool> Instance::Insert(RelId rel, TupleRef t) {
  return relations_[rel].Insert(t);
}

size_t Instance::AddAll(RelId rel, const TupleSet& set) {
  if (set.empty()) return 0;
  TupleSet& dst = relations_[rel];
  if (dst.empty()) {
    // Bulk-install into an empty relation: copy the whole table (rows and
    // slots) instead of rehashing and re-probing tuple by tuple — the
    // adopt path of delta refreshes installs entire stored views this way.
    dst = set;
    return set.size();
  }
  dst.Reserve(dst.size() + set.size());
  size_t added = 0;
  for (TupleRef t : set) {
    if (dst.Insert(t).second) ++added;
  }
  return added;
}

bool Instance::Contains(RelId rel, TupleRef t) const {
  auto it = relations_.find(rel);
  return it != relations_.end() && it->second.Contains(t);
}

bool Instance::Remove(RelId rel, TupleRef t) {
  auto it = relations_.find(rel);
  if (it == relations_.end()) return false;
  if (it->second.Erase(t) == TupleSet::kNoRow) return false;
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
    added += AddAll(rel, tuples);
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
      added += AddAll(rel, tuples);
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
    for (TupleRef t : tuples) {
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
  std::vector<std::pair<std::string_view, const TupleSet*>> picked;
  size_t facts = 0;
  for (const auto& [rel, tuples] : relations_) {
    if (std::find(rels.begin(), rels.end(), rel) == rels.end()) continue;
    picked.emplace_back(u.RelText(rel), &tuples);
    facts += tuples.size();
  }
  SortedLines lines(facts);
  for (const auto& [text, tuples] : picked) {
    for (TupleRef t : *tuples) lines.Add(u, text, t);
  }
  lines.Sort();
  std::string out;
  out.reserve(lines.joined_bytes());
  for (size_t i = 0; i < lines.size(); ++i) AppendLine(lines[i], &out);
  return out;
}

Result<std::string> RenderOutput(const Universe& u, const Instance& inst,
                                 std::string_view output_rel) {
  if (output_rel.empty()) return inst.ToString(u);
  SEQDL_ASSIGN_OR_RETURN(RelId rel, u.FindRel(output_rel));
  return inst.ToString(u, {&rel, 1});
}

Result<std::string> PatchOutput(const Universe& u, std::string_view old_text,
                                const Instance& before, const Instance& after,
                                std::string_view output_rel) {
  std::vector<RelId> rels;
  if (output_rel.empty()) {
    std::vector<RelId> was = before.Relations(), is = after.Relations();
    std::set_union(was.begin(), was.end(), is.begin(), is.end(),
                   std::back_inserter(rels));
  } else {
    SEQDL_ASSIGN_OR_RETURN(RelId rel, u.FindRel(output_rel));
    rels.push_back(rel);
  }
  // The lines of the facts that left and of those that arrived. The
  // larger side is scanned for the facts only it holds, counting the
  // common ones; the smaller side holds others only if not all of it is
  // common, so a write that only appends or only retracts scans once.
  SortedLines gone, added;
  size_t old_facts = 0;
  for (RelId rel : rels) {
    const TupleSet& was = before.Tuples(rel);
    const TupleSet& is = after.Tuples(rel);
    std::string_view text = u.RelText(rel);
    old_facts += was.size();
    bool grew = is.size() >= was.size();
    const TupleSet& large = grew ? is : was;
    const TupleSet& small = grew ? was : is;
    SortedLines& large_only = grew ? added : gone;
    SortedLines& small_only = grew ? gone : added;
    size_t common = 0;
    for (TupleRef t : large) {
      if (small.Contains(t)) {
        ++common;
      } else {
        large_only.Add(u, text, t);
      }
    }
    if (common == small.size()) continue;
    for (TupleRef t : small) {
      if (!large.Contains(t)) small_only.Add(u, text, t);
    }
  }
  gone.Sort();
  added.Sort();

  // One merge pass: the old lines minus the gone ones, with the added
  // ones slotted in. All three lists are sorted, and the gone lines are
  // among the old ones, so each list is met in order.
  std::string out;
  out.reserve(old_text.size() + added.joined_bytes());
  size_t pos = 0, g = 0, a = 0, old_lines = 0;
  while (pos < old_text.size()) {
    size_t end = old_text.find('\n', pos);
    if (end == std::string_view::npos) break;
    std::string_view line = old_text.substr(pos, end - pos);
    pos = end + 1;
    ++old_lines;
    while (a < added.size() && added[a] < line) AppendLine(added[a++], &out);
    if (g < gone.size() && gone[g] <= line) {
      if (gone[g] != line) break;  // a fact that left has no line here
      ++g;
      continue;
    }
    AppendLine(line, &out);
  }
  // Every old line read, one per old fact (so no quoted newline split
  // one, and every comparison above was of whole lines), and every gone
  // line met: the old text renders `before`.
  if (pos != old_text.size() || old_lines != old_facts || g != gone.size()) {
    return Status::FailedPrecondition(
        "PatchOutput: the old text is not the old instance's rendering");
  }
  while (a < added.size()) AppendLine(added[a++], &out);
  return out;
}

Result<Instance> ParseInstance(Universe& u, std::string_view source) {
  Instance inst;
  SEQDL_RETURN_IF_ERROR(
      ParseFacts(u, source, [&inst](RelId rel, TupleRef t) {
        inst.Add(rel, t);
      }));
  return inst;
}

}  // namespace seqdl
