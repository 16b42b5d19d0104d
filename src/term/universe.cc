#include "src/term/universe.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <shared_mutex>

namespace seqdl {

namespace {
size_t HashCombine(size_t seed, size_t v) {
  return seed ^ (v + 0x9e3779b97f4a7c15ull + (seed << 6) + (seed >> 2));
}

// True iff `name` would not lex back as one identifier token.
bool NeedsQuotes(std::string_view name) {
  if (name.empty() || name == "not" || name == "eps") return true;
  for (size_t i = 0; i < name.size(); ++i) {
    unsigned char next = i + 1 < name.size() ? name[i + 1] : 0;
    if (!IsIdentByte(name[i], next)) return true;
  }
  return false;
}
}  // namespace

size_t Universe::PathKeyHash::operator()(const std::vector<Value>& p) const {
  size_t h = 0x42d1a7u;
  for (Value v : p) h = HashCombine(h, ValueHash()(v));
  return h;
}

Universe::PathShard::~PathShard() {
  for (std::atomic<std::vector<Value>*>& b : blocks) {
    delete[] b.load(std::memory_order_relaxed);
  }
}

uint32_t Universe::PathBlockOf(uint32_t local) {
  return static_cast<uint32_t>(
             std::bit_width((local >> kPathFirstBlockBits) + 1)) -
         1;
}

uint32_t Universe::PathOffsetOf(uint32_t local, uint32_t block) {
  return local - (((1u << block) - 1) << kPathFirstBlockBits);
}

uint32_t Universe::PathBlockCapacity(uint32_t block) {
  return (1u << kPathFirstBlockBits) << block;
}

Universe::Universe() : path_shards_(new PathShard[kPathShards]) {
  // Reserve PathId 0 (shard 0, index 0) for the empty path: entry 0 of the
  // first block is a default-constructed (empty) vector, which is exactly
  // the empty path's contents.
  PathShard& s0 = path_shards_[0];
  s0.blocks[0].store(new std::vector<Value>[PathBlockCapacity(0)],
                     std::memory_order_release);
  s0.size = 1;
  s0.published_size.store(1, std::memory_order_relaxed);
}

Universe::~Universe() = default;

AtomId Universe::InternAtomLocked(std::string_view name) {
  auto it = atom_ids_.find(std::string(name));
  if (it != atom_ids_.end()) return it->second;
  AtomId id = static_cast<AtomId>(atom_names_.size());
  std::string_view text = atom_names_.emplace_back(name);
  if (NeedsQuotes(name)) {
    std::string& quoted = quoted_atom_texts_.emplace_back(1, '"');
    quoted.append(name).push_back('"');
    text = quoted;
  }
  atom_texts_.push_back(text);
  atom_ids_.emplace(std::string(name), id);
  return id;
}

AtomId Universe::InternAtom(std::string_view name) {
  std::unique_lock<std::shared_mutex> lock(atom_mu_);
  return InternAtomLocked(name);
}

const std::string& Universe::AtomName(AtomId id) const {
  std::shared_lock<std::shared_mutex> lock(atom_mu_);
  return atom_names_[id];
}

AtomId Universe::FreshAtom(std::string_view hint) {
  std::unique_lock<std::shared_mutex> lock(atom_mu_);
  std::string name = UniqueName(hint, atom_ids_, &fresh_atom_counter_);
  return InternAtomLocked(name);
}

size_t Universe::num_atoms() const {
  std::shared_lock<std::shared_mutex> lock(atom_mu_);
  return atom_names_.size();
}

PathId Universe::InternPath(std::span<const Value> values) {
  if (values.empty()) return kEmptyPath;
  std::vector<Value> key(values.begin(), values.end());
  uint32_t shard =
      static_cast<uint32_t>(PathKeyHash()(key)) & (kPathShards - 1);
  PathShard& s = path_shards_[shard];
  std::lock_guard<std::mutex> lock(s.mu);
  auto it = s.ids.find(key);
  if (it != s.ids.end()) return it->second;
  uint32_t local = s.size;
  if (local >= kMaxPathsPerShard) {
    // Unconditional (not assert): past this point the id would overflow
    // Value's 31-bit payload and the block array — fail loudly rather
    // than mint corrupt PathIds in release builds.
    std::fprintf(stderr,
                 "seqdl: Universe path shard full (%u paths); aborting\n",
                 local);
    std::abort();
  }
  uint32_t block_idx = PathBlockOf(local);
  std::vector<Value>* block = s.blocks[block_idx].load(std::memory_order_relaxed);
  if (block == nullptr) {
    block = new std::vector<Value>[PathBlockCapacity(block_idx)];
    s.blocks[block_idx].store(block, std::memory_order_release);
  }
  PathId id = (local << kPathShardBits) | shard;
  // The entry is fully written before the id can escape: same-shard lookups
  // synchronize on mu, and any other transfer of the id between threads
  // carries its own happens-before edge.
  block[PathOffsetOf(local, block_idx)] = key;
  s.ids.emplace(std::move(key), id);
  s.size = local + 1;
  s.published_size.store(s.size, std::memory_order_relaxed);
  return id;
}

std::span<const Value> Universe::GetPath(PathId id) const {
  uint32_t shard = id & (kPathShards - 1);
  uint32_t local = id >> kPathShardBits;
  uint32_t block_idx = PathBlockOf(local);
  const std::vector<Value>* block =
      path_shards_[shard].blocks[block_idx].load(std::memory_order_acquire);
  assert(block != nullptr && "unknown PathId");
  return block[PathOffsetOf(local, block_idx)];
}

size_t Universe::num_paths() const {
  size_t n = 0;
  for (uint32_t s = 0; s < kPathShards; ++s) {
    n += path_shards_[s].published_size.load(std::memory_order_relaxed);
  }
  return n;
}

PathId Universe::Concat(PathId p1, PathId p2) {
  if (p1 == kEmptyPath) return p2;
  if (p2 == kEmptyPath) return p1;
  std::span<const Value> a = GetPath(p1), b = GetPath(p2);
  std::vector<Value> out;
  out.reserve(a.size() + b.size());
  out.insert(out.end(), a.begin(), a.end());
  out.insert(out.end(), b.begin(), b.end());
  return InternPath(out);
}

PathId Universe::Append(PathId p, Value v) {
  std::span<const Value> a = GetPath(p);
  std::vector<Value> out(a.begin(), a.end());
  out.push_back(v);
  return InternPath(out);
}

PathId Universe::SubPath(PathId p, size_t start, size_t len) {
  std::span<const Value> a = GetPath(p);
  assert(start + len <= a.size());
  return InternPath(a.subspan(start, len));
}

PathId Universe::SingletonPath(Value v) {
  return InternPath(std::span<const Value>(&v, 1));
}

bool Universe::IsFlatValue(Value v) const { return v.is_atom(); }

bool Universe::IsFlatPath(PathId p) const {
  for (Value v : GetPath(p)) {
    // A value inside a flat path must be atomic; packed values are exactly
    // the non-flat case, at any depth (the top level suffices because a
    // packed value *is* non-flatness).
    if (v.is_packed()) return false;
  }
  return true;
}

void Universe::CollectAtoms(PathId p, std::unordered_set<AtomId>* out) const {
  for (Value v : GetPath(p)) {
    if (v.is_atom()) {
      out->insert(v.atom());
    } else {
      CollectAtoms(v.packed_path(), out);
    }
  }
}

std::vector<PathId> Universe::AllSubPaths(PathId p) {
  std::span<const Value> a = GetPath(p);
  std::vector<PathId> out;
  out.push_back(kEmptyPath);
  for (size_t i = 0; i < a.size(); ++i) {
    for (size_t len = 1; i + len <= a.size(); ++len) {
      out.push_back(InternPath(a.subspan(i, len)));
    }
  }
  // Deduplicate (repeated contents intern to the same id).
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

void Universe::AppendAtomLocked(AtomId id, std::string* out) const {
  out->append(atom_texts_[id]);
}

void Universe::AppendAtom(AtomId id, std::string* out) const {
  std::shared_lock<std::shared_mutex> lock(atom_mu_);
  AppendAtomLocked(id, out);
}

void Universe::AppendPathLocked(PathId p, std::string* out) const {
  std::span<const Value> a = GetPath(p);
  if (a.empty()) {
    out->append("()");
    return;
  }
  for (size_t i = 0; i < a.size(); ++i) {
    if (i > 0) out->append("·");  // interpunct, as in the paper
    if (a[i].is_atom()) {
      AppendAtomLocked(a[i].atom(), out);
    } else {
      out->push_back('<');
      AppendPathLocked(a[i].packed_path(), out);
      out->push_back('>');
    }
  }
}

void Universe::AppendPath(PathId p, std::string* out) const {
  AppendPaths(std::span<const PathId>(&p, 1), {}, out);
}

void Universe::AppendPaths(std::span<const PathId> paths, std::string_view sep,
                           std::string* out) const {
  std::shared_lock<std::shared_mutex> lock(atom_mu_);
  for (size_t i = 0; i < paths.size(); ++i) {
    if (i > 0) out->append(sep);
    AppendPathLocked(paths[i], out);
  }
}

std::string Universe::FormatPath(PathId p) const {
  std::string out;
  AppendPath(p, &out);
  return out;
}

VarId Universe::InternVarLocked(VarKind kind, std::string_view name) {
  std::string key(kind == VarKind::kAtomic ? "@" : "$");
  key += name;
  auto it = var_ids_.find(key);
  if (it != var_ids_.end()) return it->second;
  VarId id = static_cast<VarId>(var_names_.size());
  var_names_.emplace_back(name);
  var_kinds_.push_back(kind);
  var_ids_.emplace(std::move(key), id);
  return id;
}

VarId Universe::InternVar(VarKind kind, std::string_view name) {
  std::unique_lock<std::shared_mutex> lock(var_mu_);
  return InternVarLocked(kind, name);
}

VarKind Universe::VarKindOf(VarId id) const {
  std::shared_lock<std::shared_mutex> lock(var_mu_);
  return var_kinds_[id];
}

const std::string& Universe::VarName(VarId id) const {
  std::shared_lock<std::shared_mutex> lock(var_mu_);
  return var_names_[id];
}

VarId Universe::FreshVar(VarKind kind, std::string_view hint) {
  // Candidate names are checked against both sigil variants so the fresh
  // name is unused regardless of kind. Choosing the name and interning it
  // happen under one lock, so the variable really is fresh even if other
  // threads intern concurrently.
  std::unique_lock<std::shared_mutex> lock(var_mu_);
  for (uint32_t i = fresh_var_counter_;; ++i) {
    std::string name = std::string(hint) + "_" + std::to_string(i);
    if (!var_ids_.count("@" + name) && !var_ids_.count("$" + name)) {
      fresh_var_counter_ = i + 1;
      return InternVarLocked(kind, name);
    }
  }
}

size_t Universe::num_vars() const {
  std::shared_lock<std::shared_mutex> lock(var_mu_);
  return var_names_.size();
}

Result<RelId> Universe::InternRelLocked(std::string_view name,
                                        uint32_t arity) {
  auto it = rel_ids_.find(std::string(name));
  if (it != rel_ids_.end()) {
    if (rel_arities_[it->second] != arity) {
      return Status::InvalidArgument(
          "relation " + std::string(name) + " used with arity " +
          std::to_string(arity) + " but previously declared with arity " +
          std::to_string(rel_arities_[it->second]));
    }
    return it->second;
  }
  RelId id = static_cast<RelId>(rel_names_.size());
  rel_names_.emplace_back(name);
  rel_arities_.push_back(arity);
  rel_ids_.emplace(std::string(name), id);
  return id;
}

Result<RelId> Universe::InternRel(std::string_view name, uint32_t arity) {
  std::unique_lock<std::shared_mutex> lock(rel_mu_);
  return InternRelLocked(name, arity);
}

Result<RelId> Universe::FindRel(std::string_view name) const {
  std::shared_lock<std::shared_mutex> lock(rel_mu_);
  auto it = rel_ids_.find(std::string(name));
  if (it == rel_ids_.end()) {
    return Status::NotFound("unknown relation " + std::string(name));
  }
  return it->second;
}

const std::string& Universe::RelName(RelId id) const {
  std::shared_lock<std::shared_mutex> lock(rel_mu_);
  return rel_names_[id];
}

uint32_t Universe::RelArity(RelId id) const {
  std::shared_lock<std::shared_mutex> lock(rel_mu_);
  return rel_arities_[id];
}

RelId Universe::FreshRel(std::string_view hint, uint32_t arity) {
  std::unique_lock<std::shared_mutex> lock(rel_mu_);
  std::string name = UniqueName(hint, rel_ids_, &fresh_rel_counter_);
  Result<RelId> r = InternRelLocked(name, arity);
  assert(r.ok());
  return *r;
}

size_t Universe::num_rels() const {
  std::shared_lock<std::shared_mutex> lock(rel_mu_);
  return rel_names_.size();
}

PathId Universe::PathOfChars(std::string_view chars) {
  std::vector<Value> values;
  values.reserve(chars.size());
  for (char c : chars) {
    values.push_back(Value::Atom(InternAtom(std::string_view(&c, 1))));
  }
  return InternPath(values);
}

PathId Universe::PathOfWords(std::string_view words) {
  std::vector<Value> values;
  size_t i = 0;
  while (i < words.size()) {
    while (i < words.size() && words[i] == ' ') ++i;
    size_t j = i;
    while (j < words.size() && words[j] != ' ') ++j;
    if (j > i) values.push_back(Value::Atom(InternAtom(words.substr(i, j - i))));
    i = j;
  }
  return InternPath(values);
}

std::string Universe::UniqueName(
    std::string_view hint,
    const std::unordered_map<std::string, uint32_t>& used, uint32_t* counter) {
  for (uint32_t i = *counter;; ++i) {
    std::string name = std::string(hint) + "_" + std::to_string(i);
    if (!used.count(name)) {
      *counter = i + 1;
      return name;
    }
  }
}

}  // namespace seqdl
