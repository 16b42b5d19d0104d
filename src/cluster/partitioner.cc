#include "src/cluster/partitioner.h"

namespace seqdl {

Partitioner::Partitioner(uint32_t num_shards, PartitionerOptions opts)
    : num_shards_(num_shards == 0 ? 1 : num_shards), opts_(std::move(opts)) {}

uint64_t Partitioner::HashKey(std::string_view key) {
  // FNV-1a 64: standard offset basis and prime.
  uint64_t h = 14695981039346656037ULL;
  constexpr uint64_t kPrime = 1099511628211ULL;
  for (unsigned char c : key) {
    h = (h ^ c) * kPrime;
  }
  return h;
}

uint32_t Partitioner::ShardOf(const Universe& u, RelId rel,
                              TupleRef t) const {
  const std::string& name = u.RelName(rel);
  if (opts_.broadcast.count(name) != 0) return 0;
  auto pin = opts_.pinned.find(name);
  if (pin != opts_.pinned.end()) return pin->second % num_shards_;
  // Keyed facts route by value alone so that joins keyed on the
  // partition column are co-located across relations.
  std::string key = t.empty() ? name : u.FormatPath(t[0]);
  return static_cast<uint32_t>(HashKey(key) % num_shards_);
}

std::vector<Instance> Partitioner::Split(const Universe& u,
                                         const Instance& in) const {
  std::vector<Instance> parts(num_shards_);
  for (RelId rel : in.Relations()) {
    if (IsBroadcast(u, rel)) {
      for (TupleRef t : in.Tuples(rel)) {
        for (Instance& part : parts) part.Add(rel, t);
      }
      continue;
    }
    for (TupleRef t : in.Tuples(rel)) {
      parts[ShardOf(u, rel, t)].Add(rel, t);
    }
  }
  return parts;
}

}  // namespace seqdl
