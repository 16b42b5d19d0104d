// Hash partitioning of EDB facts across cluster shards. A fact
// R(v0, ..., vn) lives on the shard selected by a content hash of the
// *rendered* first-column value — rendered, not the raw PathId, because
// PathIds are per-Universe intern handles while the rendered text is
// identical on every node, which is what makes the placement stable
// across processes, restarts, and platforms.
//
// The relation name deliberately does NOT perturb the shard of a keyed
// fact: E(a, b) and F(a, c) must land on the same shard, because
// cross-relation co-location on the shared key is exactly what makes a
// join keyed on the partition column shard-local (the invariant the
// locality pass in analysis/locality.h certifies). The name is the
// routing key only for arity-0 relations (all of whose facts co-locate
// anyway) and for the per-relation overrides:
//   * pinned:    all facts of the relation go to one named shard
//                (relation affinity — co-locate with a fixed resource);
//   * broadcast: the relation is replicated in full on every shard
//                (small dimension tables; joins against them are always
//                shard-local — see analysis/locality.h).
//
// The hash is FNV-1a 64 — boring on purpose: trivially portable, no
// seed, and good enough spread for routing keys.
#ifndef SEQDL_CLUSTER_PARTITIONER_H_
#define SEQDL_CLUSTER_PARTITIONER_H_

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "src/engine/instance.h"
#include "src/term/universe.h"

namespace seqdl {

struct PartitionerOptions {
  /// Relation name -> shard index: all facts of the relation route there
  /// regardless of content. Indices are taken modulo the shard count.
  std::map<std::string, uint32_t> pinned;
  /// Relations replicated on every shard instead of partitioned. ShardOf
  /// reports shard 0 (the "primary" copy, so appends are counted once);
  /// Split copies them into every output partition.
  std::set<std::string> broadcast;
};

class Partitioner {
 public:
  explicit Partitioner(uint32_t num_shards, PartitionerOptions opts = {});

  uint32_t num_shards() const { return num_shards_; }
  const PartitionerOptions& options() const { return opts_; }

  /// The platform-stable routing hash: FNV-1a 64 over the key string
  /// (the rendered first-column value; the relation name for arity-0
  /// facts).
  static uint64_t HashKey(std::string_view key);

  /// True when the relation is replicated rather than partitioned.
  bool IsBroadcast(const Universe& u, RelId rel) const {
    return opts_.broadcast.count(u.RelName(rel)) != 0;
  }

  /// The shard owning fact `t` of `rel`: its pinned shard when the
  /// relation has one, else HashKey of the rendered first value (the
  /// relation name when `t` is empty) modulo the shard count. For a
  /// broadcast relation this is the primary copy's shard (0).
  uint32_t ShardOf(const Universe& u, RelId rel, TupleRef t) const;

  /// Splits `in` into one Instance per shard: partitioned facts go to
  /// their owning shard, broadcast facts into every partition.
  std::vector<Instance> Split(const Universe& u, const Instance& in) const;

 private:
  uint32_t num_shards_;
  PartitionerOptions opts_;
};

}  // namespace seqdl

#endif  // SEQDL_CLUSTER_PARTITIONER_H_
