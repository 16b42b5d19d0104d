// The cluster coordinator: one node that owns a pool of shard
// connections and answers the full wire-protocol surface by
// scatter-gathering over them. To a client a coordinator *is* a server —
// same frames, same replies — which is what lets `seqdl query --connect`
// point at either without knowing which it got.
//
// Placement: the EDB is hash-partitioned across the shards by a content
// hash of each fact's first-column value — see partitioner.h — so an
// append or
// retract batch is split and each piece routed to the shard owning it
// (broadcast relations go everywhere). Queries are classified by the
// static shard-locality pass (analysis/locality.h):
//
//   * distribution-transparent: every shard runs the unmodified program
//     over its partition, in parallel; the coordinator parses the
//     rendered per-shard answers into its own Universe, unions them
//     (set semantics dedupe overlap), and renders the merged instance —
//     byte-identical to a single-node run over the whole EDB.
//   * residual: the program joins or negates across shards, so the
//     per-shard union would be wrong. The coordinator instead gathers
//     the program's EDB relations from every shard (a generated
//     identity-rule "dump" program, so the shards need no new message
//     type) and finishes the evaluation itself on the gathered facts —
//     slower, but always correct.
//
// Failure semantics: shard calls are bounded by the client deadlines in
// CoordinatorOptions. A shard that is unreachable, hangs up mid-frame, or
// misses a deadline fails the whole request with a structured
// kUnavailable / kDeadlineExceeded naming the shard ("shard
// 127.0.0.1:4001: ..."); the connection is dropped and transparently
// re-established on the next request, so a restarted shard heals without
// coordinator intervention. Application errors (parse errors, unknown
// output relation, admission rejections) propagate unwrapped, exactly as
// a single server would report them.
//
// The coordinator tracks each shard's last-seen epoch; the vector of
// epochs acts as the cluster epoch. Run results are cached keyed by
// (program text, output relation) and answered without any shard traffic
// while the epoch vector is unchanged — appends/retractions through the
// coordinator invalidate it naturally. Writes that bypass the
// coordinator (a client appending to a shard directly) are invisible to
// this cache; route all writes through the coordinator.
//
// Thread-safety: all public methods are safe to call concurrently; each
// shard connection is serialized by its own mutex (the wire protocol is
// one-outstanding-request), so N concurrent coordinator requests
// interleave at shard granularity.
#ifndef SEQDL_CLUSTER_COORDINATOR_H_
#define SEQDL_CLUSTER_COORDINATOR_H_

#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "src/base/status.h"
#include "src/cluster/partitioner.h"
#include "src/engine/engine.h"
#include "src/server/client.h"
#include "src/server/protocol.h"
#include "src/term/universe.h"

namespace seqdl {

struct ShardAddress {
  std::string host;
  uint16_t port = 0;

  std::string ToString() const {
    return host + ":" + std::to_string(port);
  }
};

/// Parses "host:port,host:port,..." (the `seqdl coordinate --shards=`
/// syntax). Hosts are IPv4 dotted quads or "localhost"; at least one
/// shard is required.
Result<std::vector<ShardAddress>> ParseShardList(std::string_view spec);

struct CoordinatorOptions {
  /// Deadline for establishing a shard connection; 0 blocks forever.
  uint32_t connect_timeout_ms = 2000;
  /// Deadline for each shard round trip; 0 blocks forever. Runs can
  /// legitimately take long — set this generously or leave it off and
  /// rely on connect_timeout_ms to catch dead shards.
  uint32_t io_timeout_ms = 0;
  size_t max_frame_bytes = protocol::kDefaultMaxFrameBytes;
  /// Pinned/broadcast relation overrides, shared by the partitioner and
  /// the locality analysis. Programs touching a *pinned* relation are
  /// always evaluated residually — pinning breaks the co-location
  /// guarantees the transparent path depends on.
  PartitionerOptions partition;
  /// Cached (program, output_rel) results at the coordinator; 0 disables
  /// (the differential harness runs with 0).
  size_t result_cache_entries = 64;
  /// Budgets for coordinator-side residual evaluation.
  RunOptions residual_run;
};

class Coordinator {
 public:
  /// The universe is the coordinator's symbol context (used to parse
  /// requests, merge shard answers, and evaluate residual programs); it
  /// must outlive the coordinator.
  Coordinator(Universe& u, std::vector<ShardAddress> shards,
              CoordinatorOptions opts = {});

  Coordinator(const Coordinator&) = delete;
  Coordinator& operator=(const Coordinator&) = delete;

  size_t num_shards() const { return shards_.size(); }
  const Partitioner& partitioner() const { return partitioner_; }

  /// Broadcasts the compile to every shard (warming their program
  /// caches) and returns the first shard's reply with the coordinator's
  /// shard-locality findings (SD2xx) appended to the diagnostics.
  Result<protocol::CompileReply> Compile(const protocol::CompileRequest& req);

  /// Scatter-gather evaluation; see the file comment for the
  /// transparent/residual split. `cancel` bounds the residual local
  /// evaluation (shard-side runs are bounded by their own servers).
  Result<protocol::RunReply> Run(const protocol::RunRequest& req,
                                 const std::function<bool()>& cancel = {});

  /// Splits the batch by the partitioner and routes each piece to its
  /// owning shard (broadcast facts to every shard, counted once).
  Result<protocol::AppendReply> Append(const protocol::AppendRequest& req);
  Result<protocol::RetractReply> Retract(const protocol::RetractRequest& req);

  /// Aggregated cluster info: sums of the per-shard epochs, segments,
  /// facts, and durability counters.
  Result<protocol::DbInfo> Info();
  Result<protocol::CompactReply> Compact();

  /// Summed shard cache counters; `rendered` concatenates the per-shard
  /// statistics under "-- shard host:port --" headers.
  Result<protocol::StatsReply> Stats();

  /// Best-effort shutdown request to every shard (used by `seqdl
  /// coordinate` when a client asks the *cluster* to shut down). Returns
  /// the first failure, after trying all shards.
  Status ShutdownShards();

 private:
  struct Shard {
    ShardAddress addr;
    std::mutex mu;  ///< serializes the connection (one outstanding request)
    std::optional<Client> client;  ///< connected + handshaken lazily
  };

  struct TrackedEpoch {
    bool known = false;
    uint64_t epoch = 0;
  };

  struct CachedResult {
    std::vector<uint64_t> epochs;  ///< shard epochs the entry is valid at
    protocol::RunReply reply;
    std::list<std::string>::iterator lru;
  };

  /// Runs `fn` against shard `i`'s connection (connecting and
  /// handshaking first if needed). Transport and deadline failures drop
  /// the connection and come back as kUnavailable/kDeadlineExceeded
  /// naming the shard; application errors pass through unwrapped.
  template <typename T>
  Result<T> CallShard(size_t i,
                      const std::function<Result<T>(Client&)>& fn);

  /// CallShard on every shard concurrently (shard 0 on the caller's
  /// thread); results in shard order.
  template <typename T>
  std::vector<Result<T>> Scatter(
      const std::function<Result<T>(Client&, size_t)>& fn);

  /// First error in a scatter result, if any.
  template <typename T>
  Status FirstError(const std::vector<Result<T>>& results) const;

  ClientOptions MakeClientOptions() const;
  Status NameShardError(size_t i, const Status& st) const;
  void UpdateEpoch(size_t i, uint64_t epoch);
  std::vector<TrackedEpoch> SnapshotEpochs() const;

  /// Both run paths report the per-shard epochs their answer was pinned
  /// to via `pinned_epochs` (left shorter than num_shards() when no
  /// shard was contacted), which stamps the result-cache entry.
  Result<protocol::RunReply> RunTransparent(
      const protocol::RunRequest& req, std::vector<uint64_t>* pinned_epochs);
  Result<protocol::RunReply> RunResidual(const protocol::RunRequest& req,
                                         Program program,
                                         const std::function<bool()>& cancel,
                                         std::vector<uint64_t>* pinned_epochs);

  void CacheStore(const std::string& key, std::vector<uint64_t> epochs,
                  const protocol::RunReply& reply);
  std::optional<protocol::RunReply> CacheLookup(const std::string& key);

  Universe* u_;
  CoordinatorOptions opts_;
  Partitioner partitioner_;
  std::vector<std::unique_ptr<Shard>> shards_;

  mutable std::mutex epoch_mu_;
  std::vector<TrackedEpoch> epochs_;

  std::mutex cache_mu_;
  std::list<std::string> lru_;  ///< most recent first
  std::unordered_map<std::string, CachedResult> cache_;
};

}  // namespace seqdl

#endif  // SEQDL_CLUSTER_COORDINATOR_H_
