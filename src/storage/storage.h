// StorageEngine: the durability side of a Database. It owns the data
// directory — sealed segment files, the commit WAL, and the manifest —
// and exposes exactly the four operations the engine layer needs:
//
//   Open        recover the sealed segment stack named by CURRENT
//               (or initialize a fresh directory),
//   ReplayTail  re-apply the WAL records past the last checkpoint,
//   LogCommit   make one effective commit batch durable pre-publish,
//   Checkpoint  seal the in-memory stack to files and rotate the WAL
//               under a new manifest generation.
//
// Invariant maintained across all four: the sealed files plus the WAL
// records always reconstruct the published in-memory stack exactly —
// segment files mirror a bottom prefix of the stack 1:1, and each WAL
// record is one effective (post-dedupe) commit above that prefix. The
// commit point of a checkpoint is the atomic rename of CURRENT; a
// crash on either side of it recovers a consistent generation, and
// files the crash orphaned are swept at the next Open.
//
// Thread safety: mutation (LogCommit/Checkpoint) is serialized by the
// caller under the Database writer mutex. info() is safe from any
// thread (server stats workers race the writer).
#ifndef SEQDL_STORAGE_STORAGE_H_
#define SEQDL_STORAGE_STORAGE_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "src/base/status.h"
#include "src/engine/index.h"
#include "src/engine/instance.h"
#include "src/storage/manifest.h"
#include "src/storage/wal.h"
#include "src/term/universe.h"

namespace seqdl {
namespace storage {

struct StorageOptions {
  std::string dir;
  SyncMode sync_mode = SyncMode::kAlways;
  uint32_t sync_interval_ms = 100;
  /// Checkpoint (seal + WAL rotation) once the log grows past this.
  uint64_t checkpoint_wal_bytes = 64ull << 20;
};

/// Point-in-time durability counters for DbInfo / kStats replies.
struct StorageInfo {
  uint64_t manifest_generation = 0;
  /// Sealed segment files + current manifest, excluding the WAL.
  uint64_t on_disk_bytes = 0;
  uint64_t wal_bytes = 0;
  uint64_t sealed_segments = 0;
};

/// One recovered segment, bottom-of-stack first.
struct SealedSegment {
  Instance facts;
  SegmentKind kind = SegmentKind::kFacts;
  uint64_t stamp = 0;
};

/// Checkpoint's `keep` when the whole sealed prefix is unchanged (a
/// checkpoint that only seals the segments committed since).
inline constexpr size_t kKeepAllSealed = SIZE_MAX;

/// One in-memory segment as handed to Checkpoint.
struct CheckpointSegment {
  const Instance* facts = nullptr;
  SegmentKind kind = SegmentKind::kFacts;
  uint64_t stamp = 0;
};

class StorageEngine {
 public:
  /// Opens `opts.dir`, creating it if needed. If the directory holds a
  /// CURRENT pointer, loads the manifest and decodes every sealed
  /// segment into `sealed()` (re-interning through `u`); otherwise the
  /// engine is fresh and the caller must run an initial Checkpoint
  /// before committing. Crash-window orphan files are deleted.
  static Result<std::unique_ptr<StorageEngine>> Open(Universe& u,
                                                     StorageOptions opts);

  /// True when Open found an initialized directory.
  bool recovered() const { return recovered_; }
  /// Epoch / shrink floor as of the recovered manifest (0 when fresh).
  uint64_t recovered_epoch() const { return recovered_epoch_; }
  uint64_t recovered_shrink_floor() const { return recovered_shrink_floor_; }

  /// Recovered segments; the caller moves these into its stack.
  std::vector<SealedSegment>& sealed() { return sealed_; }

  /// Replays the WAL tail past the checkpoint through `apply`, then
  /// opens the log for appending. Must be called exactly once on a
  /// recovered engine, after the sealed segments are installed.
  Result<WalReplay> ReplayTail(
      Universe& u,
      const std::function<Status(WalRecordType, Instance)>& apply);

  /// Appends one effective commit batch to the WAL under the caller's
  /// writer lock. On OK under SyncMode::kAlways the batch is durable.
  Status LogCommit(WalRecordType type, const Universe& u,
                   const Instance& batch);

  /// True once the WAL has outgrown the checkpoint threshold.
  bool WantsCheckpoint() const;

  /// Seals the given stack under a new manifest generation and rotates
  /// the WAL. The bottom `keep` segments of `stack` (capped at the
  /// sealed prefix) are the ones the current manifest already names:
  /// their files are reused, every segment above is written anew, and
  /// files the new manifest no longer names are deleted. A WAL-threshold
  /// or Close checkpoint passes kKeepAllSealed, a tail fold 1 (the base
  /// is unchanged), a full fold 0. On error nothing is published:
  /// CURRENT still names the old generation.
  Status Checkpoint(const Universe& u, uint64_t epoch, uint64_t shrink_floor,
                    const std::vector<CheckpointSegment>& stack, size_t keep);

  /// Thread-safe snapshot of the durability counters.
  StorageInfo info() const;

  const std::string& dir() const { return opts_.dir; }

 private:
  explicit StorageEngine(StorageOptions opts) : opts_(std::move(opts)) {}

  Status RecoverFrom(Universe& u, Manifest m);
  Status SweepOrphans() const;
  std::string SegPath(const std::string& file) const {
    return opts_.dir + "/" + file;
  }
  void RefreshInfo();

  StorageOptions opts_;
  bool recovered_ = false;
  uint64_t recovered_epoch_ = 0;
  uint64_t recovered_shrink_floor_ = 0;
  std::vector<SealedSegment> sealed_;

  /// Live file set (mirrors the current manifest).
  Manifest manifest_;
  std::optional<WalWriter> wal_;

  mutable std::mutex info_mu_;
  StorageInfo info_;
};

}  // namespace storage
}  // namespace seqdl

#endif  // SEQDL_STORAGE_STORAGE_H_
