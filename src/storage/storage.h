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
// records reconstruct the published in-memory stack's visible facts and
// epoch. Each segment file holds one segment some checkpoint sealed, and
// each WAL record is one effective (post-dedupe) commit since the last
// checkpoint. Folds are not logged, so between checkpoints the stack's
// shape may differ from the files' (a fold replaced sealed segments).
// The commit point of a checkpoint is the atomic rename of CURRENT; a
// crash on either side of it recovers a consistent generation, and
// files the crash orphaned are swept at the next Open.
//
// Thread safety: mutation (LogCommit/Checkpoint) is serialized by the
// caller under the Database writer mutex. info() is safe from any
// thread (server stats workers race the writer). One helper thread per
// engine, started by the first commit that has work to overlap with its
// WAL sync and joined when the engine is destroyed, runs those syncs
// (LogCommit); the committing thread waits for each before it returns.
#ifndef SEQDL_STORAGE_STORAGE_H_
#define SEQDL_STORAGE_STORAGE_H_

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <thread>
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
  uint64_t checkpoint_wal_bytes = 4ull << 20;
};

/// Point-in-time durability counters for DbInfo / kStats replies.
struct StorageInfo {
  uint64_t manifest_generation = 0;
  /// Sealed segment files + current manifest, excluding the WAL.
  uint64_t on_disk_bytes = 0;
  uint64_t wal_bytes = 0;
  uint64_t sealed_segments = 0;
};

class StorageEngine {
 public:
  /// Opens `opts.dir`, creating it if needed. If the directory holds a
  /// CURRENT pointer, loads the manifest and decodes every sealed
  /// segment into a Segment of `sealed()` (re-interning through `u`,
  /// bottom of the stack first); otherwise the engine is fresh and the
  /// caller must run an initial Checkpoint before committing.
  /// Crash-window orphan files are deleted.
  static Result<std::unique_ptr<StorageEngine>> Open(Universe& u,
                                                     StorageOptions opts);

  /// True when Open found an initialized directory.
  bool recovered() const { return recovered_; }
  /// Epoch / shrink floor as of the recovered manifest (0 when fresh).
  uint64_t recovered_epoch() const { return recovered_epoch_; }
  uint64_t recovered_shrink_floor() const { return recovered_shrink_floor_; }

  /// Recovered segments; the caller moves these into its stack.
  std::vector<Segment>& sealed() { return sealed_; }

  /// Replays the WAL tail past the checkpoint through `apply`, then
  /// opens the log for appending. Must be called exactly once on a
  /// recovered engine, after the sealed segments are installed.
  Result<WalReplay> ReplayTail(
      Universe& u,
      const std::function<Status(WalRecordType, Instance)>& apply);

  /// Appends one effective commit batch to the WAL under the caller's
  /// writer lock and syncs it as the sync mode says. When a sync is owed
  /// and there is `beside` work (may be empty; must not throw), the
  /// helper thread runs the sync while `beside` runs on the calling
  /// thread, and LogCommit waits for both; otherwise the sync, if owed,
  /// runs inline and `beside` does not run at all. On OK under
  /// SyncMode::kAlways the batch is durable. `beside` does not run when
  /// the write fails, nor when the helper thread cannot start
  /// (kResourceExhausted, nothing written).
  /// A failed write or sync cuts the record back out of the log (best
  /// effort) and is final: every later LogCommit returns that first
  /// error until the directory is reopened, since after a failed fsync
  /// the kernel may already have dropped the dirty pages.
  Status LogCommit(WalRecordType type, const Universe& u,
                   const Instance& batch,
                   const std::function<void()>& beside = {});

  /// True once the WAL has outgrown the checkpoint threshold.
  bool WantsCheckpoint() const;

  /// Seals `stack` under a new manifest generation and rotates the WAL.
  /// A segment whose store this engine sealed or recovered keeps its
  /// file; every other segment is written anew, and files the new
  /// manifest no longer names are deleted once CURRENT has flipped. A
  /// stack the manifest already names, over an empty WAL, is sealed
  /// already: nothing is written. On error nothing is published: CURRENT
  /// still names the old generation.
  Status Checkpoint(const Universe& u, uint64_t epoch, uint64_t shrink_floor,
                    std::span<const Segment> stack);

  /// Thread-safe snapshot of the durability counters.
  StorageInfo info() const;

  const std::string& dir() const { return opts_.dir; }

  /// Joins the helper thread.
  ~StorageEngine();
  StorageEngine(const StorageEngine&) = delete;
  StorageEngine& operator=(const StorageEngine&) = delete;

 private:
  explicit StorageEngine(StorageOptions opts) : opts_(std::move(opts)) {}

  /// Posts the WAL sync to the helper thread, runs `beside` and returns
  /// the sync's result once both are done.
  Status SyncBeside(const std::function<void()>& beside);
  /// The helper thread's loop: one posted sync at a time until stopped.
  void SyncLoop();

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
  std::vector<Segment> sealed_;

  /// Live file set (mirrors the current manifest).
  Manifest manifest_;
  /// The manifest segment (an index into manifest_.segments) holding each
  /// store this engine sealed or recovered. Keyed by the store's identity
  /// without owning it: a folded-away store is freed, and a new store,
  /// even one at a freed store's address, never matches an old file.
  std::map<std::weak_ptr<const IndexedStore>, size_t, std::owner_less<>>
      files_;
  std::optional<WalWriter> wal_;
  /// The first failed WAL write or sync; LogCommit returns it from then
  /// on.
  Status wal_failed_;

  mutable std::mutex info_mu_;
  StorageInfo info_;

  /// Guards the handoff between a committing thread and the helper:
  /// the committer sets `sync_posted_` and waits until the helper has
  /// cleared it and stored `sync_result_`. The helper touches wal_ only
  /// in between, while the committer holds the writer lock.
  std::mutex sync_mu_;
  std::condition_variable sync_cv_;
  bool sync_posted_ = false;
  bool sync_stop_ = false;
  Status sync_result_;
  /// Declared last: it uses the members above.
  std::thread sync_thread_;
};

}  // namespace storage
}  // namespace seqdl

#endif  // SEQDL_STORAGE_STORAGE_H_
