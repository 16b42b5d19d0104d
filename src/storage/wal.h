// Write-ahead log: the durability point of a commit. Every effective
// (post-dedupe) append or retract batch is encoded as one CRC-framed
// record and written to the log *before* the in-memory segment stack
// publishes it. Recovery loads the sealed segments named by the
// manifest and replays the WAL tail through the normal commit path.
//
// Record layout (little-endian):
//
//   len     u32 payload length in bytes
//   crc     u32 CRC32 of the payload
//   payload u8 record type (WalRecordType) + instance block
//           (storage/format.h: EncodeInstanceBlock)
//
// The log is append-only and single-writer (the Database writer mutex
// serializes commits). Replay follows the LevelDB torn-tail policy: a
// short or CRC-failing record marks the write that was in flight when
// the process died — everything before it is kept, the file is
// truncated there, and replay succeeds. A record whose CRC validates
// but whose payload does not decode is real corruption and fails with
// [SD402]. Since replay stops at the first torn frame, a record whose
// write or sync failed is cut back out of the file (CutBack) before
// anything else is written: a torn frame left in place would hide every
// later record from replay, and a whole record left unsynced would be
// made durable by the next commit's sync although its commit failed.
#ifndef SEQDL_STORAGE_WAL_H_
#define SEQDL_STORAGE_WAL_H_

#include <cstdint>
#include <functional>
#include <string>

#include "src/base/status.h"
#include "src/engine/instance.h"
#include "src/term/universe.h"

namespace seqdl {
namespace storage {

/// When a commit's WAL write is pushed to stable media.
enum class SyncMode : uint8_t {
  /// fdatasync before every commit acknowledges. Survives power loss.
  kAlways = 0,
  /// fdatasync at most once per `sync_interval_ms`. Bounded loss window;
  /// group commit amortizes the flush across bursts.
  kInterval = 1,
  /// Never fsync (the OS flushes on its own schedule). Survives process
  /// crashes (the page cache persists) but not power loss.
  kNever = 2,
};

enum class WalRecordType : uint8_t {
  kAppend = 1,
  kRetract = 2,
};

/// Appends CRC-framed commit records to one log file. Move-only;
/// callers (StorageEngine) serialize access under the writer mutex.
class WalWriter {
 public:
  /// Opens (creating if absent) `path` for appending.
  static Result<WalWriter> Open(const std::string& path, SyncMode mode,
                                uint32_t sync_interval_ms);

  WalWriter(WalWriter&& other) noexcept;
  WalWriter& operator=(WalWriter&& other) noexcept;
  WalWriter(const WalWriter&) = delete;
  WalWriter& operator=(const WalWriter&) = delete;
  ~WalWriter();

  /// Writes one record and applies the sync policy. On return with OK
  /// under kAlways, the record is on stable media. A failed write or
  /// sync cuts the record back out of the file.
  Status Append(WalRecordType type, const Universe& u, const Instance& batch);

  /// Writes one record and leaves syncing it to the caller (SyncDue,
  /// Sync). The caller cuts a failed record back out (CutBack).
  Status Write(WalRecordType type, const Universe& u, const Instance& batch);

  /// True when the sync policy owes an fdatasync after a write: always
  /// under kAlways, once `sync_interval_ms` has passed since the last
  /// sync under kInterval, never under kNever.
  bool SyncDue() const;

  /// Forces an fdatasync of everything written so far (used at
  /// checkpoint boundaries regardless of policy).
  Status Sync();

  /// Cuts the file back to its first `bytes` bytes, dropping the records
  /// written after them. Best effort: a failed truncation changes
  /// nothing.
  void CutBack(uint64_t bytes);

  /// Bytes written to this log so far (including recovered bytes when
  /// the file pre-existed). Drives the checkpoint threshold.
  uint64_t bytes() const { return written_; }

  const std::string& path() const { return path_; }

 private:
  WalWriter(int fd, std::string path, SyncMode mode, uint32_t interval_ms,
            uint64_t existing_bytes);

  int fd_ = -1;
  std::string path_;
  SyncMode mode_ = SyncMode::kAlways;
  uint32_t sync_interval_ms_ = 100;
  uint64_t written_ = 0;
  uint64_t synced_ = 0;
  /// steady_clock::now() at the last sync, in milliseconds; only
  /// consulted under kInterval.
  uint64_t last_sync_ms_ = 0;
};

/// Outcome of scanning a WAL file.
struct WalReplay {
  /// Records successfully decoded and applied.
  uint64_t records = 0;
  /// File prefix length holding those records; the tail beyond it (if
  /// any) was a torn write and has been truncated away.
  uint64_t valid_bytes = 0;
  bool truncated_tail = false;
};

/// Scans `path`, decoding each record and invoking `apply`. A missing
/// file is an empty replay. A torn tail is truncated (the file is
/// rewritten to `valid_bytes`). `apply` failures abort the replay.
Result<WalReplay> ReplayWal(
    const std::string& path, Universe& u,
    const std::function<Status(WalRecordType, Instance)>& apply);

}  // namespace storage
}  // namespace seqdl

#endif  // SEQDL_STORAGE_WAL_H_
