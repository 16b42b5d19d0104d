#include "src/storage/wal.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <utility>

#include "src/storage/format.h"

namespace seqdl {
namespace storage {

namespace {

uint64_t NowMs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

Status WriteAll(int fd, const std::string& buf, const std::string& path) {
  size_t off = 0;
  while (off < buf.size()) {
    ssize_t n = ::write(fd, buf.data() + off, buf.size() - off);
    if (n < 0) {
      if (errno == EINTR) continue;
      return StorageErrnoError(kSdStorageIo, "write " + path);
    }
    off += static_cast<size_t>(n);
  }
  return Status::OK();
}

}  // namespace

Result<WalWriter> WalWriter::Open(const std::string& path, SyncMode mode,
                                  uint32_t sync_interval_ms) {
  int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_APPEND | O_CLOEXEC,
                  0644);
  if (fd < 0) {
    return StorageErrnoError(kSdStorageIo, "open wal " + path);
  }
  off_t end = ::lseek(fd, 0, SEEK_END);
  if (end < 0) {
    Status err = StorageErrnoError(kSdStorageIo, "seek wal " + path);
    ::close(fd);
    return err;
  }
  return WalWriter(fd, path, mode, sync_interval_ms,
                   static_cast<uint64_t>(end));
}

WalWriter::WalWriter(int fd, std::string path, SyncMode mode,
                     uint32_t interval_ms, uint64_t existing_bytes)
    : fd_(fd),
      path_(std::move(path)),
      mode_(mode),
      sync_interval_ms_(interval_ms),
      written_(existing_bytes),
      synced_(existing_bytes),
      last_sync_ms_(NowMs()) {}

WalWriter::WalWriter(WalWriter&& other) noexcept
    : fd_(other.fd_),
      path_(std::move(other.path_)),
      mode_(other.mode_),
      sync_interval_ms_(other.sync_interval_ms_),
      written_(other.written_),
      synced_(other.synced_),
      last_sync_ms_(other.last_sync_ms_) {
  other.fd_ = -1;
}

WalWriter& WalWriter::operator=(WalWriter&& other) noexcept {
  if (this != &other) {
    if (fd_ >= 0) ::close(fd_);
    fd_ = other.fd_;
    path_ = std::move(other.path_);
    mode_ = other.mode_;
    sync_interval_ms_ = other.sync_interval_ms_;
    written_ = other.written_;
    synced_ = other.synced_;
    last_sync_ms_ = other.last_sync_ms_;
    other.fd_ = -1;
  }
  return *this;
}

WalWriter::~WalWriter() {
  if (fd_ >= 0) ::close(fd_);
}

Status WalWriter::Append(WalRecordType type, const Universe& u,
                         const Instance& batch) {
  const uint64_t start = written_;
  Status st = Write(type, u, batch);
  if (st.ok() && SyncDue()) st = Sync();
  if (!st.ok()) CutBack(start);
  return st;
}

Status WalWriter::Write(WalRecordType type, const Universe& u,
                        const Instance& batch) {
  std::string payload;
  PutU8(&payload, static_cast<uint8_t>(type));
  EncodeInstanceBlock(u, batch, &payload);

  std::string frame;
  frame.reserve(8 + payload.size());
  PutU32(&frame, static_cast<uint32_t>(payload.size()));
  PutU32(&frame, Crc32(payload.data(), payload.size()));
  frame.append(payload);

  SEQDL_RETURN_IF_ERROR(WriteAll(fd_, frame, path_));
  written_ += frame.size();
  return Status::OK();
}

bool WalWriter::SyncDue() const {
  switch (mode_) {
    case SyncMode::kAlways:
      return true;
    case SyncMode::kInterval:
      return NowMs() - last_sync_ms_ >= sync_interval_ms_;
    case SyncMode::kNever:
      return false;
  }
  return false;
}

Status WalWriter::Sync() {
  // Group commit: everything written since the last flush rides one
  // fdatasync. A no-op when the log is already clean.
  if (synced_ == written_) {
    last_sync_ms_ = NowMs();
    return Status::OK();
  }
  if (::fdatasync(fd_) != 0) {
    return StorageErrnoError(kSdStorageIo, "fdatasync " + path_);
  }
  synced_ = written_;
  last_sync_ms_ = NowMs();
  return Status::OK();
}

void WalWriter::CutBack(uint64_t bytes) {
  if (::ftruncate(fd_, static_cast<off_t>(bytes)) != 0) return;
  written_ = bytes;
  synced_ = std::min(synced_, bytes);
}

Result<WalReplay> ReplayWal(
    const std::string& path, Universe& u,
    const std::function<Status(WalRecordType, Instance)>& apply) {
  Result<std::string> contents = ReadFileBytes(path);
  if (!contents.ok()) {
    if (contents.status().code() == StatusCode::kNotFound) {
      return WalReplay{};  // no log yet: nothing to replay
    }
    return contents.status();
  }
  const std::string& data = *contents;

  WalReplay out;
  size_t pos = 0;
  while (pos < data.size()) {
    // Frame header: a short or checksum-failing frame is the torn tail
    // of the write in flight at crash time — stop and truncate there.
    if (data.size() - pos < 8) break;
    RecordReader header(std::string_view(data).substr(pos, 8), kSdWalCorrupt);
    uint32_t len = header.U32().value();
    uint32_t crc = header.U32().value();
    if (data.size() - pos - 8 < len) break;
    std::string_view payload = std::string_view(data).substr(pos + 8, len);
    if (Crc32(payload.data(), payload.size()) != crc) break;

    // The frame is intact: a payload that does not decode is genuine
    // corruption, not a torn write.
    RecordReader r(payload, kSdWalCorrupt);
    SEQDL_ASSIGN_OR_RETURN(uint8_t type_byte, r.U8());
    if (type_byte != static_cast<uint8_t>(WalRecordType::kAppend) &&
        type_byte != static_cast<uint8_t>(WalRecordType::kRetract)) {
      return StorageError(kSdWalCorrupt,
                          path + ": unknown record type at offset " +
                              std::to_string(pos));
    }
    SEQDL_ASSIGN_OR_RETURN(Instance batch,
                           DecodeInstanceBlock(u, r, kSdWalCorrupt));
    if (!r.AtEnd()) {
      return StorageError(kSdWalCorrupt,
                          path + ": trailing bytes in record at offset " +
                              std::to_string(pos));
    }
    SEQDL_RETURN_IF_ERROR(
        apply(static_cast<WalRecordType>(type_byte), std::move(batch)));
    pos += 8 + len;
    ++out.records;
  }

  out.valid_bytes = pos;
  if (pos < data.size()) {
    out.truncated_tail = true;
    if (::truncate(path.c_str(), static_cast<off_t>(pos)) != 0) {
      return StorageErrnoError(kSdStorageIo, "truncate " + path);
    }
  }
  return out;
}

}  // namespace storage
}  // namespace seqdl
