// The one byte codec of seqdl: little-endian fixed-width scalars,
// LEB128 varints and length-prefixed byte strings, shared by the wire
// protocol (server/protocol.h) and the storage formats (storage/format.h,
// wal.h, manifest.h), plus the bounds-checked reader both decode with.
#ifndef SEQDL_BASE_BYTES_H_
#define SEQDL_BASE_BYTES_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

#include "src/base/status.h"

namespace seqdl {

void PutU8(std::string* out, uint8_t v);
void PutU32(std::string* out, uint32_t v);
void PutU64(std::string* out, uint64_t v);
/// The IEEE-754 bit pattern as a u64.
void PutF64(std::string* out, double v);
void PutVarint(std::string* out, uint64_t v);
/// Varint length + raw bytes.
void PutLenBytes(std::string* out, std::string_view s);

/// Bounds-checked sequential reader over an in-memory byte range (a frame
/// payload, a mapped segment file, a WAL record). No accessor reads past
/// the end: each fails with the status its format words instead, so a
/// wire frame and a storage record keep their own codes and messages.
class ByteReader {
 public:
  explicit ByteReader(std::string_view data) : data_(data) {}

  Result<uint8_t> U8();
  Result<uint32_t> U32();
  Result<uint64_t> U64();
  Result<double> F64();
  Result<uint64_t> Varint();
  /// A varint length, then that many raw bytes.
  Result<std::string_view> LenBytes();
  /// Raw `n` bytes; `what` names them in the truncation status.
  Result<std::string_view> Bytes(size_t n, const char* what = "bytes");

  size_t pos() const { return pos_; }
  size_t remaining() const { return data_.size() - pos_; }
  bool AtEnd() const { return pos_ == data_.size(); }

 protected:
  ~ByteReader() = default;

  /// The status of a read of `what` ("u32", "varint", ...) that starts at
  /// pos() and runs past the end.
  virtual Status Truncated(const char* what) const = 0;
  /// The status of a varint longer than 64 bits, ending at pos().
  virtual Status Overlong() const;

 private:
  std::string_view data_;
  size_t pos_ = 0;
};

}  // namespace seqdl

#endif  // SEQDL_BASE_BYTES_H_
