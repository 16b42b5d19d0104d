#include "src/base/bytes.h"

#include <cstring>

namespace seqdl {

void PutU8(std::string* out, uint8_t v) {
  out->push_back(static_cast<char>(v));
}

void PutU32(std::string* out, uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out->push_back(static_cast<char>((v >> (8 * i)) & 0xFFu));
  }
}

void PutU64(std::string* out, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out->push_back(static_cast<char>((v >> (8 * i)) & 0xFFu));
  }
}

void PutF64(std::string* out, double v) {
  uint64_t bits;
  static_assert(sizeof(bits) == sizeof(v));
  std::memcpy(&bits, &v, sizeof(bits));
  PutU64(out, bits);
}

void PutVarint(std::string* out, uint64_t v) {
  while (v >= 0x80u) {
    out->push_back(static_cast<char>((v & 0x7Fu) | 0x80u));
    v >>= 7;
  }
  out->push_back(static_cast<char>(v));
}

void PutLenBytes(std::string* out, std::string_view s) {
  PutVarint(out, s.size());
  out->append(s.data(), s.size());
}

Status ByteReader::Overlong() const {
  return Status::InvalidArgument("malformed varint (over 64 bits) at offset " +
                                 std::to_string(pos_));
}

Result<uint8_t> ByteReader::U8() {
  if (remaining() < 1) return Truncated("u8");
  return static_cast<uint8_t>(data_[pos_++]);
}

Result<uint32_t> ByteReader::U32() {
  if (remaining() < 4) return Truncated("u32");
  uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<uint32_t>(static_cast<unsigned char>(data_[pos_ + i]))
         << (8 * i);
  }
  pos_ += 4;
  return v;
}

Result<uint64_t> ByteReader::U64() {
  if (remaining() < 8) return Truncated("u64");
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<uint64_t>(static_cast<unsigned char>(data_[pos_ + i]))
         << (8 * i);
  }
  pos_ += 8;
  return v;
}

Result<double> ByteReader::F64() {
  SEQDL_ASSIGN_OR_RETURN(uint64_t bits, U64());
  double v;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

Result<uint64_t> ByteReader::Varint() {
  uint64_t v = 0;
  for (int shift = 0; shift < 64; shift += 7) {
    if (remaining() < 1) return Truncated("varint");
    auto byte = static_cast<unsigned char>(data_[pos_++]);
    v |= static_cast<uint64_t>(byte & 0x7Fu) << shift;
    if ((byte & 0x80u) == 0) return v;
  }
  return Overlong();
}

Result<std::string_view> ByteReader::LenBytes() {
  SEQDL_ASSIGN_OR_RETURN(uint64_t len, Varint());
  return Bytes(len);
}

Result<std::string_view> ByteReader::Bytes(size_t n, const char* what) {
  if (remaining() < n) return Truncated(what);
  std::string_view out = data_.substr(pos_, n);
  pos_ += n;
  return out;
}

}  // namespace seqdl
