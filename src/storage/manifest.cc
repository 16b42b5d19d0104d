#include "src/storage/manifest.h"

#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <utility>

#include "src/storage/format.h"

namespace seqdl {
namespace storage {

namespace {

constexpr char kManifestMagic[8] = {'S', 'D', 'L', 'M', 'A', 'N', '1', '\n'};

}  // namespace

std::string ManifestFileName(uint64_t generation) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "MANIFEST-%06" PRIu64, generation);
  return buf;
}

Status WriteManifest(const std::string& dir, const Manifest& m) {
  std::string out;
  out.append(kManifestMagic, sizeof(kManifestMagic));
  PutVarint(&out, m.generation);
  PutVarint(&out, m.epoch);
  PutVarint(&out, m.shrink_floor);
  PutVarint(&out, m.next_file_id);
  PutLenBytes(&out, m.wal_file);
  PutVarint(&out, m.segments.size());
  for (const ManifestSegment& seg : m.segments) {
    PutLenBytes(&out, seg.file);
    PutU8(&out, static_cast<uint8_t>(seg.kind));
    PutVarint(&out, seg.stamp);
    PutVarint(&out, seg.facts);
    PutVarint(&out, seg.bytes);
  }
  PutU32(&out, Crc32(out.data(), out.size()));
  return WriteFileDurable(dir + "/" + ManifestFileName(m.generation), out);
}

Status PublishCurrent(const std::string& dir, uint64_t generation) {
  return WriteFileDurable(dir + "/CURRENT", ManifestFileName(generation) + "\n");
}

Result<Manifest> ReadCurrent(const std::string& dir) {
  Result<std::string> current = ReadFileBytes(dir + "/CURRENT");
  if (!current.ok()) return current.status();  // kNotFound: fresh directory
  std::string name = std::move(current).value();
  while (!name.empty() && (name.back() == '\n' || name.back() == '\r')) {
    name.pop_back();
  }
  if (name.empty() || name.find('/') != std::string::npos) {
    return StorageError(kSdManifestCorrupt,
                        dir + "/CURRENT: malformed manifest name");
  }
  return ReadManifest(dir + "/" + name);
}

Result<Manifest> ReadManifest(const std::string& path) {
  Result<std::string> contents = ReadFileBytes(path);
  if (!contents.ok()) {
    if (contents.status().code() == StatusCode::kNotFound) {
      return StorageError(kSdManifestCorrupt,
                          path + ": CURRENT names a missing manifest");
    }
    return contents.status();
  }
  const std::string& data = *contents;
  if (data.size() < sizeof(kManifestMagic) + 4 ||
      std::memcmp(data.data(), kManifestMagic, sizeof(kManifestMagic)) != 0) {
    return StorageError(kSdManifestCorrupt, path + ": not a seqdl manifest");
  }
  {
    RecordReader crc_reader(std::string_view(data).substr(data.size() - 4),
                            kSdManifestCorrupt);
    SEQDL_ASSIGN_OR_RETURN(uint32_t stored, crc_reader.U32());
    if (stored != Crc32(data.data(), data.size() - 4)) {
      return StorageError(kSdManifestCorrupt, path + ": CRC mismatch");
    }
  }

  RecordReader r(std::string_view(data).substr(sizeof(kManifestMagic),
                                               data.size() -
                                                   sizeof(kManifestMagic) - 4),
                 kSdManifestCorrupt);
  Manifest m;
  SEQDL_ASSIGN_OR_RETURN(m.generation, r.Varint());
  SEQDL_ASSIGN_OR_RETURN(m.epoch, r.Varint());
  SEQDL_ASSIGN_OR_RETURN(m.shrink_floor, r.Varint());
  SEQDL_ASSIGN_OR_RETURN(m.next_file_id, r.Varint());
  SEQDL_ASSIGN_OR_RETURN(std::string_view wal, r.LenBytes());
  m.wal_file = std::string(wal);
  SEQDL_ASSIGN_OR_RETURN(uint64_t nsegs, r.Varint());
  if (nsegs > r.remaining()) {
    return StorageError(kSdManifestCorrupt,
                        path + ": segment table larger than the file");
  }
  m.segments.reserve(nsegs);
  for (uint64_t i = 0; i < nsegs; ++i) {
    ManifestSegment seg;
    SEQDL_ASSIGN_OR_RETURN(std::string_view file, r.LenBytes());
    seg.file = std::string(file);
    SEQDL_ASSIGN_OR_RETURN(uint8_t kind, r.U8());
    if (kind > static_cast<uint8_t>(SegmentKind::kTombstones)) {
      return StorageError(kSdManifestCorrupt,
                          path + ": unknown segment kind");
    }
    seg.kind = static_cast<SegmentKind>(kind);
    SEQDL_ASSIGN_OR_RETURN(seg.stamp, r.Varint());
    SEQDL_ASSIGN_OR_RETURN(seg.facts, r.Varint());
    SEQDL_ASSIGN_OR_RETURN(seg.bytes, r.Varint());
    if (seg.file.empty() || seg.file.find('/') != std::string::npos) {
      return StorageError(kSdManifestCorrupt,
                          path + ": malformed segment file name");
    }
    m.segments.push_back(std::move(seg));
  }
  if (!r.AtEnd()) {
    return StorageError(kSdManifestCorrupt, path + ": trailing bytes");
  }
  return m;
}

}  // namespace storage
}  // namespace seqdl
