// The manifest: the single source of truth for which files make up the
// database. A data directory contains:
//
//   CURRENT            name of the live MANIFEST-<gen> file
//   MANIFEST-<gen>     full snapshot of the live file set (immutable)
//   seg-<n>.sdlseg     sealed segment files (immutable)
//   wal-<gen>.log      the commit log for this generation
//
// Each checkpoint writes a complete new MANIFEST-<gen+1>, creates a
// fresh WAL for the generation, and then flips CURRENT with an atomic
// rename. A crash at any point leaves either the old or the new
// generation fully intact — CURRENT is the commit point. Files not
// referenced by the current manifest are orphans from a crash window
// and are deleted at the next Open.
//
// Manifest file layout (magic "SDLMAN1\n", then varints, u32 CRC of
// everything above at the end):
//
//   generation  epoch  shrink_floor  next_file_id
//   wal_file:len+bytes
//   segment_count x { file:len+bytes, kind:u8, stamp:varint,
//                     facts:varint, bytes:varint }
#ifndef SEQDL_STORAGE_MANIFEST_H_
#define SEQDL_STORAGE_MANIFEST_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/base/status.h"
#include "src/engine/index.h"

namespace seqdl {
namespace storage {

/// One sealed segment as named by the manifest, bottom-of-stack first.
struct ManifestSegment {
  std::string file;
  SegmentKind kind = SegmentKind::kFacts;
  /// The epoch stamp the in-memory stack records for this segment
  /// (Segment::stamp) — drives delta maintenance on reopen.
  uint64_t stamp = 0;
  uint64_t facts = 0;
  /// File size, so DbInfo can report on-disk bytes without stat calls.
  uint64_t bytes = 0;
};

struct Manifest {
  uint64_t generation = 0;
  /// Epoch as of the checkpoint; WAL replay advances past it.
  uint64_t epoch = 0;
  uint64_t shrink_floor = 0;
  /// Next unused id for seg-<n>.sdlseg naming.
  uint64_t next_file_id = 0;
  std::string wal_file;
  std::vector<ManifestSegment> segments;
};

/// "MANIFEST-000007" for generation 7.
std::string ManifestFileName(uint64_t generation);

/// Serializes `m` durably to `dir/ManifestFileName(m.generation)`.
Status WriteManifest(const std::string& dir, const Manifest& m);

/// Points CURRENT at generation `gen` (temp file + rename + dir fsync).
/// This is the commit point of a checkpoint.
Status PublishCurrent(const std::string& dir, uint64_t generation);

/// Loads the manifest CURRENT points at. kNotFound when the directory
/// has no CURRENT (a fresh, uninitialized directory).
Result<Manifest> ReadCurrent(const std::string& dir);

/// Loads and validates one manifest file.
Result<Manifest> ReadManifest(const std::string& path);

}  // namespace storage
}  // namespace seqdl

#endif  // SEQDL_STORAGE_MANIFEST_H_
