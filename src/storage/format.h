// On-disk encoding primitives for the storage engine: CRC32 framing, the
// record reader over base/bytes.h's codec, the *instance block* (a
// symbolic, Universe-independent serialization of an Instance), and the
// sealed segment file format.
//
// Everything on disk is symbolic. PathIds, AtomIds and RelIds are
// Universe-relative — two processes interning the same data in different
// orders assign different ids — so a segment stores atom *names* (one
// arena-packed blob plus a length table), a path table in topological
// order (a packed value may only reference an earlier table entry), and
// per-relation tuple tables of path-table offsets. Decoding re-interns
// through the target Universe: equal contents load to equal ids no
// matter which process wrote the file.
//
// Segment file layout (all integers little-endian; varint = LEB128):
//
//   magic   "SDLSEG1\n"                     8 bytes
//   kind    u8 (SegmentKind: 0 facts, 1 tombstones)
//   facts   u64 (fact count, validated against the decoded block)
//   len     u64 (instance block length in bytes)
//   block   instance block (see EncodeInstanceBlock)
//   crc     u32 CRC32 of everything above
//
// Instance block layout:
//
//   atom_count:varint  arena_len:varint  arena:bytes
//   atom_count x name_len:varint              (arena-packed names)
//   path_count:varint                         (excludes the empty path)
//   path_count x { nvalues:varint, nvalues x value:varint }
//     value encoding: atom      -> local_atom_index << 1
//                     packed<p> -> (local_path_index << 1) | 1
//     where local_path_index 0 is the implicit empty path and every
//     reference points at an *earlier* table entry (topological order).
//   rel_count:varint
//   rel_count x { name_len:varint, name:bytes, arity:varint,
//                 tuple_count:varint,
//                 tuple_count x arity x local_path_index:varint }
//
// Sealed files are immutable: they are written once to a temp name,
// fsynced, renamed into place, and never modified. Readers memory-map
// them and decode in place. Writers in this file return Status with a
// stable "[SD4xx]" diagnostic code appended to the message (see
// analysis/diagnostics.h for the catalog).
#ifndef SEQDL_STORAGE_FORMAT_H_
#define SEQDL_STORAGE_FORMAT_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "src/base/bytes.h"
#include "src/base/status.h"
#include "src/engine/index.h"
#include "src/engine/instance.h"
#include "src/term/universe.h"

namespace seqdl {
namespace storage {

// --- Diagnostics ------------------------------------------------------------

/// Stable SD-codes of the storage layer (catalog: analysis/diagnostics.h).
inline constexpr const char* kSdStorageIo = "SD401";
inline constexpr const char* kSdWalCorrupt = "SD402";
inline constexpr const char* kSdManifestCorrupt = "SD403";
inline constexpr const char* kSdSegmentCorrupt = "SD404";
inline constexpr const char* kSdDataDirConflict = "SD405";

/// kIoError carrying a stable diagnostic code: "msg [SDxxx]". The
/// structured-diagnostics layer (DiagnosticFromStatus) recovers the code
/// so CLI and server log render storage failures like analyzer findings.
Status StorageError(const char* sd_code, std::string msg);
/// As above with ": strerror(errno)" appended (call right after the
/// failing syscall).
Status StorageErrnoError(const char* sd_code, std::string msg);

// --- Records -----------------------------------------------------------------

uint32_t Crc32(const void* data, size_t n, uint32_t seed = 0);

/// The byte reader (base/bytes.h) over a storage record: a mapped file or
/// a loaded WAL record. A truncated or malformed record fails with a
/// kIoError carrying `sd_code` (StorageError).
class RecordReader final : public ByteReader {
 public:
  RecordReader(std::string_view data, const char* sd_code)
      : ByteReader(data), sd_code_(sd_code) {}

 private:
  Status Truncated(const char* what) const override;
  Status Overlong() const override;

  const char* sd_code_;
};

// --- Instance blocks --------------------------------------------------------

/// Appends the symbolic encoding of `inst` to `out`. Deterministic:
/// relations in RelId order are re-sorted by name, tuples sorted by
/// their encoded offsets, so equal instances produce equal bytes within
/// one Universe (byte-stability across processes additionally needs the
/// same insertion order, which the WAL replay path guarantees).
void EncodeInstanceBlock(const Universe& u, const Instance& inst,
                         std::string* out);

/// Decodes one instance block, re-interning every atom, path and
/// relation through `u`. `sd_code` names the failure domain for error
/// statuses (segment vs WAL corruption).
Result<Instance> DecodeInstanceBlock(Universe& u, ByteReader& r,
                                     const char* sd_code);

// --- Sealed segment files ---------------------------------------------------

struct LoadedSegment {
  Instance facts;
  SegmentKind kind = SegmentKind::kFacts;
};

/// Serializes (inst, kind) to `path` durably: temp file, fsync, rename,
/// fsync of the containing directory. Returns the file size in bytes.
Result<uint64_t> WriteSegmentFile(const std::string& path, const Universe& u,
                                  const Instance& inst, SegmentKind kind);

/// Memory-maps and decodes a sealed segment file, validating magic,
/// CRC and fact count. The mapping only lives for the duration of the
/// decode — the returned Instance owns its (re-interned) data.
Result<LoadedSegment> ReadSegmentFile(const std::string& path, Universe& u);

// --- Files and directories --------------------------------------------------

/// Read-only mmap of a whole file; unmapped on destruction. Move-only.
class MappedFile {
 public:
  static Result<MappedFile> Open(const std::string& path);

  MappedFile(MappedFile&& other) noexcept;
  MappedFile& operator=(MappedFile&& other) noexcept;
  MappedFile(const MappedFile&) = delete;
  MappedFile& operator=(const MappedFile&) = delete;
  ~MappedFile();

  std::string_view data() const {
    return std::string_view(static_cast<const char*>(addr_), size_);
  }

 private:
  MappedFile(void* addr, size_t size) : addr_(addr), size_(size) {}
  void* addr_ = nullptr;
  size_t size_ = 0;
};

/// Reads a whole file into a string. kNotFound if it does not exist.
Result<std::string> ReadFileBytes(const std::string& path);

/// Writes `contents` durably: "<path>.tmp", fsync, rename to `path`,
/// fsync of the parent directory. The publish point is the rename.
Status WriteFileDurable(const std::string& path, std::string_view contents);

/// fsync on the directory itself (required after create/rename/unlink
/// for the entry to survive a power cut; a no-op on filesystems that
/// do not support it).
Status SyncDir(const std::string& dir);

/// mkdir -p for one level; ok if the directory already exists.
Status EnsureDir(const std::string& dir);

Result<bool> FileExists(const std::string& path);
Result<uint64_t> FileSize(const std::string& path);
Status RemoveFile(const std::string& path);
/// Plain entry names (no dot entries), unsorted.
Result<std::vector<std::string>> ListDir(const std::string& dir);

}  // namespace storage
}  // namespace seqdl

#endif  // SEQDL_STORAGE_FORMAT_H_
