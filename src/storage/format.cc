#include "src/storage/format.h"

#include <dirent.h>
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <cstring>
#include <numeric>
#include <span>
#include <unordered_map>
#include <utility>

namespace seqdl {
namespace storage {

namespace {

constexpr char kSegmentMagic[8] = {'S', 'D', 'L', 'S', 'E', 'G', '1', '\n'};
/// Fixed-size prefix of a segment file: magic, kind, fact count, block
/// length. The CRC footer adds 4 more bytes.
constexpr size_t kSegmentHeaderBytes = 8 + 1 + 8 + 8;

std::string ErrnoSuffix() {
  return std::string(": ") + std::strerror(errno);
}

}  // namespace

Status StorageError(const char* sd_code, std::string msg) {
  msg += " [";
  msg += sd_code;
  msg += "]";
  return Status::IoError(std::move(msg));
}

Status StorageErrnoError(const char* sd_code, std::string msg) {
  msg += ErrnoSuffix();
  return StorageError(sd_code, std::move(msg));
}

// --- CRC32 (reflected, polynomial 0xEDB88320; matches zlib's crc32) ---------

namespace {

std::array<uint32_t, 256> BuildCrcTable() {
  std::array<uint32_t, 256> table{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1) != 0 ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    table[i] = c;
  }
  return table;
}

}  // namespace

uint32_t Crc32(const void* data, size_t n, uint32_t seed) {
  static const std::array<uint32_t, 256> kTable = BuildCrcTable();
  const auto* p = static_cast<const unsigned char*>(data);
  uint32_t c = seed ^ 0xFFFFFFFFu;
  for (size_t i = 0; i < n; ++i) {
    c = kTable[(c ^ p[i]) & 0xFFu] ^ (c >> 8);
  }
  return c ^ 0xFFFFFFFFu;
}

// --- Records -----------------------------------------------------------------

Status RecordReader::Truncated(const char* what) const {
  return StorageError(sd_code_, std::string("truncated record: expected ") +
                                    what + " at offset " +
                                    std::to_string(pos()));
}

Status RecordReader::Overlong() const {
  return StorageError(sd_code_, "malformed varint (over 64 bits) at offset " +
                                    std::to_string(pos()));
}

// --- Instance blocks --------------------------------------------------------

namespace {

/// Builds the symbolic tables of one block: atoms by first use, paths in
/// topological order (sub-paths of packed values first).
class BlockEncoder {
 public:
  explicit BlockEncoder(const Universe& u) : u_(u) {}

  uint64_t EnsureAtom(AtomId a) {
    auto [it, fresh] = atom_idx_.try_emplace(a, atom_idx_.size());
    if (fresh) {
      const std::string& name = u_.AtomName(a);
      arena_.append(name);
      atom_lens_.push_back(name.size());
    }
    return it->second;
  }

  /// Local path-table index of `p`; 0 is the implicit empty path.
  /// Registers every packed sub-path not yet in the table before the
  /// path that references it (topological order), children in value
  /// order, and atoms in the order the walk meets them. The walk keeps
  /// its own stack, one frame per pack level, so nesting depth is not
  /// bounded by the thread's stack.
  uint64_t EnsurePath(PathId p) {
    auto it = path_idx_.find(p);
    if (it != path_idx_.end()) return it->second;
    size_t depth = 0;
    // Opens a frame for `q` on top, reusing the one (and its buffer) an
    // earlier walk left at that depth.
    auto descend = [&](PathId q) {
      if (depth == stack_.size()) stack_.emplace_back();
      Frame& f = stack_[depth++];
      f.path = q;
      f.values = u_.GetPath(q);
      f.next = 0;
      f.encoded.clear();
      PutVarint(&f.encoded, f.values.size());
    };
    descend(p);
    while (true) {
      Frame& f = stack_[depth - 1];
      if (f.next < f.values.size()) {
        Value v = f.values[f.next];
        if (v.is_atom()) {
          PutVarint(&f.encoded, EnsureAtom(v.atom()) << 1);
        } else if (auto sub = path_idx_.find(v.packed_path());
                   sub != path_idx_.end()) {
          PutVarint(&f.encoded, (sub->second << 1) | 1);
        } else {
          // Descend; the reference is written once the sub-path has its
          // index (`f` dangles if the stack grows).
          descend(v.packed_path());
          continue;
        }
        ++f.next;
        continue;
      }
      uint64_t idx = 1 + path_count_;  // 0 is the empty path
      path_idx_.emplace(f.path, idx);
      ++path_count_;
      paths_buf_.append(f.encoded);
      if (--depth == 0) return idx;
      Frame& parent = stack_[depth - 1];
      PutVarint(&parent.encoded, (idx << 1) | 1);
      ++parent.next;
    }
  }

  void Finish(const Instance& inst, std::string* out) {
    // Relations sorted by name so equal instances encode to equal bytes
    // regardless of RelId assignment order.
    std::vector<RelId> rels = inst.Relations();
    std::sort(rels.begin(), rels.end(), [this](RelId a, RelId b) {
      return u_.RelName(a) < u_.RelName(b);
    });

    // Encode tuples (registering their paths) before emitting the
    // tables: the atom/path sections precede the relation section.
    std::string rel_buf;
    PutVarint(&rel_buf, rels.size());
    for (RelId rel : rels) {
      const TupleSet& tuples = inst.Tuples(rel);
      const size_t arity = u_.RelArity(rel);
      // The rows' path-table indexes, flat like the table's own rows,
      // written in sorted row order.
      std::vector<uint64_t> encoded;
      encoded.reserve(tuples.size() * arity);
      for (TupleRef t : tuples) {
        for (PathId p : t) {
          encoded.push_back(p == kEmptyPath ? 0 : EnsurePath(p));
        }
      }
      auto row = [&](size_t i) {
        return std::span<const uint64_t>(encoded.data() + i * arity, arity);
      };
      std::vector<size_t> order(tuples.size());
      std::iota(order.begin(), order.end(), size_t{0});
      std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
        return std::ranges::lexicographical_compare(row(a), row(b));
      });
      PutLenBytes(&rel_buf, u_.RelName(rel));
      PutVarint(&rel_buf, arity);
      PutVarint(&rel_buf, order.size());
      for (size_t i : order) {
        for (uint64_t idx : row(i)) PutVarint(&rel_buf, idx);
      }
    }

    PutVarint(out, atom_lens_.size());
    PutLenBytes(out, arena_);
    for (uint64_t len : atom_lens_) PutVarint(out, len);
    PutVarint(out, path_count_);
    out->append(paths_buf_);
    out->append(rel_buf);
  }

 private:
  /// One pack level of EnsurePath's walk.
  struct Frame {
    PathId path;
    std::span<const Value> values;
    size_t next = 0;  // the first value not yet encoded
    std::string encoded;
  };

  const Universe& u_;
  std::unordered_map<AtomId, uint64_t> atom_idx_;
  std::unordered_map<PathId, uint64_t> path_idx_;
  std::string arena_;
  std::vector<uint64_t> atom_lens_;
  std::string paths_buf_;
  uint64_t path_count_ = 0;
  std::vector<Frame> stack_;  // EnsurePath's frames, kept between walks
};

}  // namespace

void EncodeInstanceBlock(const Universe& u, const Instance& inst,
                         std::string* out) {
  BlockEncoder enc(u);
  enc.Finish(inst, out);
}

Result<Instance> DecodeInstanceBlock(Universe& u, ByteReader& r,
                                     const char* sd_code) {
  // Atom table: arena blob + per-name lengths, re-interned through `u`.
  SEQDL_ASSIGN_OR_RETURN(uint64_t atom_count, r.Varint());
  SEQDL_ASSIGN_OR_RETURN(std::string_view arena, r.LenBytes());
  if (atom_count > arena.size() + 1) {
    return StorageError(sd_code, "atom table larger than its arena");
  }
  std::vector<AtomId> atoms;
  atoms.reserve(atom_count);
  size_t arena_pos = 0;
  for (uint64_t i = 0; i < atom_count; ++i) {
    SEQDL_ASSIGN_OR_RETURN(uint64_t len, r.Varint());
    if (len > arena.size() - arena_pos) {
      return StorageError(sd_code, "atom name overruns the arena");
    }
    atoms.push_back(u.InternAtom(arena.substr(arena_pos, len)));
    arena_pos += len;
  }
  if (arena_pos != arena.size()) {
    return StorageError(sd_code, "atom arena has trailing bytes");
  }

  // Path table, topological: every packed reference points backwards.
  SEQDL_ASSIGN_OR_RETURN(uint64_t path_count, r.Varint());
  if (path_count > r.remaining()) {
    return StorageError(sd_code, "path table larger than the block");
  }
  std::vector<PathId> paths;
  paths.reserve(path_count + 1);
  paths.push_back(kEmptyPath);
  std::vector<Value> values;
  for (uint64_t i = 0; i < path_count; ++i) {
    SEQDL_ASSIGN_OR_RETURN(uint64_t nvalues, r.Varint());
    if (nvalues > r.remaining()) {
      return StorageError(sd_code, "path longer than the block");
    }
    values.clear();
    values.reserve(nvalues);
    for (uint64_t k = 0; k < nvalues; ++k) {
      SEQDL_ASSIGN_OR_RETURN(uint64_t code, r.Varint());
      uint64_t idx = code >> 1;
      if ((code & 1) == 0) {
        if (idx >= atoms.size()) {
          return StorageError(sd_code, "atom reference out of range");
        }
        values.push_back(Value::Atom(atoms[idx]));
      } else {
        if (idx >= paths.size()) {
          return StorageError(sd_code,
                              "packed path reference not topological");
        }
        values.push_back(Value::Packed(paths[idx]));
      }
    }
    paths.push_back(u.InternPath(values));
  }

  // Relations: name + arity re-interned, tuples as path-table offsets.
  SEQDL_ASSIGN_OR_RETURN(uint64_t rel_count, r.Varint());
  if (rel_count > r.remaining() + 1) {
    return StorageError(sd_code, "relation table larger than the block");
  }
  Instance out;
  for (uint64_t i = 0; i < rel_count; ++i) {
    SEQDL_ASSIGN_OR_RETURN(std::string_view name, r.LenBytes());
    SEQDL_ASSIGN_OR_RETURN(uint64_t arity, r.Varint());
    if (arity > 1u << 16) {
      return StorageError(sd_code, "implausible relation arity");
    }
    Result<RelId> rel = u.InternRel(name, static_cast<uint32_t>(arity));
    if (!rel.ok()) {
      // Arity clash with an already-interned relation: surface as
      // corruption of the file, not as the Universe's error.
      return StorageError(sd_code, "relation '" + std::string(name) +
                                       "': " + rel.status().message());
    }
    SEQDL_ASSIGN_OR_RETURN(uint64_t tuple_count, r.Varint());
    if (arity > 0 && tuple_count > r.remaining()) {
      return StorageError(sd_code, "tuple table larger than the block");
    }
    Tuple tuple;
    tuple.reserve(arity);
    for (uint64_t t = 0; t < tuple_count; ++t) {
      tuple.clear();
      for (uint64_t c = 0; c < arity; ++c) {
        SEQDL_ASSIGN_OR_RETURN(uint64_t idx, r.Varint());
        if (idx >= paths.size()) {
          return StorageError(sd_code, "tuple path reference out of range");
        }
        tuple.push_back(paths[idx]);
      }
      out.Add(*rel, tuple);
    }
  }
  return out;
}

// --- Sealed segment files ---------------------------------------------------

Result<uint64_t> WriteSegmentFile(const std::string& path, const Universe& u,
                                  const Instance& inst, SegmentKind kind) {
  std::string block;
  EncodeInstanceBlock(u, inst, &block);

  std::string file;
  file.reserve(kSegmentHeaderBytes + block.size() + 4);
  file.append(kSegmentMagic, sizeof(kSegmentMagic));
  PutU8(&file, static_cast<uint8_t>(kind));
  PutU64(&file, inst.NumFacts());
  PutU64(&file, block.size());
  file.append(block);
  PutU32(&file, Crc32(file.data(), file.size()));

  SEQDL_RETURN_IF_ERROR(WriteFileDurable(path, file));
  return static_cast<uint64_t>(file.size());
}

Result<LoadedSegment> ReadSegmentFile(const std::string& path, Universe& u) {
  SEQDL_ASSIGN_OR_RETURN(MappedFile map, MappedFile::Open(path));
  std::string_view data = map.data();
  if (data.size() < kSegmentHeaderBytes + 4 ||
      std::memcmp(data.data(), kSegmentMagic, sizeof(kSegmentMagic)) != 0) {
    return StorageError(kSdSegmentCorrupt,
                        path + ": not a seqdl segment file");
  }
  uint32_t stored_crc =
      Crc32(data.data() + (data.size() - 4), 0);  // placeholder, replaced below
  {
    RecordReader crc_reader(data.substr(data.size() - 4), kSdSegmentCorrupt);
    SEQDL_ASSIGN_OR_RETURN(stored_crc, crc_reader.U32());
  }
  uint32_t actual_crc = Crc32(data.data(), data.size() - 4);
  if (stored_crc != actual_crc) {
    return StorageError(kSdSegmentCorrupt, path + ": CRC mismatch");
  }

  RecordReader r(data.substr(0, data.size() - 4), kSdSegmentCorrupt);
  SEQDL_ASSIGN_OR_RETURN(std::string_view magic, r.Bytes(8));
  (void)magic;
  SEQDL_ASSIGN_OR_RETURN(uint8_t kind_byte, r.U8());
  if (kind_byte > static_cast<uint8_t>(SegmentKind::kTombstones)) {
    return StorageError(kSdSegmentCorrupt, path + ": unknown segment kind");
  }
  SEQDL_ASSIGN_OR_RETURN(uint64_t fact_count, r.U64());
  SEQDL_ASSIGN_OR_RETURN(uint64_t block_len, r.U64());
  if (block_len != r.remaining()) {
    return StorageError(kSdSegmentCorrupt, path + ": block length mismatch");
  }
  SEQDL_ASSIGN_OR_RETURN(Instance facts,
                         DecodeInstanceBlock(u, r, kSdSegmentCorrupt));
  if (facts.NumFacts() != fact_count) {
    return StorageError(kSdSegmentCorrupt, path + ": fact count mismatch");
  }
  LoadedSegment seg;
  seg.facts = std::move(facts);
  seg.kind = static_cast<SegmentKind>(kind_byte);
  return seg;
}

// --- Files and directories --------------------------------------------------

Result<MappedFile> MappedFile::Open(const std::string& path) {
  int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) {
    return StorageErrnoError(kSdStorageIo, "open " + path);
  }
  struct stat st {};
  if (::fstat(fd, &st) != 0) {
    Status err = StorageErrnoError(kSdStorageIo, "stat " + path);
    ::close(fd);
    return err;
  }
  auto size = static_cast<size_t>(st.st_size);
  if (size == 0) {
    ::close(fd);
    // mmap rejects zero-length mappings; an empty segment file is
    // corrupt anyway (the header alone is 25 bytes).
    return StorageError(kSdSegmentCorrupt, path + ": empty file");
  }
  void* addr = ::mmap(nullptr, size, PROT_READ, MAP_PRIVATE, fd, 0);
  ::close(fd);
  if (addr == MAP_FAILED) {
    return StorageErrnoError(kSdStorageIo, "mmap " + path);
  }
  return MappedFile(addr, size);
}

MappedFile::MappedFile(MappedFile&& other) noexcept
    : addr_(other.addr_), size_(other.size_) {
  other.addr_ = nullptr;
  other.size_ = 0;
}

MappedFile& MappedFile::operator=(MappedFile&& other) noexcept {
  if (this != &other) {
    if (addr_ != nullptr) ::munmap(addr_, size_);
    addr_ = other.addr_;
    size_ = other.size_;
    other.addr_ = nullptr;
    other.size_ = 0;
  }
  return *this;
}

MappedFile::~MappedFile() {
  if (addr_ != nullptr) ::munmap(addr_, size_);
}

Result<std::string> ReadFileBytes(const std::string& path) {
  int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) {
    if (errno == ENOENT) {
      return Status::NotFound(path + ": no such file");
    }
    return StorageErrnoError(kSdStorageIo, "open " + path);
  }
  std::string out;
  char buf[1 << 16];
  for (;;) {
    ssize_t n = ::read(fd, buf, sizeof(buf));
    if (n < 0) {
      if (errno == EINTR) continue;
      Status err = StorageErrnoError(kSdStorageIo, "read " + path);
      ::close(fd);
      return err;
    }
    if (n == 0) break;
    out.append(buf, static_cast<size_t>(n));
  }
  ::close(fd);
  return out;
}

namespace {

std::string DirName(const std::string& path) {
  size_t slash = path.rfind('/');
  if (slash == std::string::npos) return ".";
  if (slash == 0) return "/";
  return path.substr(0, slash);
}

Status WriteAllAndSync(int fd, std::string_view contents,
                       const std::string& path) {
  size_t off = 0;
  while (off < contents.size()) {
    ssize_t n = ::write(fd, contents.data() + off, contents.size() - off);
    if (n < 0) {
      if (errno == EINTR) continue;
      return StorageErrnoError(kSdStorageIo, "write " + path);
    }
    off += static_cast<size_t>(n);
  }
  if (::fsync(fd) != 0) {
    return StorageErrnoError(kSdStorageIo, "fsync " + path);
  }
  return Status::OK();
}

}  // namespace

Status WriteFileDurable(const std::string& path, std::string_view contents) {
  std::string tmp = path + ".tmp";
  int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (fd < 0) {
    return StorageErrnoError(kSdStorageIo, "create " + tmp);
  }
  Status written = WriteAllAndSync(fd, contents, tmp);
  ::close(fd);
  if (!written.ok()) {
    ::unlink(tmp.c_str());
    return written;
  }
  if (::rename(tmp.c_str(), path.c_str()) != 0) {
    Status err = StorageErrnoError(kSdStorageIo,
                                   "rename " + tmp + " -> " + path);
    ::unlink(tmp.c_str());
    return err;
  }
  return SyncDir(DirName(path));
}

Status SyncDir(const std::string& dir) {
  int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (fd < 0) {
    return StorageErrnoError(kSdStorageIo, "open dir " + dir);
  }
  int rc = ::fsync(fd);
  ::close(fd);
  // Some filesystems refuse fsync on directories; the rename itself is
  // still ordered on everything we target, so treat EINVAL as success.
  if (rc != 0 && errno != EINVAL) {
    return StorageErrnoError(kSdStorageIo, "fsync dir " + dir);
  }
  return Status::OK();
}

Status EnsureDir(const std::string& dir) {
  if (::mkdir(dir.c_str(), 0755) == 0 || errno == EEXIST) {
    return Status::OK();
  }
  return StorageErrnoError(kSdStorageIo, "mkdir " + dir);
}

Result<bool> FileExists(const std::string& path) {
  struct stat st {};
  if (::stat(path.c_str(), &st) == 0) return true;
  if (errno == ENOENT) return false;
  return StorageErrnoError(kSdStorageIo, "stat " + path);
}

Result<uint64_t> FileSize(const std::string& path) {
  struct stat st {};
  if (::stat(path.c_str(), &st) != 0) {
    return StorageErrnoError(kSdStorageIo, "stat " + path);
  }
  return static_cast<uint64_t>(st.st_size);
}

Status RemoveFile(const std::string& path) {
  if (::unlink(path.c_str()) != 0 && errno != ENOENT) {
    return StorageErrnoError(kSdStorageIo, "unlink " + path);
  }
  return Status::OK();
}

Result<std::vector<std::string>> ListDir(const std::string& dir) {
  DIR* d = ::opendir(dir.c_str());
  if (d == nullptr) {
    return StorageErrnoError(kSdStorageIo, "opendir " + dir);
  }
  std::vector<std::string> out;
  while (struct dirent* e = ::readdir(d)) {
    std::string name = e->d_name;
    if (name == "." || name == "..") continue;
    out.push_back(std::move(name));
  }
  ::closedir(d);
  return out;
}

}  // namespace storage
}  // namespace seqdl
