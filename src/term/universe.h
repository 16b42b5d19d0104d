// Universe: the owning context for all interned symbols of a seqdl session —
// atomic values, paths (hash-consed), variables, and relation names. Every
// seqdl component takes a Universe& explicitly; there is no global state.
//
// Thread safety: all interning and lookup methods may be called from any
// number of threads concurrently (parallel PreparedProgram::Run / Session
// runs intern paths while evaluating). The path store is sharded, and each
// path is stored once: its values sit in its shard's append-only arena of
// fixed-size chunks, which never move and are never freed before the
// Universe. A per-id ref (data, size, hash) lives in append-only block
// storage published with release stores, so GetPath never takes a lock and
// its spans stay valid for the Universe's lifetime. Each shard's
// open-addressing table of ids, whose hash and equality read the refs and
// the arena, is guarded by the shard's mutex; a lookup hashes the caller's
// span and allocates nothing. The (much colder) atom/variable/relation
// tables are guarded by one shared_mutex each: lookups, and atom and
// relation interning that finds the name, take the shared lock; only an
// insertion takes the exclusive one. They hand out references into
// std::deque storage, which never relocates elements. Formatting takes the
// atom table's shared lock once per AppendAtom/AppendPath/AppendPaths call
// and calls no locking accessor while it holds it: a second shared lock on
// the same thread can block behind a waiting writer.
//
// The path store never shrinks: an interned path stays for the Universe's
// lifetime. That is why the engine interns only what escapes a match (the
// bindings of completed matches, evaluated head and key values) and never
// a candidate split it is still testing (see src/engine/match.h).
#ifndef SEQDL_TERM_UNIVERSE_H_
#define SEQDL_TERM_UNIVERSE_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "src/base/status.h"
#include "src/term/value.h"

namespace seqdl {

/// Identifier of a variable (atomic @x or path $x).
using VarId = uint32_t;

/// Identifier of a relation name.
using RelId = uint32_t;

/// The two kinds of variables of Sequence Datalog (paper §2.2): atomic
/// variables range over atomic values, path variables over paths.
enum class VarKind : uint8_t { kAtomic, kPath };

/// True iff byte `c`, followed by byte `next`, belongs to an identifier of
/// the surface syntax (src/syntax/lexer.h): an ASCII letter, digit or '_',
/// or any byte >= 0x80 except the interpunct's lead byte (0xC2 followed by
/// 0xB7). The lexer scans identifiers with it, and AppendAtom decides from
/// it which atom names need quotes.
constexpr bool IsIdentByte(unsigned char c, unsigned char next) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
         (c >= '0' && c <= '9') || c == '_' ||
         (c >= 0x80 && !(c == 0xC2 && next == 0xB7));
}

/// Owning symbol context. Interns atoms, paths, variables and relation
/// names, and generates fresh names for program transformations. Safe for
/// concurrent use from multiple threads (see file comment).
class Universe {
 public:
  Universe();
  ~Universe();

  Universe(const Universe&) = delete;
  Universe& operator=(const Universe&) = delete;

  // --- Atoms -------------------------------------------------------------

  /// Interns an atomic value by name; idempotent.
  AtomId InternAtom(std::string_view name);
  /// The printed name of an atom (stable reference; deque storage).
  const std::string& AtomName(AtomId id) const;
  /// A fresh atom whose name starts with `hint` and collides with nothing
  /// interned so far.
  AtomId FreshAtom(std::string_view hint);
  size_t num_atoms() const;

  // --- Paths (hash-consed) ----------------------------------------------

  /// Interns the path consisting of `values`; returns its id. The empty
  /// span maps to kEmptyPath. Thread-safe; equal contents always intern to
  /// the same id regardless of which thread got there first.
  PathId InternPath(std::span<const Value> values);
  /// The values of an interned path. Lock-free: resolves through the
  /// shard's published block storage; the returned span stays valid for
  /// the Universe's lifetime (interned paths are immutable).
  std::span<const Value> GetPath(PathId id) const;
  size_t PathLength(PathId id) const { return GetPath(id).size(); }
  size_t num_paths() const;

  /// Concatenation p1 · p2.
  PathId Concat(PathId p1, PathId p2);
  /// p · v.
  PathId Append(PathId p, Value v);
  /// The contiguous subpath [start, start+len).
  PathId SubPath(PathId p, size_t start, size_t len);
  /// A one-value path.
  PathId SingletonPath(Value v);

  /// True iff the path contains no packed value at any nesting depth.
  bool IsFlatPath(PathId p) const;

  /// All contiguous subpaths of p, including the empty path and p itself.
  std::vector<PathId> AllSubPaths(PathId p);

  // --- Formatting ---------------------------------------------------------

  /// Appends an atom's text to `*out`: its name, in double quotes when the
  /// name would not lex back as one identifier token (it is empty, holds a
  /// byte IsIdentByte rejects or an interpunct, or is the keyword 'not' or
  /// 'eps'). That is decided once, when the atom is interned. A name
  /// holding '"' has no text that parses back; the parser never makes one.
  void AppendAtom(AtomId id, std::string* out) const;
  /// Appends a path's canonical text to `*out`: atom texts (AppendAtom)
  /// separated by interpuncts, "()" for the empty path, "<...>" around
  /// packed values at any depth (walked without recursion, so no nesting
  /// depth overflows the stack). Takes the atom table's shared lock once.
  void AppendPath(PathId p, std::string* out) const;
  /// Appends the canonical text of each of `paths`, separated by `sep`,
  /// under one shared lock of the atom table (a renderer's lock per
  /// fact, however many columns it has).
  void AppendPaths(std::span<const PathId> paths, std::string_view sep,
                   std::string* out) const;
  /// The canonical text of a path (see AppendPath).
  std::string FormatPath(PathId p) const;

  // --- Variables ----------------------------------------------------------

  /// Interns a variable by kind + name; idempotent per (kind, name).
  VarId InternVar(VarKind kind, std::string_view name);
  VarKind VarKindOf(VarId id) const;
  const std::string& VarName(VarId id) const;
  /// Fresh variable of the given kind; name derived from `hint`.
  VarId FreshVar(VarKind kind, std::string_view hint);
  size_t num_vars() const;

  // --- Relation names -----------------------------------------------------

  /// Interns a relation name with the given arity. Re-interning with the
  /// same arity returns the existing id; a different arity is an error.
  Result<RelId> InternRel(std::string_view name, uint32_t arity);
  /// Looks up a relation by name.
  Result<RelId> FindRel(std::string_view name) const;
  const std::string& RelName(RelId id) const;
  /// The text renderings write for a relation: its name, in double quotes
  /// when the name would not lex back as one identifier (AppendAtom's
  /// rule). Decided once, when the relation is interned.
  const std::string& RelText(RelId id) const;
  uint32_t RelArity(RelId id) const;
  /// Fresh relation name with the given arity, derived from `hint`.
  RelId FreshRel(std::string_view hint, uint32_t arity);
  size_t num_rels() const;

  // --- Convenience constructors (mostly for tests and examples) -----------

  /// Path of single-character atoms, e.g. "aab" -> a·a·b.
  PathId PathOfChars(std::string_view chars);
  /// Path of whitespace-separated atoms, e.g. "open pay close".
  PathId PathOfWords(std::string_view words);

 private:
  // --- Sharded hash-consed path store -------------------------------------
  //
  // A PathId encodes (shard, per-shard index): the low kPathShardBits bits
  // select the shard (chosen by contents hash, so equal paths always land
  // in the same shard), the remaining bits are the append-only index into
  // that shard's refs. Refs live in a sequence of geometrically growing
  // blocks (block b holds 1024 << b refs); blocks are never moved or freed
  // until destruction, and block pointers are published with release
  // stores, so GetPath resolves ids with two loads and no lock. kEmptyPath
  // (id 0 = shard 0, index 0) is pre-registered at construction and is in
  // no table.
  static constexpr uint32_t kPathShardBits = 4;
  static constexpr uint32_t kPathShards = 1u << kPathShardBits;
  static constexpr uint32_t kPathFirstBlockBits = 10;
  /// Enough blocks that kMaxPathsPerShard is the binding limit: blocks
  /// 0..17 hold 1024 * (2^18 - 1) > 2^27 entries.
  static constexpr uint32_t kPathMaxBlocks = 18;
  /// PathIds must fit Value's 31-bit payload: per-shard index < 2^27.
  static constexpr uint32_t kMaxPathsPerShard = 1u << 27;
  /// Values per arena chunk (16 KiB). A path longer than a quarter chunk
  /// gets a chunk of its own, sized to it, so a chunk left behind by
  /// one that did not fit wastes less than a quarter of its room.
  static constexpr size_t kPathChunkValues = 4096;
  /// Initial slots of a shard's id table; it doubles whenever an insert
  /// would fill more than half of it.
  static constexpr uint32_t kPathFirstTableSlots = 64;

  /// An interned path: its values in the arena, and the high 32 bits of
  /// its contents hash (the low bits chose the shard), which the id table
  /// probes with and rehashes from.
  struct PathRef {
    const Value* data;
    uint32_t size;
    uint32_t hash;
  };
  struct PathShard {
    std::mutex mu;
    /// Open-addressing (linear probing) table of per-shard index + 1;
    /// 0 marks an empty slot. Its size is a power of two. Guarded by mu.
    std::vector<uint32_t> table = std::vector<uint32_t>(kPathFirstTableSlots);
    /// The arena: every chunk ever allocated, and the room left in the
    /// newest shared one. Guarded by mu.
    std::vector<std::unique_ptr<Value[]>> chunks;
    Value* chunk_next = nullptr;
    size_t chunk_room = 0;
    /// Number of paths stored; guarded by mu.
    uint32_t size = 0;
    /// size, republished for lock-free num_paths().
    std::atomic<uint32_t> published_size{0};
    /// blocks[b] holds 1024 << b refs (release-published).
    std::array<std::atomic<PathRef*>, kPathMaxBlocks> blocks{};

    ~PathShard();
    /// The ref of an index below size; the caller holds mu.
    const PathRef& RefLocked(uint32_t local) const;
    /// Copies `values` into the arena; returns their stable address. The
    /// caller holds mu.
    const Value* Store(std::span<const Value> values);
    /// Doubles the id table, re-placing every id by its stored hash. The
    /// caller holds mu.
    void GrowTable();
  };

  static size_t PathHash(std::span<const Value> values);
  static uint32_t PathBlockOf(uint32_t local);
  static uint32_t PathOffsetOf(uint32_t local, uint32_t block);
  static uint32_t PathBlockCapacity(uint32_t block);

  // Unlocked variants; the caller holds the corresponding mutex.
  AtomId InternAtomLocked(std::string_view name);
  void AppendAtomLocked(AtomId id, std::string* out) const;
  void AppendPathLocked(PathId p, std::string* out) const;
  /// AppendPathLocked from p's value i on, a packed one: the walk through
  /// nested packs, kept apart so a flat path's loop stays minimal.
  void AppendPacksLocked(PathId p, size_t i, std::string* out) const;
  VarId InternVarLocked(VarKind kind, std::string_view name);
  Result<RelId> InternRelLocked(std::string_view name, uint32_t arity);

  /// Name -> id, keyed by views of the names in the deque storage, so a
  /// lookup takes a std::string_view and copies no string.
  using NameIds = std::unordered_map<std::string_view, uint32_t>;

  std::string UniqueName(std::string_view hint, const NameIds& used,
                         uint32_t* counter);

  std::unique_ptr<PathShard[]> path_shards_;

  mutable std::shared_mutex atom_mu_;
  std::deque<std::string> atom_names_;
  /// The text of each atom that renders in quotes: "name".
  std::deque<std::string> quoted_atom_texts_;
  /// Per atom: its text (see AppendAtom), a view of its name or of its
  /// quoted text. Read only under atom_mu_, so unlike the names it may
  /// relocate.
  std::vector<std::string_view> atom_texts_;
  NameIds atom_ids_;
  uint32_t fresh_atom_counter_ = 0;

  mutable std::shared_mutex var_mu_;
  std::deque<std::string> var_names_;
  std::deque<VarKind> var_kinds_;
  std::unordered_map<std::string, VarId> var_ids_;  // key: sigil + name
  uint32_t fresh_var_counter_ = 0;

  mutable std::shared_mutex rel_mu_;
  std::deque<std::string> rel_names_;
  /// Per relation: its text (see RelText).
  std::deque<std::string> rel_texts_;
  std::deque<uint32_t> rel_arities_;
  NameIds rel_ids_;
  uint32_t fresh_rel_counter_ = 0;
};

}  // namespace seqdl

#endif  // SEQDL_TERM_UNIVERSE_H_
