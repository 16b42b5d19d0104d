// The seqdl wire protocol: framed, length-prefixed request/response
// messages between a network client and a server fronting a versioned
// Database (database.h). Sequence Datalog programs are small texts while
// EDBs are large and long-lived, so every request ships text *to* the
// data: `run` carries the program source, `append` carries the facts, and
// the server keeps the indexed segment stack, the compiled-program cache,
// and the measured statistics.
//
// Framing
//
//   frame   := u32le payload_length | payload
//   payload := u8 msg_type | body
//
// All integers are little-endian and fixed width (the byte codec of
// base/bytes.h, shared with storage); strings are a u32 length followed
// by raw bytes; doubles travel as the IEEE-754 bit pattern in a u64. A
// frame whose declared length exceeds the receiver's limit
// (kDefaultMaxFrameBytes unless configured) is an *oversized frame*: the
// server answers with an error reply and closes the connection. A
// connection that ends mid-frame is a *truncated frame*
// (kInvalidArgument); a connection that ends cleanly between frames is
// reported as kNotFound by FrameReader so callers can tell orderly
// disconnect from corruption.
//
// Requests (client -> server)
//
//   type        body
//   kCompile    program:string  source_name:string
//   kRun        program:string  source_name:string  output_rel:string
//               flags:u8 (read and ignored)
//   kAppend     facts:string  source_name:string
//   kRetract    facts:string  source_name:string
//   kEpoch      (empty)
//   kCompact    (empty)
//   kStats      (empty)
//   kShutdown   (empty)
//   kHello      wire_version:u32
//
// kHello is the handshake: the reply carries the server's kWireVersion so
// a peer (the cluster coordinator, notably) can reject a mismatched
// server with a structured error instead of undefined frame decoding. A
// pre-handshake server answers kHello with kInvalidArgument ("unknown
// request type 9"), which callers should treat as a version mismatch too.
//
// Replies (server -> client) all share one shape:
//
//   kReply      orig_type:u8  status_code:u32  status_message:string
//               [body iff status is OK]
//
// with per-request bodies documented on the structs below. `source_name`
// names the text in error messages ("prog.sdl:3:7: expected ..."), which
// is how a client sees server-side parse errors pointing at *its* file —
// see AnnotateParseError.
#ifndef SEQDL_SERVER_PROTOCOL_H_
#define SEQDL_SERVER_PROTOCOL_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "src/base/status.h"

struct sockaddr_in;

namespace seqdl {

struct Diagnostic;  // analysis/diagnostics.h
struct EvalStats;   // engine/engine.h

namespace protocol {

/// Frames larger than this are rejected by default on both sides (a
/// guard against corrupt length prefixes allocating gigabytes, not a
/// semantic limit — ServerOptions/Client can raise it).
constexpr size_t kDefaultMaxFrameBytes = 64u << 20;

enum class MsgType : uint8_t {
  kCompile = 1,
  kRun = 2,
  kAppend = 3,
  kEpoch = 4,
  kCompact = 5,
  kStats = 6,
  kShutdown = 7,
  kRetract = 8,
  kHello = 9,
  kReply = 128,
};

/// Version of the frame/message encoding described above. Bumped on any
/// incompatible change; exchanged via kHello so mismatched peers fail
/// with a structured error instead of misdecoding each other's frames.
constexpr uint32_t kWireVersion = 2;

/// "compile" / "run" / ... for logs and errors.
const char* MsgTypeToString(MsgType type);

// --- Request bodies ---------------------------------------------------------

/// Parse + plan `program` and cache it server-side keyed by its text;
/// reports whether the cache already held it.
struct CompileRequest {
  std::string program;
  std::string source_name;  ///< client-side name for error messages
};

/// Evaluate `program` against an epoch-pinned snapshot of the server's
/// database. Compiles (or reuses the cached plan) as needed.
struct RunRequest {
  std::string program;
  std::string source_name;
  /// Project the derived facts onto this relation; empty = all derived.
  std::string output_rel;
  /// Ignored; perfbench/src/node.cc:105 still reads it (ROADMAP item 9).
  bool collect_derived_stats = true;
};

/// Ingest `facts` (instance syntax): publishes a new immutable segment
/// and bumps the epoch; in-flight runs keep their pinned snapshots.
struct AppendRequest {
  std::string facts;
  std::string source_name;
};

/// Retract `facts` (instance syntax): publishes an immutable *tombstone*
/// segment shadowing matching facts in all older segments and bumps the
/// epoch; in-flight runs keep their pinned snapshots. Facts not visible
/// at the retraction epoch are ignored (reported via `retracted`).
struct RetractRequest {
  std::string facts;
  std::string source_name;
};

/// Handshake: announces the sender's wire-format version.
struct HelloRequest {
  uint32_t wire_version = kWireVersion;
};

// --- Reply bodies -----------------------------------------------------------

/// epoch/segments/facts of the server database (kEpoch reply; embedded in
/// append/compact replies), plus the durability counters — all zero when
/// the server database is in-memory (no --data-dir).
struct DbInfo {
  uint64_t epoch = 0;
  uint64_t segments = 0;
  uint64_t facts = 0;
  /// Sealed segment files + manifest on disk (excludes the WAL).
  uint64_t on_disk_bytes = 0;
  uint64_t wal_bytes = 0;
  /// Manifest generation (bumps at every checkpoint; an automatic fold
  /// writes none); 0 for an in-memory database.
  uint64_t manifest_generation = 0;
};

/// The EvalStats counters that cross the wire (stats.h has the engine-side
/// struct; wall times travel as seconds).
struct WireEvalStats {
  uint64_t derived_facts = 0;
  uint64_t rounds = 0;
  uint64_t rule_firings = 0;
  uint64_t index_probes = 0;
  uint64_t prefix_probes = 0;
  uint64_t suffix_probes = 0;
  uint64_t full_scans = 0;
  uint64_t delta_scans = 0;
  double compile_seconds = 0;
  double run_seconds = 0;
};

/// One analyzer finding crossing the wire (analysis/diagnostics.h
/// Diagnostic, flattened: severity 0=error 1=warning 2=note; a line of 0
/// means "no source location").
struct WireDiagnostic {
  uint8_t severity = 0;
  std::string code;  ///< stable "SDxxx" code
  uint32_t line = 0;
  uint32_t col = 0;
  uint32_t end_line = 0;
  uint32_t end_col = 0;
  std::string message;
  std::vector<std::string> notes;
};

/// Engine and analyzer structs to and from their wire forms.
WireEvalStats ToWire(const EvalStats& s);
WireDiagnostic ToWire(const Diagnostic& d);
Diagnostic FromWire(const WireDiagnostic& w);

struct CompileReply {
  bool cache_hit = false;
  uint64_t rules = 0;
  uint64_t strata = 0;
  double compile_seconds = 0;
  /// Admission-control payload (service.h): the program's feature set
  /// ("{E,I,R}"), its core-fragment equivalence class (Figure 1 label),
  /// the verdict under the server's policy (AdmissionVerdict numeric
  /// value: 0 tame, 1 generative-budgeted, 2 rejected), and the
  /// analyzer's warnings/notes (lint SD1xx + admission SD3xx). A
  /// *rejected* program still compiles — only kRun refuses it — so the
  /// client sees the full explanation here.
  std::string features;
  std::string fragment_class;
  uint8_t admission = 0;
  std::vector<WireDiagnostic> diagnostics;
};

struct RunReply {
  /// Epoch the run's snapshot was pinned to, and its segment count.
  uint64_t epoch = 0;
  uint64_t segments = 0;
  /// Answered from the server's epoch-keyed result cache (same program
  /// text + output relation at an unchanged epoch): no evaluation ran;
  /// `stats` are those of the run that populated the entry.
  bool result_cached = false;
  /// Deterministic rendering of the derived facts (Instance::ToString,
  /// projected onto output_rel when one was requested) — the payload the
  /// loopback differential compares byte-for-byte against in-process
  /// Session::Run.
  std::string rendered;
  WireEvalStats stats;
};

struct AppendReply {
  /// Facts actually new (duplicates against the stack are dropped).
  uint64_t appended = 0;
  DbInfo db;
};

struct RetractReply {
  /// Facts actually retracted (requests for invisible facts are dropped).
  uint64_t retracted = 0;
  DbInfo db;
};

struct CompactReply {
  bool folded = false;
  DbInfo db;
};

/// Handshake reply: the server's wire-format version (kHello reply).
struct HelloReply {
  uint32_t wire_version = 0;
};

struct StatsReply {
  /// StoreStats::ToString of the server database's measured statistics.
  std::string rendered;
  /// Result/view cache traffic and occupancy (service.h CacheCounters).
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;
  uint64_t cache_evictions = 0;
  uint64_t cache_entries = 0;
  uint64_t cache_bytes = 0;
  /// Maintained-view counters (view.h ViewManager::Counters).
  uint64_t view_hits = 0;
  uint64_t view_cold_runs = 0;
  uint64_t view_delta_refreshes = 0;
  uint64_t view_dred_refreshes = 0;
  /// Always 0 (ViewManager::Counters::strata_recomputed).
  uint64_t view_strata_recomputed = 0;
};

/// One decoded request frame: the type tag plus the matching body (only
/// the member for `type` is meaningful).
struct Request {
  MsgType type = MsgType::kEpoch;
  CompileRequest compile;
  RunRequest run;
  AppendRequest append;
  RetractRequest retract;
  HelloRequest hello;
};

/// One decoded reply frame: which request it answers, its Status, and the
/// body (meaningful only when `status.ok()`).
struct Reply {
  MsgType orig_type = MsgType::kEpoch;
  Status status;
  CompileReply compile;
  RunReply run;
  AppendReply append;
  RetractReply retract;
  DbInfo info;          ///< kEpoch
  CompactReply compact;
  StatsReply stats;
  HelloReply hello;
};

// --- Encoding ---------------------------------------------------------------
// Encoders produce a complete frame (length prefix included), ready for
// WriteFrame / a single send. Each writes its fields straight into one
// buffer reserved for the whole frame, so a large field (a run reply's
// rendering) is copied once.

std::string EncodeCompileRequest(const CompileRequest& req);
std::string EncodeRunRequest(const RunRequest& req);
std::string EncodeAppendRequest(const AppendRequest& req);
std::string EncodeRetractRequest(const RetractRequest& req);
std::string EncodeHelloRequest(const HelloRequest& req);
/// kEpoch / kCompact / kStats / kShutdown (no body).
std::string EncodeBareRequest(MsgType type);

/// An error reply to a request of `orig_type` (no body).
std::string EncodeErrorReply(MsgType orig_type, const Status& status);
std::string EncodeCompileReply(const CompileReply& reply);
std::string EncodeRunReply(const RunReply& reply);
std::string EncodeAppendReply(const AppendReply& reply);
std::string EncodeRetractReply(const RetractReply& reply);
std::string EncodeEpochReply(const DbInfo& info);
std::string EncodeCompactReply(const CompactReply& reply);
std::string EncodeStatsReply(const StatsReply& reply);
std::string EncodeShutdownReply();
std::string EncodeHelloReply(const HelloReply& reply);

// --- Decoding ---------------------------------------------------------------
// `payload` is a frame's payload (no length prefix). Truncated or
// malformed payloads yield kInvalidArgument with a "truncated frame" /
// "malformed frame" message.

Result<Request> DecodeRequest(std::string_view payload);
Result<Reply> DecodeReply(std::string_view payload);

// --- Frame IO ---------------------------------------------------------------

/// Writes `frame` (already length-prefixed by an encoder) to `fd`,
/// looping over short writes. Uses MSG_NOSIGNAL — a peer that vanished
/// mid-write yields a Status, never SIGPIPE. On a socket with an
/// SO_SNDTIMEO armed, a peer that stops reading for that long yields
/// kDeadlineExceeded.
Status WriteFrame(int fd, std::string_view frame);

/// Buffered frame reader over a connected socket: each recv pulls
/// whatever is available, so a small frame typically costs one syscall
/// instead of two (header, then payload) — on a loopback serving path
/// that is a measurable share of the round trip. Keeps partial-frame
/// state across calls: with an SO_RCVTIMEO set on the socket, a timeout
/// surfaces via *timed_out (call Next again to resume exactly where the
/// stream left off), which is how the server polls its stop flag between
/// and *during* frames without a separate poll(2).
class FrameReader {
 public:
  FrameReader(int fd, size_t max_frame_bytes)
      : fd_(fd), max_frame_bytes_(max_frame_bytes) {}

  /// Next frame payload (blocking). Returns:
  ///   * the payload bytes on success;
  ///   * kNotFound "connection closed" on clean EOF at a frame boundary;
  ///   * kInvalidArgument "truncated frame ..." on EOF mid-frame;
  ///   * kResourceExhausted "oversized frame ..." when the declared
  ///     length exceeds `max_frame_bytes` (the frame is NOT consumed —
  ///     close the connection after reporting).
  /// `timed_out` (may be null when the socket has no receive timeout) is
  /// set instead of an error when recv timed out.
  Result<std::string> Next(bool* timed_out);

 private:
  int fd_;
  size_t max_frame_bytes_;
  std::string buf_;   ///< bytes received but not yet returned
  size_t pos_ = 0;    ///< consumed prefix of buf_
};

// --- Socket setup (shared by Server::Listen and Client::Connect) -------------

/// Fills an IPv4 socket address for host:port. Accepts dotted quads and
/// the literal "localhost" (mapped to 127.0.0.1); no DNS.
Status FillSockAddr(const std::string& host, uint16_t port,
                    struct sockaddr_in* addr);

/// Disables Nagle's algorithm: frames are small request/reply units, so
/// latency beats batching on both ends of the protocol.
void SetNoDelay(int fd);

// --- Error formatting -------------------------------------------------------

/// Rewrites a parser Status of the shape "parse error at L:C: msg" into
/// the structured "<source_name>:L:C: msg" (compiler-style file:line),
/// and prefixes "<source_name>: " otherwise, so clients see errors
/// pointing at the text *they* named.
Status AnnotateParseError(std::string_view source_name, Status status);

}  // namespace protocol
}  // namespace seqdl

#endif  // SEQDL_SERVER_PROTOCOL_H_
