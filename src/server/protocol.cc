#include "src/server/protocol.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "src/analysis/diagnostics.h"
#include "src/base/bytes.h"
#include "src/engine/engine.h"

namespace seqdl {
namespace protocol {

namespace {

void PutString(std::string* out, std::string_view s) {
  PutU32(out, static_cast<uint32_t>(s.size()));
  out->append(s.data(), s.size());
}

/// The byte reader (base/bytes.h) over a frame payload: a read past the
/// end is a kInvalidArgument "truncated frame".
class PayloadReader final : public ByteReader {
 public:
  using ByteReader::ByteReader;

  Result<std::string> String() {
    SEQDL_ASSIGN_OR_RETURN(uint32_t len, U32());
    SEQDL_ASSIGN_OR_RETURN(std::string_view body, Bytes(len, "string body"));
    return std::string(body);
  }

  Result<bool> Bool() {
    SEQDL_ASSIGN_OR_RETURN(uint8_t b, U8());
    return b != 0;
  }

  /// A payload with unread trailing bytes is malformed (forward
  /// compatibility is handled by the type tag, not by padding).
  Status ExpectEnd() const {
    if (!AtEnd()) {
      return Status::InvalidArgument("malformed frame: " +
                                     std::to_string(remaining()) +
                                     " trailing bytes");
    }
    return Status::OK();
  }

 private:
  Status Truncated(const char* what) const override {
    return Status::InvalidArgument(
        std::string("truncated frame: ran out of bytes reading ") + what);
  }
};

// Frames are encoded in place: one buffer, reserved once, starts with a
// placeholder for the u32 length that EndFrame fills in. The reserve is
// `variable_bytes`, the sizes of the message's strings, plus room for
// every message's fixed-width fields and string lengths.
std::string BeginFrame(size_t variable_bytes) {
  constexpr size_t kFixedBytes = 160;
  std::string frame;
  frame.reserve(4 + kFixedBytes + variable_bytes);
  frame.resize(4);
  return frame;
}

std::string EndFrame(std::string frame) {
  uint32_t len = static_cast<uint32_t>(frame.size() - 4);
  for (int i = 0; i < 4; ++i) {
    frame[i] = static_cast<char>((len >> (8 * i)) & 0xff);
  }
  return frame;
}

/// A reply frame begun with its head: type tag, original type, status.
/// `variable_bytes` sizes the strings of the body that follows.
std::string BeginReply(MsgType orig_type, const Status& status,
                       size_t variable_bytes) {
  std::string frame = BeginFrame(status.message().size() + variable_bytes);
  PutU8(&frame, static_cast<uint8_t>(MsgType::kReply));
  PutU8(&frame, static_cast<uint8_t>(orig_type));
  PutU32(&frame, static_cast<uint32_t>(status.code()));
  PutString(&frame, status.message());
  return frame;
}

void PutDbInfo(std::string* out, const DbInfo& info) {
  PutU64(out, info.epoch);
  PutU64(out, info.segments);
  PutU64(out, info.facts);
  PutU64(out, info.on_disk_bytes);
  PutU64(out, info.wal_bytes);
  PutU64(out, info.manifest_generation);
}

Status ReadDbInfo(PayloadReader* r, DbInfo* info) {
  SEQDL_ASSIGN_OR_RETURN(info->epoch, r->U64());
  SEQDL_ASSIGN_OR_RETURN(info->segments, r->U64());
  SEQDL_ASSIGN_OR_RETURN(info->facts, r->U64());
  SEQDL_ASSIGN_OR_RETURN(info->on_disk_bytes, r->U64());
  SEQDL_ASSIGN_OR_RETURN(info->wal_bytes, r->U64());
  SEQDL_ASSIGN_OR_RETURN(info->manifest_generation, r->U64());
  return Status::OK();
}

void PutEvalStats(std::string* out, const WireEvalStats& s) {
  PutU64(out, s.derived_facts);
  PutU64(out, s.rounds);
  PutU64(out, s.rule_firings);
  PutU64(out, s.index_probes);
  PutU64(out, s.prefix_probes);
  PutU64(out, s.suffix_probes);
  PutU64(out, s.full_scans);
  PutU64(out, s.delta_scans);
  PutU64(out, s.delta_index_probes);
  PutF64(out, s.compile_seconds);
  PutF64(out, s.run_seconds);
}

Status ReadEvalStats(PayloadReader* r, WireEvalStats* s) {
  SEQDL_ASSIGN_OR_RETURN(s->derived_facts, r->U64());
  SEQDL_ASSIGN_OR_RETURN(s->rounds, r->U64());
  SEQDL_ASSIGN_OR_RETURN(s->rule_firings, r->U64());
  SEQDL_ASSIGN_OR_RETURN(s->index_probes, r->U64());
  SEQDL_ASSIGN_OR_RETURN(s->prefix_probes, r->U64());
  SEQDL_ASSIGN_OR_RETURN(s->suffix_probes, r->U64());
  SEQDL_ASSIGN_OR_RETURN(s->full_scans, r->U64());
  SEQDL_ASSIGN_OR_RETURN(s->delta_scans, r->U64());
  SEQDL_ASSIGN_OR_RETURN(s->delta_index_probes, r->U64());
  SEQDL_ASSIGN_OR_RETURN(s->compile_seconds, r->F64());
  SEQDL_ASSIGN_OR_RETURN(s->run_seconds, r->F64());
  return Status::OK();
}

void PutDiagnostics(std::string* out,
                    const std::vector<WireDiagnostic>& diags) {
  PutU32(out, static_cast<uint32_t>(diags.size()));
  for (const WireDiagnostic& d : diags) {
    PutU8(out, d.severity);
    PutString(out, d.code);
    PutU32(out, d.line);
    PutU32(out, d.col);
    PutU32(out, d.end_line);
    PutU32(out, d.end_col);
    PutString(out, d.message);
    PutU32(out, static_cast<uint32_t>(d.notes.size()));
    for (const std::string& n : d.notes) PutString(out, n);
  }
}

Status ReadDiagnostics(PayloadReader* r, std::vector<WireDiagnostic>* diags) {
  SEQDL_ASSIGN_OR_RETURN(uint32_t count, r->U32());
  diags->clear();
  for (uint32_t i = 0; i < count; ++i) {
    WireDiagnostic d;
    SEQDL_ASSIGN_OR_RETURN(d.severity, r->U8());
    SEQDL_ASSIGN_OR_RETURN(d.code, r->String());
    SEQDL_ASSIGN_OR_RETURN(d.line, r->U32());
    SEQDL_ASSIGN_OR_RETURN(d.col, r->U32());
    SEQDL_ASSIGN_OR_RETURN(d.end_line, r->U32());
    SEQDL_ASSIGN_OR_RETURN(d.end_col, r->U32());
    SEQDL_ASSIGN_OR_RETURN(d.message, r->String());
    SEQDL_ASSIGN_OR_RETURN(uint32_t notes, r->U32());
    for (uint32_t j = 0; j < notes; ++j) {
      SEQDL_ASSIGN_OR_RETURN(std::string n, r->String());
      d.notes.push_back(std::move(n));
    }
    diags->push_back(std::move(d));
  }
  return Status::OK();
}

}  // namespace

WireEvalStats ToWire(const EvalStats& s) {
  WireEvalStats w;
  w.derived_facts = s.derived_facts;
  w.rounds = s.rounds;
  w.rule_firings = s.rule_firings;
  w.index_probes = s.index_probes;
  w.prefix_probes = s.prefix_probes;
  w.suffix_probes = s.suffix_probes;
  w.full_scans = s.full_scans;
  w.delta_scans = s.delta_scans;
  w.delta_index_probes = s.delta_index_probes;
  w.compile_seconds = s.compile_seconds;
  w.run_seconds = s.run_seconds;
  return w;
}

WireDiagnostic ToWire(const Diagnostic& d) {
  WireDiagnostic w;
  w.severity = static_cast<uint8_t>(d.severity);
  w.code = d.code;
  w.line = static_cast<uint32_t>(d.span.line);
  w.col = static_cast<uint32_t>(d.span.col);
  w.end_line = static_cast<uint32_t>(d.span.end_line);
  w.end_col = static_cast<uint32_t>(d.span.end_col);
  w.message = d.message;
  w.notes = d.notes;
  return w;
}

Diagnostic FromWire(const WireDiagnostic& w) {
  Diagnostic d;
  d.severity = static_cast<Severity>(w.severity);
  d.code = w.code;
  d.span.line = static_cast<int>(w.line);
  d.span.col = static_cast<int>(w.col);
  d.span.end_line = static_cast<int>(w.end_line);
  d.span.end_col = static_cast<int>(w.end_col);
  d.message = w.message;
  d.notes = w.notes;
  return d;
}

const char* MsgTypeToString(MsgType type) {
  switch (type) {
    case MsgType::kCompile:  return "compile";
    case MsgType::kRun:      return "run";
    case MsgType::kAppend:   return "append";
    case MsgType::kRetract:  return "retract";
    case MsgType::kEpoch:    return "epoch";
    case MsgType::kCompact:  return "compact";
    case MsgType::kStats:    return "stats";
    case MsgType::kShutdown: return "shutdown";
    case MsgType::kHello:    return "hello";
    case MsgType::kReply:    return "reply";
  }
  return "unknown";
}

// --- Request encoding --------------------------------------------------------

std::string EncodeCompileRequest(const CompileRequest& req) {
  std::string frame = BeginFrame(req.program.size() + req.source_name.size());
  PutU8(&frame, static_cast<uint8_t>(MsgType::kCompile));
  PutString(&frame, req.program);
  PutString(&frame, req.source_name);
  return EndFrame(std::move(frame));
}

std::string EncodeRunRequest(const RunRequest& req) {
  std::string frame = BeginFrame(req.program.size() + req.source_name.size() +
                                 req.output_rel.size());
  PutU8(&frame, static_cast<uint8_t>(MsgType::kRun));
  PutString(&frame, req.program);
  PutString(&frame, req.source_name);
  PutString(&frame, req.output_rel);
  PutU8(&frame, req.collect_derived_stats ? 1 : 0);
  return EndFrame(std::move(frame));
}

std::string EncodeAppendRequest(const AppendRequest& req) {
  std::string frame = BeginFrame(req.facts.size() + req.source_name.size());
  PutU8(&frame, static_cast<uint8_t>(MsgType::kAppend));
  PutString(&frame, req.facts);
  PutString(&frame, req.source_name);
  return EndFrame(std::move(frame));
}

std::string EncodeRetractRequest(const RetractRequest& req) {
  std::string frame = BeginFrame(req.facts.size() + req.source_name.size());
  PutU8(&frame, static_cast<uint8_t>(MsgType::kRetract));
  PutString(&frame, req.facts);
  PutString(&frame, req.source_name);
  return EndFrame(std::move(frame));
}

std::string EncodeHelloRequest(const HelloRequest& req) {
  std::string frame = BeginFrame(0);
  PutU8(&frame, static_cast<uint8_t>(MsgType::kHello));
  PutU32(&frame, req.wire_version);
  return EndFrame(std::move(frame));
}

std::string EncodeBareRequest(MsgType type) {
  std::string frame = BeginFrame(0);
  PutU8(&frame, static_cast<uint8_t>(type));
  return EndFrame(std::move(frame));
}

// --- Reply encoding ----------------------------------------------------------

std::string EncodeErrorReply(MsgType orig_type, const Status& status) {
  return EndFrame(BeginReply(orig_type, status, 0));
}

std::string EncodeCompileReply(const CompileReply& reply) {
  // Diagnostics are not sized: a compile reply is cold and small.
  std::string frame =
      BeginReply(MsgType::kCompile, Status::OK(),
                 reply.features.size() + reply.fragment_class.size());
  PutU8(&frame, reply.cache_hit ? 1 : 0);
  PutU64(&frame, reply.rules);
  PutU64(&frame, reply.strata);
  PutF64(&frame, reply.compile_seconds);
  PutString(&frame, reply.features);
  PutString(&frame, reply.fragment_class);
  PutU8(&frame, reply.admission);
  PutDiagnostics(&frame, reply.diagnostics);
  return EndFrame(std::move(frame));
}

std::string EncodeRunReply(const RunReply& reply) {
  std::string frame =
      BeginReply(MsgType::kRun, Status::OK(), reply.rendered.size());
  PutU64(&frame, reply.epoch);
  PutU64(&frame, reply.segments);
  PutU8(&frame, reply.result_cached ? 1 : 0);
  PutString(&frame, reply.rendered);
  PutEvalStats(&frame, reply.stats);
  return EndFrame(std::move(frame));
}

std::string EncodeAppendReply(const AppendReply& reply) {
  std::string frame = BeginReply(MsgType::kAppend, Status::OK(), 0);
  PutU64(&frame, reply.appended);
  PutDbInfo(&frame, reply.db);
  return EndFrame(std::move(frame));
}

std::string EncodeRetractReply(const RetractReply& reply) {
  std::string frame = BeginReply(MsgType::kRetract, Status::OK(), 0);
  PutU64(&frame, reply.retracted);
  PutDbInfo(&frame, reply.db);
  return EndFrame(std::move(frame));
}

std::string EncodeEpochReply(const DbInfo& info) {
  std::string frame = BeginReply(MsgType::kEpoch, Status::OK(), 0);
  PutDbInfo(&frame, info);
  return EndFrame(std::move(frame));
}

std::string EncodeCompactReply(const CompactReply& reply) {
  std::string frame = BeginReply(MsgType::kCompact, Status::OK(), 0);
  PutU8(&frame, reply.folded ? 1 : 0);
  PutDbInfo(&frame, reply.db);
  return EndFrame(std::move(frame));
}

std::string EncodeStatsReply(const StatsReply& reply) {
  std::string frame =
      BeginReply(MsgType::kStats, Status::OK(), reply.rendered.size());
  PutString(&frame, reply.rendered);
  PutU64(&frame, reply.cache_hits);
  PutU64(&frame, reply.cache_misses);
  PutU64(&frame, reply.cache_evictions);
  PutU64(&frame, reply.cache_entries);
  PutU64(&frame, reply.cache_bytes);
  PutU64(&frame, reply.view_hits);
  PutU64(&frame, reply.view_cold_runs);
  PutU64(&frame, reply.view_delta_refreshes);
  PutU64(&frame, reply.view_dred_refreshes);
  PutU64(&frame, reply.view_strata_recomputed);
  return EndFrame(std::move(frame));
}

std::string EncodeShutdownReply() {
  return EndFrame(BeginReply(MsgType::kShutdown, Status::OK(), 0));
}

std::string EncodeHelloReply(const HelloReply& reply) {
  std::string frame = BeginReply(MsgType::kHello, Status::OK(), 0);
  PutU32(&frame, reply.wire_version);
  return EndFrame(std::move(frame));
}

// --- Decoding ----------------------------------------------------------------

Result<Request> DecodeRequest(std::string_view payload) {
  PayloadReader r(payload);
  SEQDL_ASSIGN_OR_RETURN(uint8_t type_byte, r.U8());
  Request req;
  req.type = static_cast<MsgType>(type_byte);
  switch (req.type) {
    case MsgType::kCompile: {
      SEQDL_ASSIGN_OR_RETURN(req.compile.program, r.String());
      SEQDL_ASSIGN_OR_RETURN(req.compile.source_name, r.String());
      break;
    }
    case MsgType::kRun: {
      SEQDL_ASSIGN_OR_RETURN(req.run.program, r.String());
      SEQDL_ASSIGN_OR_RETURN(req.run.source_name, r.String());
      SEQDL_ASSIGN_OR_RETURN(req.run.output_rel, r.String());
      SEQDL_ASSIGN_OR_RETURN(req.run.collect_derived_stats, r.Bool());
      break;
    }
    case MsgType::kAppend: {
      SEQDL_ASSIGN_OR_RETURN(req.append.facts, r.String());
      SEQDL_ASSIGN_OR_RETURN(req.append.source_name, r.String());
      break;
    }
    case MsgType::kRetract: {
      SEQDL_ASSIGN_OR_RETURN(req.retract.facts, r.String());
      SEQDL_ASSIGN_OR_RETURN(req.retract.source_name, r.String());
      break;
    }
    case MsgType::kHello: {
      SEQDL_ASSIGN_OR_RETURN(req.hello.wire_version, r.U32());
      break;
    }
    case MsgType::kEpoch:
    case MsgType::kCompact:
    case MsgType::kStats:
    case MsgType::kShutdown:
      break;
    default:
      return Status::InvalidArgument(
          "malformed frame: unknown request type " +
          std::to_string(static_cast<int>(type_byte)));
  }
  SEQDL_RETURN_IF_ERROR(r.ExpectEnd());
  return req;
}

Result<Reply> DecodeReply(std::string_view payload) {
  PayloadReader r(payload);
  SEQDL_ASSIGN_OR_RETURN(uint8_t type_byte, r.U8());
  if (static_cast<MsgType>(type_byte) != MsgType::kReply) {
    return Status::InvalidArgument(
        "malformed frame: expected a reply, got type " +
        std::to_string(static_cast<int>(type_byte)));
  }
  Reply reply;
  SEQDL_ASSIGN_OR_RETURN(uint8_t orig, r.U8());
  reply.orig_type = static_cast<MsgType>(orig);
  SEQDL_ASSIGN_OR_RETURN(uint32_t code, r.U32());
  SEQDL_ASSIGN_OR_RETURN(std::string message, r.String());
  reply.status = Status(static_cast<StatusCode>(code), std::move(message));
  if (!reply.status.ok()) {
    SEQDL_RETURN_IF_ERROR(r.ExpectEnd());
    return reply;
  }
  switch (reply.orig_type) {
    case MsgType::kCompile: {
      SEQDL_ASSIGN_OR_RETURN(reply.compile.cache_hit, r.Bool());
      SEQDL_ASSIGN_OR_RETURN(reply.compile.rules, r.U64());
      SEQDL_ASSIGN_OR_RETURN(reply.compile.strata, r.U64());
      SEQDL_ASSIGN_OR_RETURN(reply.compile.compile_seconds, r.F64());
      SEQDL_ASSIGN_OR_RETURN(reply.compile.features, r.String());
      SEQDL_ASSIGN_OR_RETURN(reply.compile.fragment_class, r.String());
      SEQDL_ASSIGN_OR_RETURN(reply.compile.admission, r.U8());
      SEQDL_RETURN_IF_ERROR(ReadDiagnostics(&r, &reply.compile.diagnostics));
      break;
    }
    case MsgType::kRun: {
      SEQDL_ASSIGN_OR_RETURN(reply.run.epoch, r.U64());
      SEQDL_ASSIGN_OR_RETURN(reply.run.segments, r.U64());
      SEQDL_ASSIGN_OR_RETURN(reply.run.result_cached, r.Bool());
      SEQDL_ASSIGN_OR_RETURN(reply.run.rendered, r.String());
      SEQDL_RETURN_IF_ERROR(ReadEvalStats(&r, &reply.run.stats));
      break;
    }
    case MsgType::kAppend: {
      SEQDL_ASSIGN_OR_RETURN(reply.append.appended, r.U64());
      SEQDL_RETURN_IF_ERROR(ReadDbInfo(&r, &reply.append.db));
      break;
    }
    case MsgType::kRetract: {
      SEQDL_ASSIGN_OR_RETURN(reply.retract.retracted, r.U64());
      SEQDL_RETURN_IF_ERROR(ReadDbInfo(&r, &reply.retract.db));
      break;
    }
    case MsgType::kEpoch:
      SEQDL_RETURN_IF_ERROR(ReadDbInfo(&r, &reply.info));
      break;
    case MsgType::kCompact: {
      SEQDL_ASSIGN_OR_RETURN(reply.compact.folded, r.Bool());
      SEQDL_RETURN_IF_ERROR(ReadDbInfo(&r, &reply.compact.db));
      break;
    }
    case MsgType::kStats: {
      SEQDL_ASSIGN_OR_RETURN(reply.stats.rendered, r.String());
      SEQDL_ASSIGN_OR_RETURN(reply.stats.cache_hits, r.U64());
      SEQDL_ASSIGN_OR_RETURN(reply.stats.cache_misses, r.U64());
      SEQDL_ASSIGN_OR_RETURN(reply.stats.cache_evictions, r.U64());
      SEQDL_ASSIGN_OR_RETURN(reply.stats.cache_entries, r.U64());
      SEQDL_ASSIGN_OR_RETURN(reply.stats.cache_bytes, r.U64());
      SEQDL_ASSIGN_OR_RETURN(reply.stats.view_hits, r.U64());
      SEQDL_ASSIGN_OR_RETURN(reply.stats.view_cold_runs, r.U64());
      SEQDL_ASSIGN_OR_RETURN(reply.stats.view_delta_refreshes, r.U64());
      SEQDL_ASSIGN_OR_RETURN(reply.stats.view_dred_refreshes, r.U64());
      SEQDL_ASSIGN_OR_RETURN(reply.stats.view_strata_recomputed, r.U64());
      break;
    }
    case MsgType::kHello: {
      SEQDL_ASSIGN_OR_RETURN(reply.hello.wire_version, r.U32());
      break;
    }
    case MsgType::kShutdown:
      break;
    default:
      return Status::InvalidArgument(
          "malformed frame: reply to unknown request type " +
          std::to_string(static_cast<int>(orig)));
  }
  SEQDL_RETURN_IF_ERROR(r.ExpectEnd());
  return reply;
}

// --- Frame IO ----------------------------------------------------------------

Status WriteFrame(int fd, std::string_view frame) {
  size_t off = 0;
  while (off < frame.size()) {
    ssize_t n = ::send(fd, frame.data() + off, frame.size() - off,
                       MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::InvalidArgument(std::string("send failed: ") +
                                     std::strerror(errno));
    }
    off += static_cast<size_t>(n);
  }
  return Status::OK();
}

Result<std::string> FrameReader::Next(bool* timed_out) {
  if (timed_out != nullptr) *timed_out = false;
  while (true) {
    // A complete frame in the buffer?
    size_t avail = buf_.size() - pos_;
    if (avail >= 4) {
      uint32_t len = 0;
      for (int i = 0; i < 4; ++i) {
        len |= static_cast<uint32_t>(
                   static_cast<uint8_t>(buf_[pos_ + static_cast<size_t>(i)]))
               << (8 * i);
      }
      if (len > max_frame_bytes_) {
        return Status::ResourceExhausted(
            "oversized frame: declared " + std::to_string(len) +
            " bytes, limit " + std::to_string(max_frame_bytes_));
      }
      if (avail >= 4 + static_cast<size_t>(len)) {
        std::string payload = buf_.substr(pos_ + 4, len);
        pos_ += 4 + len;
        if (pos_ == buf_.size()) {
          buf_.clear();
          pos_ = 0;
        }
        return payload;
      }
    }
    // Pull more bytes. Compact the consumed prefix first so the buffer
    // stays bounded by one frame plus one recv chunk.
    if (pos_ > 0) {
      buf_.erase(0, pos_);
      pos_ = 0;
    }
    char chunk[16384];
    ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      if ((errno == EAGAIN || errno == EWOULDBLOCK) && timed_out != nullptr) {
        *timed_out = true;
        return std::string();
      }
      return Status::InvalidArgument(std::string("recv failed: ") +
                                     std::strerror(errno));
    }
    if (n == 0) {
      if (buf_.empty()) return Status::NotFound("connection closed");
      return Status::InvalidArgument(
          "truncated frame: connection closed with " +
          std::to_string(buf_.size()) + " buffered bytes mid-frame");
    }
    buf_.append(chunk, static_cast<size_t>(n));
  }
}

// --- Socket setup -------------------------------------------------------------

Status FillSockAddr(const std::string& host, uint16_t port,
                    struct sockaddr_in* addr) {
  std::memset(addr, 0, sizeof(*addr));
  addr->sin_family = AF_INET;
  addr->sin_port = htons(port);
  const char* ip = host == "localhost" ? "127.0.0.1" : host.c_str();
  if (::inet_pton(AF_INET, ip, &addr->sin_addr) != 1) {
    return Status::InvalidArgument("cannot parse IPv4 address " + host);
  }
  return Status::OK();
}

void SetNoDelay(int fd) {
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

// --- Error formatting ---------------------------------------------------------

Status AnnotateParseError(std::string_view source_name, Status status) {
  if (status.ok() || source_name.empty()) return status;
  std::string annotated(source_name);
  const std::string& msg = status.message();
  constexpr std::string_view kPrefix = "parse error at ";
  constexpr std::string_view kLexPrefix = "lex error at ";
  if (msg.rfind(kPrefix.data(), 0) == 0) {
    // "parse error at L:C: msg" -> "<name>:L:C: msg".
    annotated += ":";
    annotated += msg.substr(kPrefix.size());
  } else if (msg.rfind(kLexPrefix.data(), 0) == 0) {
    // "lex error at L:C: msg" -> "<name>:L:C: msg".
    annotated += ":";
    annotated += msg.substr(kLexPrefix.size());
  } else {
    annotated += ": ";
    annotated += msg;
  }
  return Status(status.code(), std::move(annotated));
}

}  // namespace protocol
}  // namespace seqdl
