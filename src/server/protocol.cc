#include "src/server/protocol.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

namespace seqdl {
namespace protocol {

namespace {

// --- Primitive encoding (little-endian, fixed width) -------------------------

void PutU8(std::string* out, uint8_t v) {
  out->push_back(static_cast<char>(v));
}

void PutU32(std::string* out, uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out->push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
}

void PutU64(std::string* out, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out->push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
}

void PutF64(std::string* out, double v) {
  uint64_t bits;
  static_assert(sizeof(bits) == sizeof(v));
  std::memcpy(&bits, &v, sizeof(bits));
  PutU64(out, bits);
}

void PutString(std::string* out, std::string_view s) {
  PutU32(out, static_cast<uint32_t>(s.size()));
  out->append(s.data(), s.size());
}

/// Bounds-checked little-endian reader over a frame payload.
class WireReader {
 public:
  explicit WireReader(std::string_view data) : data_(data) {}

  Status ReadU8(uint8_t* v) {
    if (pos_ + 1 > data_.size()) return Truncated("u8");
    *v = static_cast<uint8_t>(data_[pos_++]);
    return Status::OK();
  }

  Status ReadU32(uint32_t* v) {
    if (pos_ + 4 > data_.size()) return Truncated("u32");
    *v = 0;
    for (int i = 0; i < 4; ++i) {
      *v |= static_cast<uint32_t>(static_cast<uint8_t>(data_[pos_ + i]))
            << (8 * i);
    }
    pos_ += 4;
    return Status::OK();
  }

  Status ReadU64(uint64_t* v) {
    if (pos_ + 8 > data_.size()) return Truncated("u64");
    *v = 0;
    for (int i = 0; i < 8; ++i) {
      *v |= static_cast<uint64_t>(static_cast<uint8_t>(data_[pos_ + i]))
            << (8 * i);
    }
    pos_ += 8;
    return Status::OK();
  }

  Status ReadF64(double* v) {
    uint64_t bits = 0;
    SEQDL_RETURN_IF_ERROR(ReadU64(&bits));
    std::memcpy(v, &bits, sizeof(*v));
    return Status::OK();
  }

  Status ReadString(std::string* s) {
    uint32_t len = 0;
    SEQDL_RETURN_IF_ERROR(ReadU32(&len));
    if (pos_ + len > data_.size()) return Truncated("string body");
    s->assign(data_.data() + pos_, len);
    pos_ += len;
    return Status::OK();
  }

  Status ReadBool(bool* v) {
    uint8_t b = 0;
    SEQDL_RETURN_IF_ERROR(ReadU8(&b));
    *v = b != 0;
    return Status::OK();
  }

  /// A payload with unread trailing bytes is malformed (forward
  /// compatibility is handled by the type tag, not by padding).
  Status ExpectEnd() const {
    if (pos_ != data_.size()) {
      return Status::InvalidArgument("malformed frame: " +
                                     std::to_string(data_.size() - pos_) +
                                     " trailing bytes");
    }
    return Status::OK();
  }

 private:
  Status Truncated(const char* what) const {
    return Status::InvalidArgument(
        std::string("truncated frame: ran out of bytes reading ") + what);
  }

  std::string_view data_;
  size_t pos_ = 0;
};

/// Prepends the u32 length to a finished payload.
std::string Frame(std::string payload) {
  std::string frame;
  frame.reserve(4 + payload.size());
  PutU32(&frame, static_cast<uint32_t>(payload.size()));
  frame += payload;
  return frame;
}

std::string ReplyHead(MsgType orig_type, const Status& status) {
  std::string payload;
  PutU8(&payload, static_cast<uint8_t>(MsgType::kReply));
  PutU8(&payload, static_cast<uint8_t>(orig_type));
  PutU32(&payload, static_cast<uint32_t>(status.code()));
  PutString(&payload, status.message());
  return payload;
}

void PutDbInfo(std::string* out, const DbInfo& info) {
  PutU64(out, info.epoch);
  PutU64(out, info.segments);
  PutU64(out, info.facts);
  PutU64(out, info.on_disk_bytes);
  PutU64(out, info.wal_bytes);
  PutU64(out, info.manifest_generation);
}

Status ReadDbInfo(WireReader* r, DbInfo* info) {
  SEQDL_RETURN_IF_ERROR(r->ReadU64(&info->epoch));
  SEQDL_RETURN_IF_ERROR(r->ReadU64(&info->segments));
  SEQDL_RETURN_IF_ERROR(r->ReadU64(&info->facts));
  SEQDL_RETURN_IF_ERROR(r->ReadU64(&info->on_disk_bytes));
  SEQDL_RETURN_IF_ERROR(r->ReadU64(&info->wal_bytes));
  SEQDL_RETURN_IF_ERROR(r->ReadU64(&info->manifest_generation));
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

Status ReadEvalStats(WireReader* r, WireEvalStats* s) {
  SEQDL_RETURN_IF_ERROR(r->ReadU64(&s->derived_facts));
  SEQDL_RETURN_IF_ERROR(r->ReadU64(&s->rounds));
  SEQDL_RETURN_IF_ERROR(r->ReadU64(&s->rule_firings));
  SEQDL_RETURN_IF_ERROR(r->ReadU64(&s->index_probes));
  SEQDL_RETURN_IF_ERROR(r->ReadU64(&s->prefix_probes));
  SEQDL_RETURN_IF_ERROR(r->ReadU64(&s->suffix_probes));
  SEQDL_RETURN_IF_ERROR(r->ReadU64(&s->full_scans));
  SEQDL_RETURN_IF_ERROR(r->ReadU64(&s->delta_scans));
  SEQDL_RETURN_IF_ERROR(r->ReadU64(&s->delta_index_probes));
  SEQDL_RETURN_IF_ERROR(r->ReadF64(&s->compile_seconds));
  SEQDL_RETURN_IF_ERROR(r->ReadF64(&s->run_seconds));
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

Status ReadDiagnostics(WireReader* r, std::vector<WireDiagnostic>* diags) {
  uint32_t count = 0;
  SEQDL_RETURN_IF_ERROR(r->ReadU32(&count));
  diags->clear();
  for (uint32_t i = 0; i < count; ++i) {
    WireDiagnostic d;
    SEQDL_RETURN_IF_ERROR(r->ReadU8(&d.severity));
    SEQDL_RETURN_IF_ERROR(r->ReadString(&d.code));
    SEQDL_RETURN_IF_ERROR(r->ReadU32(&d.line));
    SEQDL_RETURN_IF_ERROR(r->ReadU32(&d.col));
    SEQDL_RETURN_IF_ERROR(r->ReadU32(&d.end_line));
    SEQDL_RETURN_IF_ERROR(r->ReadU32(&d.end_col));
    SEQDL_RETURN_IF_ERROR(r->ReadString(&d.message));
    uint32_t notes = 0;
    SEQDL_RETURN_IF_ERROR(r->ReadU32(&notes));
    for (uint32_t j = 0; j < notes; ++j) {
      std::string n;
      SEQDL_RETURN_IF_ERROR(r->ReadString(&n));
      d.notes.push_back(std::move(n));
    }
    diags->push_back(std::move(d));
  }
  return Status::OK();
}

}  // namespace

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
  std::string payload;
  PutU8(&payload, static_cast<uint8_t>(MsgType::kCompile));
  PutString(&payload, req.program);
  PutString(&payload, req.source_name);
  return Frame(std::move(payload));
}

std::string EncodeRunRequest(const RunRequest& req) {
  std::string payload;
  PutU8(&payload, static_cast<uint8_t>(MsgType::kRun));
  PutString(&payload, req.program);
  PutString(&payload, req.source_name);
  PutString(&payload, req.output_rel);
  PutU8(&payload, req.collect_derived_stats ? 1 : 0);
  return Frame(std::move(payload));
}

std::string EncodeAppendRequest(const AppendRequest& req) {
  std::string payload;
  PutU8(&payload, static_cast<uint8_t>(MsgType::kAppend));
  PutString(&payload, req.facts);
  PutString(&payload, req.source_name);
  return Frame(std::move(payload));
}

std::string EncodeRetractRequest(const RetractRequest& req) {
  std::string payload;
  PutU8(&payload, static_cast<uint8_t>(MsgType::kRetract));
  PutString(&payload, req.facts);
  PutString(&payload, req.source_name);
  return Frame(std::move(payload));
}

std::string EncodeHelloRequest(const HelloRequest& req) {
  std::string payload;
  PutU8(&payload, static_cast<uint8_t>(MsgType::kHello));
  PutU32(&payload, req.wire_version);
  return Frame(std::move(payload));
}

std::string EncodeBareRequest(MsgType type) {
  std::string payload;
  PutU8(&payload, static_cast<uint8_t>(type));
  return Frame(std::move(payload));
}

// --- Reply encoding ----------------------------------------------------------

std::string EncodeErrorReply(MsgType orig_type, const Status& status) {
  return Frame(ReplyHead(orig_type, status));
}

std::string EncodeCompileReply(const CompileReply& reply) {
  std::string payload = ReplyHead(MsgType::kCompile, Status::OK());
  PutU8(&payload, reply.cache_hit ? 1 : 0);
  PutU64(&payload, reply.rules);
  PutU64(&payload, reply.strata);
  PutF64(&payload, reply.compile_seconds);
  PutString(&payload, reply.features);
  PutString(&payload, reply.fragment_class);
  PutU8(&payload, reply.admission);
  PutDiagnostics(&payload, reply.diagnostics);
  return Frame(std::move(payload));
}

std::string EncodeRunReply(const RunReply& reply) {
  std::string payload = ReplyHead(MsgType::kRun, Status::OK());
  PutU64(&payload, reply.epoch);
  PutU64(&payload, reply.segments);
  PutU8(&payload, reply.result_cached ? 1 : 0);
  PutString(&payload, reply.rendered);
  PutEvalStats(&payload, reply.stats);
  return Frame(std::move(payload));
}

std::string EncodeAppendReply(const AppendReply& reply) {
  std::string payload = ReplyHead(MsgType::kAppend, Status::OK());
  PutU64(&payload, reply.appended);
  PutDbInfo(&payload, reply.db);
  return Frame(std::move(payload));
}

std::string EncodeRetractReply(const RetractReply& reply) {
  std::string payload = ReplyHead(MsgType::kRetract, Status::OK());
  PutU64(&payload, reply.retracted);
  PutDbInfo(&payload, reply.db);
  return Frame(std::move(payload));
}

std::string EncodeEpochReply(const DbInfo& info) {
  std::string payload = ReplyHead(MsgType::kEpoch, Status::OK());
  PutDbInfo(&payload, info);
  return Frame(std::move(payload));
}

std::string EncodeCompactReply(const CompactReply& reply) {
  std::string payload = ReplyHead(MsgType::kCompact, Status::OK());
  PutU8(&payload, reply.folded ? 1 : 0);
  PutDbInfo(&payload, reply.db);
  return Frame(std::move(payload));
}

std::string EncodeStatsReply(const StatsReply& reply) {
  std::string payload = ReplyHead(MsgType::kStats, Status::OK());
  PutString(&payload, reply.rendered);
  PutU64(&payload, reply.cache_hits);
  PutU64(&payload, reply.cache_misses);
  PutU64(&payload, reply.cache_evictions);
  PutU64(&payload, reply.cache_entries);
  PutU64(&payload, reply.cache_bytes);
  PutU64(&payload, reply.view_hits);
  PutU64(&payload, reply.view_cold_runs);
  PutU64(&payload, reply.view_delta_refreshes);
  PutU64(&payload, reply.view_dred_refreshes);
  PutU64(&payload, reply.view_strata_recomputed);
  return Frame(std::move(payload));
}

std::string EncodeShutdownReply() {
  return Frame(ReplyHead(MsgType::kShutdown, Status::OK()));
}

std::string EncodeHelloReply(const HelloReply& reply) {
  std::string payload = ReplyHead(MsgType::kHello, Status::OK());
  PutU32(&payload, reply.wire_version);
  return Frame(std::move(payload));
}

// --- Decoding ----------------------------------------------------------------

Result<Request> DecodeRequest(std::string_view payload) {
  WireReader r(payload);
  uint8_t type_byte = 0;
  SEQDL_RETURN_IF_ERROR(r.ReadU8(&type_byte));
  Request req;
  req.type = static_cast<MsgType>(type_byte);
  switch (req.type) {
    case MsgType::kCompile:
      SEQDL_RETURN_IF_ERROR(r.ReadString(&req.compile.program));
      SEQDL_RETURN_IF_ERROR(r.ReadString(&req.compile.source_name));
      break;
    case MsgType::kRun:
      SEQDL_RETURN_IF_ERROR(r.ReadString(&req.run.program));
      SEQDL_RETURN_IF_ERROR(r.ReadString(&req.run.source_name));
      SEQDL_RETURN_IF_ERROR(r.ReadString(&req.run.output_rel));
      SEQDL_RETURN_IF_ERROR(r.ReadBool(&req.run.collect_derived_stats));
      break;
    case MsgType::kAppend:
      SEQDL_RETURN_IF_ERROR(r.ReadString(&req.append.facts));
      SEQDL_RETURN_IF_ERROR(r.ReadString(&req.append.source_name));
      break;
    case MsgType::kRetract:
      SEQDL_RETURN_IF_ERROR(r.ReadString(&req.retract.facts));
      SEQDL_RETURN_IF_ERROR(r.ReadString(&req.retract.source_name));
      break;
    case MsgType::kHello:
      SEQDL_RETURN_IF_ERROR(r.ReadU32(&req.hello.wire_version));
      break;
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
  WireReader r(payload);
  uint8_t type_byte = 0;
  SEQDL_RETURN_IF_ERROR(r.ReadU8(&type_byte));
  if (static_cast<MsgType>(type_byte) != MsgType::kReply) {
    return Status::InvalidArgument(
        "malformed frame: expected a reply, got type " +
        std::to_string(static_cast<int>(type_byte)));
  }
  Reply reply;
  uint8_t orig = 0;
  SEQDL_RETURN_IF_ERROR(r.ReadU8(&orig));
  reply.orig_type = static_cast<MsgType>(orig);
  uint32_t code = 0;
  std::string message;
  SEQDL_RETURN_IF_ERROR(r.ReadU32(&code));
  SEQDL_RETURN_IF_ERROR(r.ReadString(&message));
  reply.status = Status(static_cast<StatusCode>(code), std::move(message));
  if (!reply.status.ok()) {
    SEQDL_RETURN_IF_ERROR(r.ExpectEnd());
    return reply;
  }
  switch (reply.orig_type) {
    case MsgType::kCompile:
      SEQDL_RETURN_IF_ERROR(r.ReadBool(&reply.compile.cache_hit));
      SEQDL_RETURN_IF_ERROR(r.ReadU64(&reply.compile.rules));
      SEQDL_RETURN_IF_ERROR(r.ReadU64(&reply.compile.strata));
      SEQDL_RETURN_IF_ERROR(r.ReadF64(&reply.compile.compile_seconds));
      SEQDL_RETURN_IF_ERROR(r.ReadString(&reply.compile.features));
      SEQDL_RETURN_IF_ERROR(r.ReadString(&reply.compile.fragment_class));
      SEQDL_RETURN_IF_ERROR(r.ReadU8(&reply.compile.admission));
      SEQDL_RETURN_IF_ERROR(ReadDiagnostics(&r, &reply.compile.diagnostics));
      break;
    case MsgType::kRun:
      SEQDL_RETURN_IF_ERROR(r.ReadU64(&reply.run.epoch));
      SEQDL_RETURN_IF_ERROR(r.ReadU64(&reply.run.segments));
      SEQDL_RETURN_IF_ERROR(r.ReadBool(&reply.run.result_cached));
      SEQDL_RETURN_IF_ERROR(r.ReadString(&reply.run.rendered));
      SEQDL_RETURN_IF_ERROR(ReadEvalStats(&r, &reply.run.stats));
      break;
    case MsgType::kAppend:
      SEQDL_RETURN_IF_ERROR(r.ReadU64(&reply.append.appended));
      SEQDL_RETURN_IF_ERROR(ReadDbInfo(&r, &reply.append.db));
      break;
    case MsgType::kRetract:
      SEQDL_RETURN_IF_ERROR(r.ReadU64(&reply.retract.retracted));
      SEQDL_RETURN_IF_ERROR(ReadDbInfo(&r, &reply.retract.db));
      break;
    case MsgType::kEpoch:
      SEQDL_RETURN_IF_ERROR(ReadDbInfo(&r, &reply.info));
      break;
    case MsgType::kCompact:
      SEQDL_RETURN_IF_ERROR(r.ReadBool(&reply.compact.folded));
      SEQDL_RETURN_IF_ERROR(ReadDbInfo(&r, &reply.compact.db));
      break;
    case MsgType::kStats:
      SEQDL_RETURN_IF_ERROR(r.ReadString(&reply.stats.rendered));
      SEQDL_RETURN_IF_ERROR(r.ReadU64(&reply.stats.cache_hits));
      SEQDL_RETURN_IF_ERROR(r.ReadU64(&reply.stats.cache_misses));
      SEQDL_RETURN_IF_ERROR(r.ReadU64(&reply.stats.cache_evictions));
      SEQDL_RETURN_IF_ERROR(r.ReadU64(&reply.stats.cache_entries));
      SEQDL_RETURN_IF_ERROR(r.ReadU64(&reply.stats.cache_bytes));
      SEQDL_RETURN_IF_ERROR(r.ReadU64(&reply.stats.view_hits));
      SEQDL_RETURN_IF_ERROR(r.ReadU64(&reply.stats.view_cold_runs));
      SEQDL_RETURN_IF_ERROR(r.ReadU64(&reply.stats.view_delta_refreshes));
      SEQDL_RETURN_IF_ERROR(r.ReadU64(&reply.stats.view_dred_refreshes));
      SEQDL_RETURN_IF_ERROR(r.ReadU64(&reply.stats.view_strata_recomputed));
      break;
    case MsgType::kHello:
      SEQDL_RETURN_IF_ERROR(r.ReadU32(&reply.hello.wire_version));
      break;
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
