#include "src/server/client.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <utility>

namespace seqdl {

using protocol::MsgType;

Result<Client> Client::Connect(const std::string& host, uint16_t port,
                               size_t max_frame_bytes) {
  ClientOptions options;
  options.max_frame_bytes = max_frame_bytes;
  return Connect(host, port, options);
}

Result<Client> Client::Connect(const std::string& host, uint16_t port,
                               const ClientOptions& options) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return Status::Internal(std::string("socket failed: ") +
                            std::strerror(errno));
  }
  struct sockaddr_in addr;
  if (Status st = protocol::FillSockAddr(host, port, &addr); !st.ok()) {
    ::close(fd);
    return st;
  }
  auto connect_error = [&](int err) {
    Status st = Status::NotFound("cannot connect to " + host + ":" +
                                 std::to_string(port) + ": " +
                                 std::strerror(err));
    ::close(fd);
    return st;
  };
  if (options.connect_timeout_ms == 0) {
    if (::connect(fd, reinterpret_cast<struct sockaddr*>(&addr),
                  sizeof(addr)) != 0) {
      return connect_error(errno);
    }
  } else {
    // Bounded connect: nonblocking connect(2), poll for writability up to
    // the deadline, then read the outcome back via SO_ERROR.
    int flags = ::fcntl(fd, F_GETFL, 0);
    ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
    int rc = ::connect(fd, reinterpret_cast<struct sockaddr*>(&addr),
                       sizeof(addr));
    if (rc != 0 && errno != EINPROGRESS) return connect_error(errno);
    if (rc != 0) {
      struct pollfd pfd = {fd, POLLOUT, 0};
      int n;
      do {
        n = ::poll(&pfd, 1, static_cast<int>(options.connect_timeout_ms));
      } while (n < 0 && errno == EINTR);
      if (n < 0) {
        Status st = Status::Internal(std::string("poll failed: ") +
                                     std::strerror(errno));
        ::close(fd);
        return st;
      }
      if (n == 0) {
        Status st = Status::DeadlineExceeded(
            "connect to " + host + ":" + std::to_string(port) +
            " timed out after " + std::to_string(options.connect_timeout_ms) +
            "ms");
        ::close(fd);
        return st;
      }
      int err = 0;
      socklen_t len = sizeof(err);
      ::getsockopt(fd, SOL_SOCKET, SO_ERROR, &err, &len);
      if (err != 0) return connect_error(err);
    }
    ::fcntl(fd, F_SETFL, flags);  // back to blocking for the IO path
  }
  if (options.io_timeout_ms > 0) {
    struct timeval tv;
    tv.tv_sec = options.io_timeout_ms / 1000;
    tv.tv_usec = static_cast<long>(options.io_timeout_ms % 1000) * 1000;
    ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
    ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
  }
  protocol::SetNoDelay(fd);
  return Client(fd, options);
}

Client::Client(Client&& other) noexcept
    : fd_(other.fd_),
      max_frame_bytes_(other.max_frame_bytes_),
      io_timeout_ms_(other.io_timeout_ms_),
      reader_(std::move(other.reader_)) {
  other.fd_ = -1;
}

Client& Client::operator=(Client&& other) noexcept {
  if (this != &other) {
    Close();
    fd_ = other.fd_;
    max_frame_bytes_ = other.max_frame_bytes_;
    io_timeout_ms_ = other.io_timeout_ms_;
    reader_ = std::move(other.reader_);
    other.fd_ = -1;
  }
  return *this;
}

Client::~Client() { Close(); }

void Client::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

Result<protocol::Reply> Client::RoundTrip(const std::string& frame,
                                          MsgType expect) {
  if (fd_ < 0) return Status::FailedPrecondition("client is closed");
  if (reader_ == nullptr) {
    reader_ = std::make_unique<protocol::FrameReader>(fd_, max_frame_bytes_);
  }
  const bool has_deadline = io_timeout_ms_ > 0;
  SEQDL_RETURN_IF_ERROR(protocol::WriteFrame(fd_, frame));
  bool timed_out = false;
  SEQDL_ASSIGN_OR_RETURN(std::string payload,
                         reader_->Next(has_deadline ? &timed_out : nullptr));
  if (timed_out) {
    return Status::DeadlineExceeded(
        "deadline exceeded after " + std::to_string(io_timeout_ms_) +
        "ms waiting for a " + protocol::MsgTypeToString(expect) + " reply");
  }
  SEQDL_ASSIGN_OR_RETURN(protocol::Reply reply,
                         protocol::DecodeReply(payload));
  if (!reply.status.ok()) return reply.status;
  if (reply.orig_type != expect) {
    return Status::Internal(
        std::string("protocol mismatch: expected a reply to ") +
        protocol::MsgTypeToString(expect) + ", got " +
        protocol::MsgTypeToString(reply.orig_type));
  }
  return reply;
}

Result<protocol::CompileReply> Client::Compile(
    const std::string& program, const std::string& source_name) {
  protocol::CompileRequest req;
  req.program = program;
  req.source_name = source_name;
  SEQDL_ASSIGN_OR_RETURN(
      protocol::Reply reply,
      RoundTrip(protocol::EncodeCompileRequest(req), MsgType::kCompile));
  return reply.compile;
}

Result<protocol::RunReply> Client::Run(const std::string& program,
                                       const std::string& output_rel,
                                       const std::string& source_name) {
  protocol::RunRequest req;
  req.program = program;
  req.source_name = source_name;
  req.output_rel = output_rel;
  SEQDL_ASSIGN_OR_RETURN(
      protocol::Reply reply,
      RoundTrip(protocol::EncodeRunRequest(req), MsgType::kRun));
  return reply.run;
}

Result<protocol::AppendReply> Client::Append(const std::string& facts,
                                             const std::string& source_name) {
  protocol::AppendRequest req;
  req.facts = facts;
  req.source_name = source_name;
  SEQDL_ASSIGN_OR_RETURN(
      protocol::Reply reply,
      RoundTrip(protocol::EncodeAppendRequest(req), MsgType::kAppend));
  return reply.append;
}

Result<protocol::RetractReply> Client::Retract(
    const std::string& facts, const std::string& source_name) {
  protocol::RetractRequest req;
  req.facts = facts;
  req.source_name = source_name;
  SEQDL_ASSIGN_OR_RETURN(
      protocol::Reply reply,
      RoundTrip(protocol::EncodeRetractRequest(req), MsgType::kRetract));
  return reply.retract;
}

Result<protocol::DbInfo> Client::Epoch() {
  SEQDL_ASSIGN_OR_RETURN(
      protocol::Reply reply,
      RoundTrip(protocol::EncodeBareRequest(MsgType::kEpoch),
                MsgType::kEpoch));
  return reply.info;
}

Result<protocol::CompactReply> Client::Compact() {
  SEQDL_ASSIGN_OR_RETURN(
      protocol::Reply reply,
      RoundTrip(protocol::EncodeBareRequest(MsgType::kCompact),
                MsgType::kCompact));
  return reply.compact;
}

Result<protocol::StatsReply> Client::Stats() {
  SEQDL_ASSIGN_OR_RETURN(
      protocol::Reply reply,
      RoundTrip(protocol::EncodeBareRequest(MsgType::kStats),
                MsgType::kStats));
  return reply.stats;
}

Result<protocol::HelloReply> Client::Hello() {
  protocol::HelloRequest req;
  Result<protocol::Reply> reply =
      RoundTrip(protocol::EncodeHelloRequest(req), MsgType::kHello);
  if (!reply.ok()) {
    const Status& st = reply.status();
    if (st.code() == StatusCode::kInvalidArgument &&
        st.message().find("unknown request type") != std::string::npos) {
      // A pre-handshake server rejects kHello at the decode layer; to
      // this client that *is* a version mismatch.
      return Status::FailedPrecondition(
          "wire version mismatch: peer predates the handshake (client "
          "speaks version " +
          std::to_string(protocol::kWireVersion) + ")");
    }
    return st;
  }
  if (reply->hello.wire_version != protocol::kWireVersion) {
    return Status::FailedPrecondition(
        "wire version mismatch: client speaks version " +
        std::to_string(protocol::kWireVersion) + ", server speaks version " +
        std::to_string(reply->hello.wire_version));
  }
  return reply->hello;
}

Status Client::Shutdown() {
  Result<protocol::Reply> reply = RoundTrip(
      protocol::EncodeBareRequest(MsgType::kShutdown), MsgType::kShutdown);
  if (!reply.ok()) return reply.status();
  return Status::OK();
}

}  // namespace seqdl
