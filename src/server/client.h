// Blocking C++ client for the seqdl wire protocol: one TCP connection,
// one outstanding request at a time. Used by `seqdl query --connect`,
// the server tests (including the loopback differential), and the
// bench_server load generator.
//
//   SEQDL_ASSIGN_OR_RETURN(Client c, Client::Connect("127.0.0.1", port));
//   SEQDL_ASSIGN_OR_RETURN(protocol::RunReply r, c.Run(program_text));
//   std::fputs(r.rendered.c_str(), stdout);
//
// Each method ships text to the server, blocks for the reply frame, and
// surfaces a server-side error Status as this call's error — a parse
// error in a shipped program comes back as kInvalidArgument with the
// "<source_name>:line:col: ..." message the server rendered. Transport
// failures (connection reset, truncated reply) are kInvalidArgument /
// kNotFound from the frame layer.
//
// A Client is move-only (it owns the socket) and not thread-safe; open
// one per thread — connections are cheap next to the EDB they avoid
// shipping.
#ifndef SEQDL_SERVER_CLIENT_H_
#define SEQDL_SERVER_CLIENT_H_

#include <cstdint>
#include <memory>
#include <string>

#include "src/base/status.h"
#include "src/server/protocol.h"

namespace seqdl {

/// Deadlines and limits for a client connection. The zero defaults mean
/// "block forever" — exactly the pre-options behavior — so existing
/// callers are unaffected; the cluster coordinator sets both timeouts so
/// a hung shard surfaces as kDeadlineExceeded instead of a stalled
/// scatter-gather.
struct ClientOptions {
  /// Milliseconds to wait for connect(2) to complete; 0 blocks forever.
  uint32_t connect_timeout_ms = 0;
  /// Milliseconds a single send or receive may stall before the round
  /// trip fails with kDeadlineExceeded; 0 blocks forever. A deadline
  /// failure leaves the stream position unknown — Close() the client.
  uint32_t io_timeout_ms = 0;
  size_t max_frame_bytes = protocol::kDefaultMaxFrameBytes;
};

class Client {
 public:
  /// Connects to host:port (IPv4 dotted quad or "localhost") and enables
  /// TCP_NODELAY — queries are small; latency beats batching.
  static Result<Client> Connect(
      const std::string& host, uint16_t port,
      size_t max_frame_bytes = protocol::kDefaultMaxFrameBytes);

  /// Connect with deadlines: a connect that does not complete within
  /// connect_timeout_ms fails with kDeadlineExceeded (unreachable peers
  /// stay kNotFound), and every later round trip is bounded by
  /// io_timeout_ms.
  static Result<Client> Connect(const std::string& host, uint16_t port,
                                const ClientOptions& options);

  Client(Client&& other) noexcept;
  Client& operator=(Client&& other) noexcept;
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;
  ~Client();

  /// Parse + plan `program` server-side and cache it by text.
  Result<protocol::CompileReply> Compile(const std::string& program,
                                         const std::string& source_name = "");

  /// Evaluate `program` on an epoch-pinned server snapshot; the reply
  /// carries the rendered derived facts (projected onto `output_rel`
  /// when nonempty).
  Result<protocol::RunReply> Run(const std::string& program,
                                 const std::string& output_rel = "",
                                 const std::string& source_name = "");

  /// Ingest `facts` (instance syntax) as a new epoch.
  Result<protocol::AppendReply> Append(const std::string& facts,
                                       const std::string& source_name = "");

  /// Retract `facts` (instance syntax): visible matches are shadowed by
  /// a tombstone segment at a new epoch. The reply counts the facts that
  /// were actually visible (retracting an absent fact is a no-op).
  Result<protocol::RetractReply> Retract(const std::string& facts,
                                         const std::string& source_name = "");

  Result<protocol::DbInfo> Epoch();
  Result<protocol::CompactReply> Compact();
  Result<protocol::StatsReply> Stats();

  /// Handshake: exchanges wire-format versions. Fails with
  /// kFailedPrecondition naming both versions on a mismatch; a
  /// pre-handshake server's "unknown request type" reply is reported the
  /// same way (it cannot speak this client's protocol either).
  Result<protocol::HelloReply> Hello();

  /// Asks the server to drain and exit. The reply arrives before the
  /// server closes the connection.
  Status Shutdown();

  /// Closes the connection (also done by the destructor). Safe to call
  /// twice.
  void Close();
  bool connected() const { return fd_ >= 0; }

  /// The raw socket, for tests that need to misbehave at the byte level
  /// (oversized frames, truncated frames, mid-run disconnects).
  int fd() const { return fd_; }

  /// Sends one encoded request frame (protocol.h encoders) and decodes the
  /// reply; checks the reply answers `expect` and propagates an error
  /// Status from the server. The typed methods above wrap it; `seqdl
  /// query` calls it with the frame its command table built.
  Result<protocol::Reply> RoundTrip(const std::string& frame,
                                    protocol::MsgType expect);

 private:
  Client(int fd, const ClientOptions& options)
      : fd_(fd),
        max_frame_bytes_(options.max_frame_bytes),
        io_timeout_ms_(options.io_timeout_ms) {}

  int fd_ = -1;
  size_t max_frame_bytes_ = protocol::kDefaultMaxFrameBytes;
  uint32_t io_timeout_ms_ = 0;
  /// Buffered reply reader, created on first round trip. Do not mix the
  /// typed methods with another reader of fd() on one connection —
  /// buffered bytes would be lost (raw byte-level tests use only raw IO).
  std::unique_ptr<protocol::FrameReader> reader_;
};

}  // namespace seqdl

#endif  // SEQDL_SERVER_CLIENT_H_
