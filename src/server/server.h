// The seqdl TCP front end: a poll-based accept loop feeding a pool of N
// worker threads, each serving one client connection at a time over the
// framed wire protocol (protocol.h) against a shared DatabaseService
// (service.h).
//
// Life of a request: the acceptor thread polls the listening socket,
// accepts a connection (TCP_NODELAY), and queues it; a worker picks the
// connection up and loops read-frame -> decode -> dispatch -> write-reply
// until the client disconnects. Runs execute on epoch-pinned
// Database::Snapshot() sessions, so any number of runs race safely with
// each other and with appends/compactions from other connections
// (single-writer/multi-reader, exactly the database's MVCC contract).
// Compiled programs are shared across all connections through the
// service's text-keyed cache with stats-drift recompilation.
//
// Shutdown is graceful: Shutdown() (or a client's `shutdown` request)
// stops the acceptor, cancels in-flight runs through RunOptions::cancel
// (clients see kCancelled error replies), lets each worker finish — never
// abandon mid-write — its current reply, closes every connection, and
// joins all threads. Queued-but-unserved connections are closed without a
// reply. A frame whose declared length exceeds
// ServerOptions::max_frame_bytes gets a kResourceExhausted error reply
// and the connection is closed (the bytes are never read).
//
//   SEQDL_ASSIGN_OR_RETURN(Database db, Database::Open(u, std::move(edb)));
//   DatabaseService service(u, std::move(db));
//   SEQDL_ASSIGN_OR_RETURN(std::unique_ptr<Server> server,
//                          Server::Start(service, {.port = 0}));
//   std::fprintf(stderr, "listening on %u\n", server->port());
//   server->Wait();  // returns once a shutdown request drained the server
#ifndef SEQDL_SERVER_SERVER_H_
#define SEQDL_SERVER_SERVER_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "src/base/status.h"
#include "src/server/protocol.h"
#include "src/server/service.h"

namespace seqdl {

/// What a Server serves: one request payload in, one encoded reply frame
/// out. BackendHandler below is the protocol's one request switch; the
/// `seqdl serve` stdin loop answers each line through it too.
class RequestHandler {
 public:
  virtual ~RequestHandler() = default;

  /// Decode + dispatch one request payload and return the complete
  /// encoded reply frame. `cancel` turns true when the server starts
  /// draining (wire it into long-running evaluation); set *shutdown to
  /// make the server drain after this reply is written.
  virtual std::string Handle(const std::string& payload,
                             const std::function<bool()>& cancel,
                             bool* shutdown) = 0;
};

/// The wire protocol's request switch over a backend whose methods carry
/// the request verbs' names: a DatabaseService (ServiceRequestHandler, a
/// single node) or a cluster Coordinator (cluster/coordinator.h) — same
/// accept loop, same drain semantics, different brain. A method may
/// return its reply or a Result of it.
template <typename Backend>
class BackendHandler : public RequestHandler {
 public:
  /// `forward_shutdown` concerns a coordinator only: when set, a client's
  /// kShutdown is broadcast to the shards (best-effort) before the
  /// coordinator itself drains, so one `shutdown` takes the whole cluster
  /// down.
  explicit BackendHandler(Backend& backend, bool forward_shutdown = true)
      : backend_(backend), forward_shutdown_(forward_shutdown) {}

  std::string Handle(const std::string& payload,
                     const std::function<bool()>& cancel,
                     bool* shutdown) override {
    using protocol::MsgType;
    *shutdown = false;
    // Best-effort original type for error replies to undecodable frames.
    MsgType orig = payload.empty() ? MsgType::kReply
                                   : static_cast<MsgType>(
                                         static_cast<uint8_t>(payload[0]));
    Result<protocol::Request> req = protocol::DecodeRequest(payload);
    if (!req.ok()) return protocol::EncodeErrorReply(orig, req.status());

    switch (req->type) {
      case MsgType::kCompile:
        return Answer<protocol::CompileReply>(
            req->type, backend_.Compile(req->compile),
            protocol::EncodeCompileReply);
      case MsgType::kRun:
        // The cancel hook ties every in-flight run to the server's stop
        // flag: Shutdown() makes the engine bail at the next fixpoint
        // round with kCancelled, which goes out as this run's error reply.
        return Answer<protocol::RunReply>(
            req->type, backend_.Run(req->run, cancel),
            protocol::EncodeRunReply);
      case MsgType::kAppend:
        return Answer<protocol::AppendReply>(
            req->type, backend_.Append(req->append),
            protocol::EncodeAppendReply);
      case MsgType::kRetract:
        return Answer<protocol::RetractReply>(
            req->type, backend_.Retract(req->retract),
            protocol::EncodeRetractReply);
      case MsgType::kEpoch:
        return Answer<protocol::DbInfo>(req->type, backend_.Info(),
                                        protocol::EncodeEpochReply);
      case MsgType::kCompact:
        return Answer<protocol::CompactReply>(
            req->type, backend_.Compact(), protocol::EncodeCompactReply);
      case MsgType::kStats:
        return Answer<protocol::StatsReply>(req->type, backend_.Stats(),
                                            protocol::EncodeStatsReply);
      case MsgType::kHello:
        // The handshake always succeeds at the frame level: the *client*
        // decides whether the versions are compatible (it may be newer or
        // older), so the reply just reports ours. A coordinator answers
        // for itself, whatever its shards speak.
        return protocol::EncodeHelloReply({protocol::kWireVersion});
      case MsgType::kShutdown:
        if constexpr (requires { backend_.ShutdownShards(); }) {
          // Best-effort: an unreachable shard must not keep the
          // coordinator up; its error is reported nowhere because the
          // client asked the cluster to die either way.
          if (forward_shutdown_) (void)backend_.ShutdownShards();
        }
        *shutdown = true;
        return protocol::EncodeShutdownReply();
      default:
        return protocol::EncodeErrorReply(
            req->type, Status::Unimplemented("request type not handled"));
    }
  }

 private:
  /// The reply frame of `r`: its encoding, or an error reply.
  template <typename Reply>
  static std::string Answer(protocol::MsgType type, const Result<Reply>& r,
                            std::string (*encode)(const Reply&)) {
    if (!r.ok()) return protocol::EncodeErrorReply(type, r.status());
    return encode(*r);
  }

  Backend& backend_;
  bool forward_shutdown_;
};

/// The standard handler: dispatches the wire protocol onto a
/// DatabaseService.
using ServiceRequestHandler = BackendHandler<DatabaseService>;

struct ServerOptions {
  /// Address to bind; the default serves loopback only.
  std::string host = "127.0.0.1";
  /// 0 picks an ephemeral port (read it back via Server::port()).
  uint16_t port = 0;
  /// Worker threads; each serves one connection at a time, so this is
  /// also the number of concurrently served clients.
  size_t threads = 4;
  /// Frames declared larger than this are rejected with an error reply.
  size_t max_frame_bytes = protocol::kDefaultMaxFrameBytes;
  /// listen(2) backlog.
  int backlog = 128;
};

/// A running seqdl TCP server. Create with Start; non-movable (live
/// threads point at it) — hold by unique_ptr.
class Server {
 public:
  /// Binds, listens, and spawns the acceptor + worker threads. The
  /// service must outlive the returned server.
  static Result<std::unique_ptr<Server>> Start(DatabaseService& service,
                                               const ServerOptions& opts = {});

  /// Same, serving an arbitrary handler (which must outlive the server).
  static Result<std::unique_ptr<Server>> Start(RequestHandler& handler,
                                               const ServerOptions& opts = {});

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Implies Shutdown().
  ~Server();

  /// The bound port (the chosen one when options said 0).
  uint16_t port() const { return port_; }
  const std::string& host() const { return host_; }

  /// Graceful drain: stop accepting, cancel in-flight runs, finish
  /// current replies, close connections, join threads. Idempotent and
  /// callable from any thread (including concurrently with Wait()).
  void Shutdown();

  /// Blocks until the server has shut down — via Shutdown() from another
  /// thread or a client's `shutdown` request — then completes the drain
  /// and returns.
  void Wait();

  /// True once shutdown has been requested (drain may still be running).
  bool ShuttingDown() const {
    return stop_.load(std::memory_order_relaxed);
  }

  /// Total connections accepted / requests answered (monotonic).
  uint64_t connections_accepted() const {
    return connections_.load(std::memory_order_relaxed);
  }
  uint64_t requests_served() const {
    return requests_.load(std::memory_order_relaxed);
  }

 private:
  Server(RequestHandler& handler, const ServerOptions& opts);

  Status Listen();
  void AcceptLoop();
  void WorkerLoop();
  /// Serves one connection until disconnect/shutdown; owns and closes fd.
  void ServeConnection(int fd);
  /// Sets the stop flag and wakes the acceptor and every worker.
  void SignalShutdown();

  RequestHandler& handler_;
  /// Owns the adapter when started via the DatabaseService overload.
  std::unique_ptr<ServiceRequestHandler> owned_handler_;
  ServerOptions opts_;
  std::string host_;
  uint16_t port_ = 0;

  int listen_fd_ = -1;
  int wake_rd_ = -1, wake_wr_ = -1;  ///< self-pipe: poll-wake on shutdown

  std::atomic<bool> stop_{false};
  std::atomic<uint64_t> connections_{0};
  std::atomic<uint64_t> requests_{0};

  std::mutex queue_mu_;
  std::condition_variable queue_cv_;
  std::deque<int> pending_;  ///< accepted fds awaiting a worker

  std::mutex lifecycle_mu_;  ///< serializes the join/close of Shutdown
  bool joined_ = false;
  std::mutex wait_mu_;  ///< Wait() blocks on this, never on lifecycle_mu_,
                        ///< so a worker's own SignalShutdown cannot
                        ///< deadlock against a concurrent join
  std::condition_variable stopped_cv_;

  std::thread acceptor_;
  std::vector<std::thread> workers_;
};

}  // namespace seqdl

#endif  // SEQDL_SERVER_SERVER_H_
