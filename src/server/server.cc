#include "src/server/server.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <ctime>
#include <utility>

namespace seqdl {

namespace {

void CloseFd(int& fd) {
  if (fd >= 0) {
    ::close(fd);
    fd = -1;
  }
}

/// Waits until `fd` is readable, `wake_fd` fires, or `stop` turns true.
/// Returns false when the caller should give up (shutdown), true when
/// `fd` has data (or the poll should be retried after a timeout slice —
/// the caller re-checks stop either way).
bool WaitReadable(int fd, int wake_fd, const std::atomic<bool>& stop) {
  while (!stop.load(std::memory_order_relaxed)) {
    struct pollfd fds[2];
    fds[0] = {fd, POLLIN, 0};
    fds[1] = {wake_fd, POLLIN, 0};
    int n = ::poll(fds, 2, /*timeout_ms=*/250);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    if (fds[1].revents != 0) return false;  // shutdown wake
    if (fds[0].revents != 0) return true;   // data (or hangup: read sees it)
  }
  return false;
}

}  // namespace

Server::Server(RequestHandler& handler, const ServerOptions& opts)
    : handler_(handler), opts_(opts), host_(opts.host) {}

Result<std::unique_ptr<Server>> Server::Start(DatabaseService& service,
                                              const ServerOptions& opts) {
  auto adapter = std::make_unique<ServiceRequestHandler>(service);
  SEQDL_ASSIGN_OR_RETURN(std::unique_ptr<Server> server,
                         Start(*adapter, opts));
  // The adapter outlives the worker threads: they are joined by
  // Shutdown(), which runs before the server (and this member) dies.
  server->owned_handler_ = std::move(adapter);
  return server;
}

Result<std::unique_ptr<Server>> Server::Start(RequestHandler& handler,
                                              const ServerOptions& opts) {
  // No make_unique: the constructor is private to force Start().
  std::unique_ptr<Server> server(new Server(handler, opts));
  SEQDL_RETURN_IF_ERROR(server->Listen());
  int pipe_fds[2];
  if (::pipe(pipe_fds) != 0) {
    return Status::Internal(std::string("pipe failed: ") +
                            std::strerror(errno));
  }
  server->wake_rd_ = pipe_fds[0];
  server->wake_wr_ = pipe_fds[1];
  server->acceptor_ = std::thread([s = server.get()] { s->AcceptLoop(); });
  server->workers_.reserve(opts.threads == 0 ? 1 : opts.threads);
  for (size_t i = 0; i < (opts.threads == 0 ? 1 : opts.threads); ++i) {
    server->workers_.emplace_back([s = server.get()] { s->WorkerLoop(); });
  }
  return server;
}

Server::~Server() { Shutdown(); }

Status Server::Listen() {
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    return Status::Internal(std::string("socket failed: ") +
                            std::strerror(errno));
  }
  int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  struct sockaddr_in addr;
  if (Status st = protocol::FillSockAddr(host_, opts_.port, &addr);
      !st.ok()) {
    CloseFd(listen_fd_);
    return st;
  }
  if (::bind(listen_fd_, reinterpret_cast<struct sockaddr*>(&addr),
             sizeof(addr)) != 0) {
    Status st = Status::Internal("bind " + host_ + ":" +
                                 std::to_string(opts_.port) + " failed: " +
                                 std::strerror(errno));
    CloseFd(listen_fd_);
    return st;
  }
  if (::listen(listen_fd_, opts_.backlog) != 0) {
    Status st = Status::Internal(std::string("listen failed: ") +
                                 std::strerror(errno));
    CloseFd(listen_fd_);
    return st;
  }
  socklen_t len = sizeof(addr);
  if (::getsockname(listen_fd_, reinterpret_cast<struct sockaddr*>(&addr),
                    &len) == 0) {
    port_ = ntohs(addr.sin_port);
  }
  return Status::OK();
}

void Server::AcceptLoop() {
  while (WaitReadable(listen_fd_, wake_rd_, stop_)) {
    int conn = ::accept(listen_fd_, nullptr, nullptr);
    if (conn < 0) {
      if (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK) continue;
      // Transient per-connection failures (client RST before accept, fd
      // exhaustion, buffer pressure) must not kill the accept loop — a
      // server that silently stops accepting looks healthy from inside.
      if (errno == ECONNABORTED || errno == EPROTO || errno == ENOBUFS ||
          errno == ENOMEM || errno == EMFILE || errno == ENFILE) {
        if (errno == EMFILE || errno == ENFILE) {
          // Out of fds: back off briefly so the busy workers can close
          // some before the next accept attempt.
          struct timespec nap = {0, 50 * 1000 * 1000};
          ::nanosleep(&nap, nullptr);
        }
        continue;
      }
      break;  // listen socket gone (shutdown) or unrecoverable
    }
    protocol::SetNoDelay(conn);
    connections_.fetch_add(1, std::memory_order_relaxed);
    {
      std::lock_guard<std::mutex> lock(queue_mu_);
      if (stop_.load(std::memory_order_relaxed)) {
        ::close(conn);
        break;
      }
      pending_.push_back(conn);
    }
    queue_cv_.notify_one();
  }
}

void Server::WorkerLoop() {
  while (true) {
    int conn = -1;
    {
      std::unique_lock<std::mutex> lock(queue_mu_);
      queue_cv_.wait(lock, [this] {
        return stop_.load(std::memory_order_relaxed) || !pending_.empty();
      });
      if (pending_.empty()) return;  // stop_ and nothing queued
      if (stop_.load(std::memory_order_relaxed)) return;  // drain: drop queued
      conn = pending_.front();
      pending_.pop_front();
    }
    ServeConnection(conn);
  }
}

void Server::ServeConnection(int fd) {
  // A receive timeout instead of a per-frame poll(2): the hot path is
  // one buffered recv per small request, and the timeout bounds how
  // long a drain waits on an idle or stalled connection — even one that
  // parked mid-frame.
  struct timeval timeout = {0, 200 * 1000};
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
  protocol::FrameReader reader(fd, opts_.max_frame_bytes);
  while (!stop_.load(std::memory_order_relaxed)) {
    bool timed_out = false;
    Result<std::string> payload = reader.Next(&timed_out);
    if (timed_out) continue;
    if (!payload.ok()) {
      if (payload.status().code() == StatusCode::kResourceExhausted) {
        // Oversized frame: tell the client why before hanging up. The
        // declared bytes were never read, so the stream is unusable —
        // close rather than resynchronize.
        (void)protocol::WriteFrame(
            fd, protocol::EncodeErrorReply(protocol::MsgType::kReply,
                                           payload.status()));
      }
      // Clean EOF (kNotFound), truncated frame, or socket error: close.
      break;
    }
    bool shutdown = false;
    std::string reply = handler_.Handle(
        *payload, [this] { return stop_.load(std::memory_order_relaxed); },
        &shutdown);
    if (reply.size() > 4 + opts_.max_frame_bytes) {
      // The client's frame limit mirrors ours; shipping an over-limit
      // reply would poison its stream with a misleading "oversized
      // frame". Send a clean error instead (the connection survives).
      protocol::MsgType orig =
          payload->empty() ? protocol::MsgType::kReply
                           : static_cast<protocol::MsgType>(
                                 static_cast<uint8_t>((*payload)[0]));
      reply = protocol::EncodeErrorReply(
          orig, Status::ResourceExhausted(
                    "reply too large: " + std::to_string(reply.size() - 4) +
                    " bytes exceed the " +
                    std::to_string(opts_.max_frame_bytes) +
                    "-byte frame limit"));
    }
    requests_.fetch_add(1, std::memory_order_relaxed);
    // A client that disconnected mid-run surfaces here as a failed
    // write; the run's effects (appends, cache fills) stand.
    Status wrote = protocol::WriteFrame(fd, reply);
    if (shutdown) {
      SignalShutdown();
      break;
    }
    if (!wrote.ok()) break;
  }
  ::close(fd);
}

void Server::SignalShutdown() {
  bool was_stopped = stop_.exchange(true, std::memory_order_relaxed);
  if (!was_stopped && wake_wr_ >= 0) {
    // One byte per shutdown; nobody drains the pipe, so every poll on
    // wake_rd_ fires from here on — exactly the intent.
    char b = 'x';
    (void)!::write(wake_wr_, &b, 1);
  }
  // Empty critical sections close the check-then-block window: a waiter
  // has either observed stop_ in its predicate or is already blocked
  // when the notify lands.
  { std::lock_guard<std::mutex> lock(queue_mu_); }
  queue_cv_.notify_all();
  { std::lock_guard<std::mutex> lock(wait_mu_); }
  stopped_cv_.notify_all();
}

void Server::Shutdown() {
  SignalShutdown();
  std::lock_guard<std::mutex> lock(lifecycle_mu_);
  if (joined_) return;
  joined_ = true;
  if (acceptor_.joinable()) acceptor_.join();
  for (std::thread& w : workers_) {
    if (w.joinable()) w.join();
  }
  // Connections accepted but never picked up drain without a reply.
  for (int fd : pending_) ::close(fd);
  pending_.clear();
  CloseFd(listen_fd_);
  CloseFd(wake_rd_);
  CloseFd(wake_wr_);
}

void Server::Wait() {
  {
    std::unique_lock<std::mutex> lock(wait_mu_);
    stopped_cv_.wait(lock, [this] {
      return stop_.load(std::memory_order_relaxed);
    });
  }
  Shutdown();
}

}  // namespace seqdl
