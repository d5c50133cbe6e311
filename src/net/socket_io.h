#ifndef ROBUST_SAMPLING_NET_SOCKET_IO_H_
#define ROBUST_SAMPLING_NET_SOCKET_IO_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <list>
#include <string>
#include <thread>
#include <utility>

#include "wire/codec.h"

namespace robust_sampling {
namespace net {

// ---------------------------------------------------------------------------
// TCP transport primitives for the aggregation tier (docs/distributed.md).
//
// SocketSink layers the wire codec's ByteSink contract over a connected
// stream socket; the read side is plain wire::FdSource (read(2) on a
// connected socket is recv without flags). Everything that already
// serializes through the codec — snapshots, checkpoints, framed bodies —
// ships over TCP unchanged. Failure semantics match the codec: any
// unrecoverable socket error (peer reset, deadline expiry, EPIPE) latches
// the sink/source failed and every later call is a no-op; nothing aborts,
// nothing raises SIGPIPE, nothing blocks forever.
//
// Deadlines are per-operation socket timeouts (SO_RCVTIMEO / SO_SNDTIMEO):
// a recv or send that makes no progress within the deadline fails the
// stream. That is the half-open-peer defence — a peer that vanished
// without a FIN costs one deadline, not a hang.
// ---------------------------------------------------------------------------

/// recv/send deadline on every connection a LoopbackServer accepts.
inline constexpr int kIoTimeoutMs = 2000;
/// Granularity at which idle accept and connection loops re-check for a
/// stop request.
inline constexpr int kIdlePollMs = 50;

/// Applies per-operation deadlines to a connected socket. 0 disables the
/// corresponding timeout (block indefinitely). Returns false if either
/// setsockopt failed.
bool SetSocketDeadlines(int fd, int recv_timeout_ms, int send_timeout_ms);

/// Connects to host:port (numeric IPv4 host, e.g. "127.0.0.1") with a
/// connect deadline: the connect runs non-blocking and is polled until it
/// completes or `connect_timeout_ms` expires. Returns the connected fd, or
/// -1 (with errno from the failing call). EINTR-safe.
int ConnectWithDeadline(const std::string& host, uint16_t port,
                        int connect_timeout_ms);

/// Opens a loopback listener. `port` 0 binds an ephemeral port;
/// `*bound_port` receives the actual one. SO_REUSEADDR is set so a
/// restarted collector can rebind its old port immediately (the kill -9
/// recovery path). Returns the listening fd or -1.
int ListenLoopback(uint16_t port, uint16_t* bound_port, int backlog = 16);

/// Accepts one connection, waiting at most `timeout_ms` (0 = wait
/// forever). Returns the connected fd, -1 on timeout, -2 on listener
/// error. EINTR-safe.
int AcceptWithTimeout(int listen_fd, int timeout_ms);

/// The one accept loop of every loopback TCP service (Collector<T>,
/// obs::AdminServer, FaultProxy). It owns the listener and one accept
/// thread; each accepted connection gets kIoTimeoutMs deadlines and its
/// own thread, which runs `serve(fd, index)` (index = accept order,
/// counting from 0 over the server's lifetime) and then closes the fd.
/// Before each accept the loop joins the threads that have finished, so
/// threads and stacks are held only for connections still open. `serve`
/// runs concurrently with itself and with the owner's threads; a
/// long-lived `serve` polls stopping() at kIdlePollMs so Stop() stays
/// prompt.
class LoopbackServer {
 public:
  using Serve = std::function<void(int fd, uint64_t index)>;

  explicit LoopbackServer(Serve serve) : serve_(std::move(serve)) {}
  ~LoopbackServer() { Stop(); }
  LoopbackServer(const LoopbackServer&) = delete;
  LoopbackServer& operator=(const LoopbackServer&) = delete;

  /// Binds 127.0.0.1:`port` (0 = ephemeral) and starts accepting. True
  /// when already running; false with a reason on bind failure.
  bool Start(uint16_t port, std::string* error = nullptr);

  /// Stops accepting, closes the listener, and joins every connection
  /// thread. Idempotent.
  void Stop();

  /// The bound port; 0 when not running.
  uint16_t port() const { return port_.load(std::memory_order_acquire); }
  /// True once Stop() has begun (and before the first Start).
  bool stopping() const { return stop_.load(std::memory_order_acquire); }

 private:
  struct Connection {
    std::thread thread;
    std::atomic<bool> done{false};
  };

  void AcceptLoop();
  void JoinFinishedConnections();

  const Serve serve_;
  int listen_fd_ = -1;
  std::atomic<uint16_t> port_{0};
  std::atomic<bool> stop_{true};
  // Accept-thread only (Stop() clears conns_ after joining that thread). A
  // list keeps each `done` flag's address stable while finished
  // neighbours are erased.
  std::list<Connection> conns_;
  uint64_t accepted_ = 0;
  std::thread accept_thread_;
};

/// Sends all `n` bytes on a connected socket with send(..., MSG_NOSIGNAL),
/// retrying short writes and EINTR. Returns false on any unrecoverable
/// error: a hung-up peer is EPIPE -> false, never a SIGPIPE. Successful
/// chunks count toward rs_wire_bytes_out_total. Every socket writer
/// (SocketSink, the admin plane, FaultProxy) goes through this loop.
bool SendAll(int fd, const void* data, size_t n);

/// ByteSink over a connected socket: one SendAll per Append, so a framed
/// message costs three send(2) calls and a hung-up peer surfaces as
/// ok() == false. Does not own the fd.
class SocketSink final : public wire::ByteSink {
 public:
  explicit SocketSink(int fd) : fd_(fd) {}

  void Append(const void* data, size_t n) override;
  bool ok() const override { return ok_; }

 private:
  int fd_;
  bool ok_ = true;
};

}  // namespace net
}  // namespace robust_sampling

#endif  // ROBUST_SAMPLING_NET_SOCKET_IO_H_
