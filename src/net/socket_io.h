#ifndef ROBUST_SAMPLING_NET_SOCKET_IO_H_
#define ROBUST_SAMPLING_NET_SOCKET_IO_H_

#include <cstddef>
#include <cstdint>
#include <string>

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
