#include "net/socket_io.h"

#include <arpa/inet.h>
#include <errno.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <cstring>

#include "obs/catalog.h"

namespace robust_sampling {
namespace net {

namespace {

timeval MsToTimeval(int ms) {
  timeval tv;
  tv.tv_sec = ms / 1000;
  tv.tv_usec = (ms % 1000) * 1000;
  return tv;
}

bool SetNonBlocking(int fd, bool nonblocking) {
  const int flags = fcntl(fd, F_GETFL, 0);
  if (flags < 0) return false;
  const int want = nonblocking ? (flags | O_NONBLOCK) : (flags & ~O_NONBLOCK);
  if (want == flags) return true;
  return fcntl(fd, F_SETFL, want) == 0;
}

}  // namespace

bool SetSocketDeadlines(int fd, int recv_timeout_ms, int send_timeout_ms) {
  const timeval rcv = MsToTimeval(recv_timeout_ms);
  const timeval snd = MsToTimeval(send_timeout_ms);
  if (setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &rcv, sizeof(rcv)) != 0) {
    return false;
  }
  return setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &snd, sizeof(snd)) == 0;
}

int ConnectWithDeadline(const std::string& host, uint16_t port,
                        int connect_timeout_ms) {
  sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    errno = EINVAL;
    return -1;
  }

  const int fd = socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  if (!SetNonBlocking(fd, true)) {
    close(fd);
    return -1;
  }

  int rc;
  do {
    rc = connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr));
  } while (rc < 0 && errno == EINTR);

  if (rc < 0) {
    if (errno != EINPROGRESS) {
      close(fd);
      return -1;
    }
    // Non-blocking connect in flight: poll for writability, then read the
    // socket's pending error to learn whether the handshake succeeded.
    pollfd pfd = {fd, POLLOUT, 0};
    do {
      rc = poll(&pfd, 1, connect_timeout_ms > 0 ? connect_timeout_ms : -1);
    } while (rc < 0 && errno == EINTR);
    if (rc <= 0) {
      if (rc == 0) errno = ETIMEDOUT;
      close(fd);
      return -1;
    }
    int so_error = 0;
    socklen_t len = sizeof(so_error);
    if (getsockopt(fd, SOL_SOCKET, SO_ERROR, &so_error, &len) != 0 ||
        so_error != 0) {
      if (so_error != 0) errno = so_error;
      close(fd);
      return -1;
    }
  }

  if (!SetNonBlocking(fd, false)) {
    close(fd);
    return -1;
  }
  // Snapshot frames are latency-sensitive request/response pairs; never
  // let Nagle hold the tail of a frame.
  int one = 1;
  setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return fd;
}

int ListenLoopback(uint16_t port, uint16_t* bound_port, int backlog) {
  const int fd = socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  int one = 1;
  setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0 ||
      listen(fd, backlog) != 0) {
    close(fd);
    return -1;
  }
  if (bound_port != nullptr) {
    sockaddr_in actual;
    socklen_t len = sizeof(actual);
    if (getsockname(fd, reinterpret_cast<sockaddr*>(&actual), &len) != 0) {
      close(fd);
      return -1;
    }
    *bound_port = ntohs(actual.sin_port);
  }
  return fd;
}

int AcceptWithTimeout(int listen_fd, int timeout_ms) {
  pollfd pfd = {listen_fd, POLLIN, 0};
  int rc;
  do {
    rc = poll(&pfd, 1, timeout_ms > 0 ? timeout_ms : -1);
  } while (rc < 0 && errno == EINTR);
  if (rc == 0) return -1;
  if (rc < 0) return -2;
  int fd;
  do {
    fd = accept(listen_fd, nullptr, nullptr);
  } while (fd < 0 && errno == EINTR);
  if (fd < 0) return -2;
  int one = 1;
  setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return fd;
}

bool LoopbackServer::Start(uint16_t port, std::string* error) {
  if (listen_fd_ >= 0) return true;
  uint16_t bound = 0;
  listen_fd_ = ListenLoopback(port, &bound);
  if (listen_fd_ < 0) {
    if (error != nullptr) {
      *error = "cannot bind loopback port " + std::to_string(port) + ": " +
               std::strerror(errno);
    }
    return false;
  }
  port_.store(bound, std::memory_order_release);
  stop_.store(false, std::memory_order_release);
  accept_thread_ = std::thread(&LoopbackServer::AcceptLoop, this);
  return true;
}

void LoopbackServer::Stop() {
  if (listen_fd_ < 0) return;
  stop_.store(true, std::memory_order_release);
  accept_thread_.join();
  close(listen_fd_);
  listen_fd_ = -1;
  port_.store(0, std::memory_order_release);
  for (Connection& conn : conns_) conn.thread.join();
  conns_.clear();
}

void LoopbackServer::AcceptLoop() {
  while (!stopping()) {
    JoinFinishedConnections();
    const int fd = AcceptWithTimeout(listen_fd_, kIdlePollMs);
    if (fd < 0) continue;  // idle tick or failed accept: re-check stop
    SetSocketDeadlines(fd, kIoTimeoutMs, kIoTimeoutMs);
    const uint64_t index = accepted_++;
    Connection& conn = conns_.emplace_back();
    conn.thread = std::thread([this, fd, index, &conn] {
      serve_(fd, index);
      close(fd);
      conn.done.store(true, std::memory_order_release);
    });
  }
}

void LoopbackServer::JoinFinishedConnections() {
  for (auto it = conns_.begin(); it != conns_.end();) {
    if (it->done.load(std::memory_order_acquire)) {
      it->thread.join();
      it = conns_.erase(it);
    } else {
      ++it;
    }
  }
}

bool SendAll(int fd, const void* data, size_t n) {
  const auto* p = static_cast<const uint8_t*>(data);
  while (n > 0) {
    const ssize_t sent = send(fd, p, n, MSG_NOSIGNAL);
    if (sent < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    obs::WireBytesOut().Increment(static_cast<uint64_t>(sent));
    p += sent;
    n -= static_cast<size_t>(sent);
  }
  return true;
}

void SocketSink::Append(const void* data, size_t n) {
  if (!ok_ || n == 0) return;
  ok_ = SendAll(fd_, data, n);
}

}  // namespace net
}  // namespace robust_sampling
