#include "net/fault_proxy.h"

#include <errno.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <thread>
#include <utility>

#include "core/random.h"

namespace robust_sampling {
namespace net {

FaultProxy::FaultProxy(FaultProxyOptions options)
    : options_(std::move(options)),
      server_([this](int fd, uint64_t index) { Relay(fd, index); }) {}

FaultProxy::~FaultProxy() { Stop(); }

bool FaultProxy::Start(std::string* error) {
  return server_.Start(options_.listen_port, error);
}

void FaultProxy::Stop() { server_.Stop(); }

void FaultProxy::Relay(int client_fd, uint64_t index) {
  const FaultMode mode =
      options_.schedule.empty()
          ? FaultMode::kPass
          : options_.schedule[index % options_.schedule.size()];
  if (mode != FaultMode::kPass) {
    faults_.fetch_add(1, std::memory_order_relaxed);
  }
  const uint64_t rand = SplitMix64(options_.seed + index).Next();

  const int upstream_fd =
      mode == FaultMode::kDrop
          ? -1  // blackhole never contacts the upstream
          : ConnectWithDeadline(options_.upstream_host,
                                options_.upstream_port,
                                options_.connect_timeout_ms);
  if (mode != FaultMode::kDrop && upstream_fd < 0) return;

  // kTruncate: forward exactly this many client bytes, then cut. Seeded
  // into [cut/2, cut) so the cut lands at a different mid-frame offset
  // per connection but is reproducible for a given seed.
  const size_t cut =
      static_cast<size_t>(options_.truncate_cut_bytes / 2 +
                          rand % static_cast<uint64_t>(std::max(
                                     1, options_.truncate_cut_bytes / 2)));
  size_t client_bytes = 0;   // client -> upstream bytes forwarded so far
  bool flipped = false;
  uint8_t buf[4096];
  bool done = false;

  while (!done && !server_.stopping()) {
    pollfd pfds[2];
    pfds[0] = {client_fd, POLLIN, 0};
    pfds[1] = {upstream_fd, POLLIN, 0};
    const nfds_t nfds = upstream_fd >= 0 ? 2 : 1;
    const int rc = poll(pfds, nfds, kIdlePollMs);
    if (rc < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if (rc == 0) continue;  // idle tick; re-check stop

    // Client -> upstream: the faulty direction.
    if (pfds[0].revents & (POLLIN | POLLHUP | POLLERR)) {
      ssize_t got;
      do {
        got = recv(client_fd, buf, sizeof(buf), 0);
      } while (got < 0 && errno == EINTR);
      if (got <= 0) break;  // client gone (or error): tear down
      size_t n = static_cast<size_t>(got);
      switch (mode) {
        case FaultMode::kDrop:
          break;  // swallow
        case FaultMode::kHardClose:
          done = true;  // first byte kills the connection
          break;
        case FaultMode::kTruncate: {
          const size_t remaining =
              client_bytes < cut ? cut - client_bytes : 0;
          const size_t fwd = std::min(n, remaining);
          if (fwd > 0 && !SendAll(upstream_fd, buf, fwd)) done = true;
          client_bytes += fwd;
          if (client_bytes >= cut) done = true;
          break;
        }
        case FaultMode::kBitFlip: {
          if (!flipped) {
            buf[rand % n] ^= static_cast<uint8_t>(1u << ((rand >> 8) % 8));
            flipped = true;
          }
          if (!SendAll(upstream_fd, buf, n)) done = true;
          client_bytes += n;
          break;
        }
        case FaultMode::kDelay:
          std::this_thread::sleep_for(
              std::chrono::milliseconds(options_.delay_ms));
          [[fallthrough]];
        case FaultMode::kPass:
          if (!SendAll(upstream_fd, buf, n)) done = true;
          client_bytes += n;
          break;
      }
    }

    // Upstream -> client: relayed faithfully (except drop/hard-close,
    // which never get here or tear down first).
    if (!done && upstream_fd >= 0 &&
        (pfds[1].revents & (POLLIN | POLLHUP | POLLERR))) {
      ssize_t got;
      do {
        got = recv(upstream_fd, buf, sizeof(buf), 0);
      } while (got < 0 && errno == EINTR);
      if (got <= 0) break;
      if (mode == FaultMode::kDrop) continue;  // unreachable; for symmetry
      if (!SendAll(client_fd, buf, static_cast<size_t>(got))) break;
    }
  }

  if (upstream_fd >= 0) close(upstream_fd);
}

}  // namespace net
}  // namespace robust_sampling
