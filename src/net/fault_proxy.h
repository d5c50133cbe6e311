#ifndef ROBUST_SAMPLING_NET_FAULT_PROXY_H_
#define ROBUST_SAMPLING_NET_FAULT_PROXY_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "net/socket_io.h"

namespace robust_sampling {
namespace net {

// ---------------------------------------------------------------------------
// FaultProxy: a deterministic seeded TCP relay between shipper and
// collector that injects the failure matrix docs/distributed.md documents.
// Robustness claims in tests/net_test.cc are exercised, not asserted:
// every mode below must end in either recovery-via-backoff or a clean
// fail-closed rejection — never a hang, crash, or silently wrong merge.
//
// Determinism: connection i (accept order) gets `schedule[i % size]`, and
// the byte/bit positions the faulty modes corrupt derive from
// SplitMix64(seed + i).Next() — same seed, same schedule, same faults.
//
// Connections come from net::LoopbackServer, the accept loop Collector<T>
// and obs::AdminServer share: each relay runs on its own thread, finished
// relays are joined before the next accept, and Stop() joins the rest.
// A long fault-matrix run therefore holds one thread per open connection,
// not one per connection it ever relayed.
// ---------------------------------------------------------------------------

enum class FaultMode : uint8_t {
  /// Relay faithfully (the control arm).
  kPass = 0,
  /// Accept, then forward nothing in either direction (blackhole): the
  /// client's send succeeds but the ack never comes — exercises the
  /// io-deadline path and half-open-peer handling.
  kDrop = 1,
  /// Sleep `delay_ms` before each forwarded chunk (slow network).
  kDelay = 2,
  /// Forward a seeded prefix of the client's bytes — cut mid-frame — then
  /// close both sides.
  kTruncate = 3,
  /// Flip one seeded bit in the first forwarded chunk, relay the rest
  /// faithfully: the collector must reject the frame by checksum.
  kBitFlip = 4,
  /// Close both sides immediately on the first client byte.
  kHardClose = 5,
};

struct FaultProxyOptions {
  std::string upstream_host = "127.0.0.1";
  uint16_t upstream_port = 0;
  /// 0 binds an ephemeral loopback port.
  uint16_t listen_port = 0;
  uint64_t seed = 1;
  /// Connection i gets schedule[i % size]; empty means all-kPass.
  std::vector<FaultMode> schedule;
  int delay_ms = 20;
  /// kTruncate forwards in [cut/2, cut) bytes (seeded); keep it smaller
  /// than a frame so the cut is mid-frame.
  int truncate_cut_bytes = 64;
  int connect_timeout_ms = 1000;
};

class FaultProxy {
 public:
  explicit FaultProxy(FaultProxyOptions options);
  ~FaultProxy();
  FaultProxy(const FaultProxy&) = delete;
  FaultProxy& operator=(const FaultProxy&) = delete;

  bool Start(std::string* error = nullptr);
  void Stop();

  uint16_t port() const { return server_.port(); }
  uint64_t faults_injected() const {
    return faults_.load(std::memory_order_relaxed);
  }

 private:
  void Relay(int client_fd, uint64_t index);

  const FaultProxyOptions options_;
  std::atomic<uint64_t> faults_{0};
  LoopbackServer server_;
};

}  // namespace net
}  // namespace robust_sampling

#endif  // ROBUST_SAMPLING_NET_FAULT_PROXY_H_
