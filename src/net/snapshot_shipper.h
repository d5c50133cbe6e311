#ifndef ROBUST_SAMPLING_NET_SNAPSHOT_SHIPPER_H_
#define ROBUST_SAMPLING_NET_SNAPSHOT_SHIPPER_H_

#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "core/random.h"

namespace robust_sampling {
namespace net {

// ---------------------------------------------------------------------------
// SnapshotShipper: the ingest-node half of the aggregation tier.
//
// Callers hand it complete serialized snapshot frames (the "RSNP" bytes
// WriteSnapshot produces — the shipper is deliberately untemplated and
// never parses them); a background thread delivers each to the collector
// and waits for the ack. Failure policy:
//
//  * Lost/never-established connection: reconnect with exponential
//    backoff + decorrelated jitter, capped at `backoff_max_ms`. Backoff
//    state resets after a successful ship.
//  * Collector unreachable for a while: the outbox keeps exactly the
//    LATEST offered snapshot. Snapshots are cumulative state, so an older
//    unsent one is strictly inferior to the newer one that replaced it —
//    superseding is counted (rs_net_snapshots_superseded_total), never
//    silent, and memory stays bounded no matter how long the outage.
//  * Ship fails mid-flight (send error, missing/bad ack): the frame stays
//    pending and re-ships after reconnect, unless a newer offer
//    superseded it meanwhile.
//
// Stop() is prompt: backoff sleeps and idle waits are condition-variable
// waits that Stop() interrupts.
// ---------------------------------------------------------------------------

struct ShipperOptions {
  std::string host = "127.0.0.1";
  uint16_t port = 0;
  /// Identifies this shipper in the collector's per-source latest map;
  /// must be unique within a fleet (collector state is keyed by it).
  uint64_t shipper_id = 0;
  int connect_timeout_ms = 1000;
  /// recv/send deadline on the established connection (ack waits).
  int io_timeout_ms = 2000;
  int backoff_initial_ms = 10;
  int backoff_max_ms = 2000;
};

/// A shipper's reconnect jitter stream. Seeded from a fixed constant mixed
/// with the shipper id, so runs are reproducible per shipper while a fleet
/// that loses its collector together spreads its reconnects instead of
/// retrying in lockstep.
class BackoffJitter {
 public:
  explicit BackoffJitter(uint64_t shipper_id);

  /// Draws one wait, uniform in [backoff_ms/2, backoff_ms].
  int NextMs(int backoff_ms);

 private:
  SplitMix64 rng_;
};

class SnapshotShipper {
 public:
  explicit SnapshotShipper(ShipperOptions options);
  ~SnapshotShipper();
  SnapshotShipper(const SnapshotShipper&) = delete;
  SnapshotShipper& operator=(const SnapshotShipper&) = delete;

  void Start();
  void Stop();

  /// Queues `snapshot_frame` (complete "RSNP" frame bytes) as the latest
  /// state. Replaces — and counts as superseded — any pending frame that
  /// has not shipped yet. Callable from any thread.
  ///
  /// `total_ingested` is the producer's watermark at snapshot time (how
  /// many elements the snapshot covers); it ships to the collector along
  /// with a produced_ns wall-clock stamp taken here, and comes back to
  /// query callers as the freshness annotation. 0 means "not tracked"
  /// (protocol v1 behavior).
  void Offer(std::vector<uint8_t> snapshot_frame, uint64_t total_ingested = 0);

  /// Blocks until the outbox is empty and no ship is in flight, or
  /// `timeout_ms` elapses. True on drained. A down collector makes this
  /// time out — that is the observable form of degraded mode.
  bool WaitUntilDrained(int timeout_ms);

  // Monotonic local mirrors of the rs_net_* counters (process-global
  // metrics can't be attributed per-shipper in tests).
  uint64_t shipped() const;
  uint64_t superseded() const;
  uint64_t failures() const;
  uint64_t reconnect_attempts() const;

 private:
  /// An offered frame plus the freshness stamps that ship with it.
  struct PendingSnapshot {
    std::vector<uint8_t> frame;
    uint64_t produced_ns = 0;  // WallClockNanos() at Offer time
    uint64_t total_ingested = 0;
  };

  void Run();
  /// Ensures fd_ is connected, sleeping backoff between attempts; returns
  /// false if Stop() interrupted the wait.
  bool EnsureConnectedLocked(std::unique_lock<std::mutex>& lock);
  void CloseConnection();
  /// Ships `snapshot` (seq `seq`) over the live connection and waits for
  /// the ack; true only on an explicit kOk ack.
  bool ShipOne(const PendingSnapshot& snapshot, uint64_t seq);

  const ShipperOptions options_;

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::optional<PendingSnapshot> pending_;
  uint64_t next_seq_ = 0;
  bool in_flight_ = false;
  bool stop_ = true;
  std::thread worker_;

  int fd_ = -1;              // worker-thread only
  int backoff_ms_ = 0;       // worker-thread only; 0 = connect immediately
  BackoffJitter jitter_;     // worker-thread only

  uint64_t shipped_ = 0;
  uint64_t superseded_ = 0;
  uint64_t failures_ = 0;
  uint64_t reconnect_attempts_ = 0;
};

}  // namespace net
}  // namespace robust_sampling

#endif  // ROBUST_SAMPLING_NET_SNAPSHOT_SHIPPER_H_
