#include "net/snapshot_shipper.h"

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <utility>

#include "net/protocol.h"
#include "net/socket_io.h"
#include "obs/catalog.h"
#include "obs/flight_recorder.h"

namespace robust_sampling {
namespace net {

namespace {

// Seed of the deterministic backoff jitter streams.
constexpr uint64_t kJitterSeed = 0x5EED;

}  // namespace

BackoffJitter::BackoffJitter(uint64_t shipper_id)
    : rng_(kJitterSeed ^ shipper_id) {}

int BackoffJitter::NextMs(int backoff_ms) {
  const uint64_t span = static_cast<uint64_t>(backoff_ms / 2 + 1);
  return backoff_ms / 2 + static_cast<int>(rng_.Next() % span);
}

SnapshotShipper::SnapshotShipper(ShipperOptions options)
    : options_(std::move(options)), jitter_(options_.shipper_id) {}

SnapshotShipper::~SnapshotShipper() { Stop(); }

void SnapshotShipper::Start() {
  std::lock_guard<std::mutex> lock(mu_);
  if (!stop_) return;
  stop_ = false;
  worker_ = std::thread(&SnapshotShipper::Run, this);
}

void SnapshotShipper::Stop() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stop_) return;
    stop_ = true;
  }
  cv_.notify_all();
  if (worker_.joinable()) worker_.join();
  CloseConnection();
}

void SnapshotShipper::Offer(std::vector<uint8_t> snapshot_frame,
                            uint64_t total_ingested) {
  PendingSnapshot snapshot;
  snapshot.frame = std::move(snapshot_frame);
  snapshot.produced_ns = WallClockNanos();
  snapshot.total_ingested = total_ingested;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (pending_.has_value()) {
      // Keep-latest degradation: the unsent frame is strictly staler
      // cumulative state than the one replacing it.
      ++superseded_;
      obs::NetSnapshotsSuperseded().Increment();
    }
    pending_ = std::move(snapshot);
    ++next_seq_;
  }
  cv_.notify_all();
}

bool SnapshotShipper::WaitUntilDrained(int timeout_ms) {
  std::unique_lock<std::mutex> lock(mu_);
  return cv_.wait_for(lock, std::chrono::milliseconds(timeout_ms), [&] {
    return !pending_.has_value() && !in_flight_;
  });
}

uint64_t SnapshotShipper::shipped() const {
  std::lock_guard<std::mutex> lock(mu_);
  return shipped_;
}

uint64_t SnapshotShipper::superseded() const {
  std::lock_guard<std::mutex> lock(mu_);
  return superseded_;
}

uint64_t SnapshotShipper::failures() const {
  std::lock_guard<std::mutex> lock(mu_);
  return failures_;
}

uint64_t SnapshotShipper::reconnect_attempts() const {
  std::lock_guard<std::mutex> lock(mu_);
  return reconnect_attempts_;
}

void SnapshotShipper::CloseConnection() {
  if (fd_ >= 0) {
    close(fd_);
    fd_ = -1;
  }
}

bool SnapshotShipper::EnsureConnectedLocked(
    std::unique_lock<std::mutex>& lock) {
  while (!stop_ && fd_ < 0) {
    if (backoff_ms_ > 0) {
      // Decorrelated jitter on the current backoff step: sleep a uniform
      // fraction in [backoff/2, backoff] so a fleet restarting together
      // does not reconnect in lockstep. The wait is interruptible — a
      // Stop() cuts it short.
      const int jitter_ms = jitter_.NextMs(backoff_ms_);
      obs::NetBackoffWaitNs().Observe(static_cast<uint64_t>(jitter_ms) *
                                      1000000ULL);
      cv_.wait_for(lock, std::chrono::milliseconds(jitter_ms),
                   [&] { return stop_; });
      if (stop_) return false;
    }
    ++reconnect_attempts_;
    obs::NetReconnects().Increment();
    lock.unlock();
    const int fd = ConnectWithDeadline(options_.host, options_.port,
                                      options_.connect_timeout_ms);
    lock.lock();
    if (fd >= 0) {
      SetSocketDeadlines(fd, options_.io_timeout_ms, options_.io_timeout_ms);
      fd_ = fd;
      backoff_ms_ = 0;
      return !stop_;
    }
    backoff_ms_ = backoff_ms_ == 0
                      ? options_.backoff_initial_ms
                      : std::min(backoff_ms_ * 2, options_.backoff_max_ms);
  }
  return !stop_ && fd_ >= 0;
}

bool SnapshotShipper::ShipOne(const PendingSnapshot& snapshot,
                              uint64_t seq) {
  const uint64_t start_ns = obs::NowNanos();
  wire::BufferSink payload;
  wire::PutVarint(payload, options_.shipper_id);
  wire::PutVarint(payload, seq);
  wire::PutBytes(payload, snapshot.frame);
  // Protocol v2 freshness tail (appended fields; a v1 collector never
  // sees them because it predates this writer, and the v2 collector
  // defaults them to 0 when absent).
  wire::PutVarint(payload, snapshot.produced_ns);
  wire::PutVarint(payload, snapshot.total_ingested);
  SocketSink sink(fd_);
  if (!WriteMessage(sink, MessageType::kShip, payload.bytes())) {
    return false;
  }

  wire::FdSource source(fd_);
  MessageType type;
  std::vector<uint8_t> ack_payload;
  std::string error;
  if (!ReadMessage(source, &type, &ack_payload, &error) ||
      type != MessageType::kShipAck) {
    return false;
  }
  Status status = Status::kMalformed;
  if (!ParseStatusPayload(ack_payload, &status) || status != Status::kOk) {
    return false;
  }
  obs::NetShipRttNs().Observe(obs::NowNanos() - start_ns);
  return true;
}

void SnapshotShipper::Run() {
  std::unique_lock<std::mutex> lock(mu_);
  while (!stop_) {
    cv_.wait(lock, [&] { return stop_ || pending_.has_value(); });
    if (stop_) break;
    if (!EnsureConnectedLocked(lock)) break;
    if (!pending_.has_value()) continue;  // superseded into nothing? keep it
    PendingSnapshot snapshot = std::move(*pending_);
    pending_.reset();
    const uint64_t seq = next_seq_;
    in_flight_ = true;
    lock.unlock();
    const bool ok = ShipOne(snapshot, seq);
    lock.lock();
    in_flight_ = false;
    if (ok) {
      ++shipped_;
      obs::NetSnapshotsShipped().Increment();
    } else {
      ++failures_;
      obs::NetShipFailures().Increment();
      obs::FlightRecorder::Global().RecordError(
          "net", "ship failed; will retry after reconnect", seq);
      CloseConnection();
      backoff_ms_ = backoff_ms_ == 0 ? options_.backoff_initial_ms
                                     : backoff_ms_;
      // Re-queue unless a newer offer arrived while we were shipping —
      // then the failed frame is stale and the newer one wins.
      if (!pending_.has_value()) {
        pending_ = std::move(snapshot);
      } else {
        ++superseded_;
        obs::NetSnapshotsSuperseded().Increment();
      }
    }
    cv_.notify_all();
  }
}

}  // namespace net
}  // namespace robust_sampling
