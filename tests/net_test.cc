// Aggregation-tier suite: socket transport semantics, the ship/query
// protocol, fault-proxy failure modes (every one must end in recovery via
// backoff or a clean fail-closed rejection — no hang, no crash, no
// silently wrong merge), keep-latest shipper degradation, and the
// collector's checkpoint / kill -9 / restore contract.

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "core/random.h"
#include "net/collector.h"
#include "net/fault_proxy.h"
#include "net/protocol.h"
#include "net/snapshot_shipper.h"
#include "net/socket_io.h"
#include "obs/admin_server.h"
#include "obs/catalog.h"
#include "obs/metrics.h"
#include "pipeline/sketch_config.h"
#include "pipeline/sketch_registry.h"
#include "pipeline/stream_sketch.h"
#include "wire/codec.h"
#include "wire/snapshot.h"

namespace robust_sampling {
namespace {

SketchConfig KllConfig() {
  SketchConfig config;
  config.kind = "kll";
  config.capacity = 256;
  config.universe_size = 1024;
  config.seed = 0x4E7;
  return config;
}

SketchConfig CountMinConfig() {
  SketchConfig config;
  config.kind = "count_min";
  config.width = 512;
  config.depth = 4;
  config.universe_size = 1024;
  config.seed = 0x4E7;
  return config;
}

std::vector<int64_t> TestStream(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<int64_t> out;
  out.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    out.push_back(static_cast<int64_t>(rng.NextBelow(1024)) + 1);
  }
  return out;
}

StreamSketch<int64_t> MakeSketch(const SketchConfig& config,
                                 const std::vector<int64_t>& stream) {
  StreamSketch<int64_t> sketch =
      SketchRegistry<int64_t>::Global().Create(config);
  sketch.InsertBatch(stream);
  return sketch;
}

std::vector<uint8_t> SnapshotBytes(const StreamSketch<int64_t>& sketch,
                                   const SketchConfig& config) {
  wire::BufferSink sink;
  EXPECT_TRUE(wire::WriteSnapshot(sketch, config, sink));
  return sink.TakeBytes();
}

std::string TempPath(const std::string& name) {
  const char* dir = std::getenv("TMPDIR");
  return std::string(dir != nullptr ? dir : "/tmp") + "/" + name;
}

/// Minimal HTTP/1.0 GET against an admin plane (obs_admin_test covers the
/// server itself; this file covers the embedding and connection reaping).
std::string HttpGetBody(uint16_t port, const std::string& path,
                        int* status_out) {
  const int fd = net::ConnectWithDeadline("127.0.0.1", port, 2000);
  EXPECT_GE(fd, 0);
  if (fd < 0) return "";
  net::SetSocketDeadlines(fd, 5000, 5000);
  const std::string request = "GET " + path + " HTTP/1.0\r\n\r\n";
  EXPECT_TRUE(net::SendAll(fd, request.data(), request.size()));
  std::string response;
  char buf[4096];
  ssize_t n = 0;
  while ((n = read(fd, buf, sizeof(buf))) > 0) {
    response.append(buf, static_cast<size_t>(n));
  }
  close(fd);
  const size_t header_end = response.find("\r\n\r\n");
  if (header_end == std::string::npos || response.size() < 12) return "";
  *status_out = std::atoi(response.substr(9, 3).c_str());
  return response.substr(header_end + 4);
}

/// Binds an ephemeral loopback port, closes it, and returns the number —
/// a port a collector can claim a moment later (loopback test idiom).
uint16_t ReservePort() {
  uint16_t port = 0;
  const int fd = net::ListenLoopback(0, &port);
  EXPECT_GE(fd, 0);
  close(fd);
  return port;
}

// ----------------------------------------------------------- transport ----

TEST(SocketIoTest, SinkAndSourceRoundTripAcrossLoopback) {
  uint16_t port = 0;
  const int listen_fd = net::ListenLoopback(0, &port);
  ASSERT_GE(listen_fd, 0);
  const int client = net::ConnectWithDeadline("127.0.0.1", port, 1000);
  ASSERT_GE(client, 0);
  const int server = net::AcceptWithTimeout(listen_fd, 1000);
  ASSERT_GE(server, 0);

  net::SocketSink sink(client);
  wire::PutVarint(sink, 12345);
  wire::PutString(sink, "loopback");
  ASSERT_TRUE(sink.ok());

  wire::FdSource source(server);
  uint64_t v = 0;
  std::string s;
  EXPECT_TRUE(wire::GetVarint(source, &v));
  EXPECT_EQ(v, uint64_t{12345});
  EXPECT_TRUE(wire::GetString(source, &s));
  EXPECT_EQ(s, "loopback");
  EXPECT_GT(source.bytes_read(), uint64_t{0});
  EXPECT_EQ(source.remaining(), std::nullopt);

  close(client);
  close(server);
  close(listen_fd);
}

TEST(SocketIoTest, ReadDeadlinePoisonsSourceInsteadOfHanging) {
  uint16_t port = 0;
  const int listen_fd = net::ListenLoopback(0, &port);
  ASSERT_GE(listen_fd, 0);
  const int client = net::ConnectWithDeadline("127.0.0.1", port, 1000);
  ASSERT_GE(client, 0);
  const int server = net::AcceptWithTimeout(listen_fd, 1000);
  ASSERT_GE(server, 0);

  // The peer never writes: a half-open read must fail within the
  // deadline, not block forever.
  ASSERT_TRUE(net::SetSocketDeadlines(server, /*recv_timeout_ms=*/100,
                                      /*send_timeout_ms=*/100));
  wire::FdSource source(server);
  uint8_t byte = 0;
  EXPECT_FALSE(source.Read(&byte, 1));
  EXPECT_TRUE(source.failed());

  close(client);
  close(server);
  close(listen_fd);
}

TEST(SocketIoTest, ConnectToDeadPortFailsFast) {
  const uint16_t dead = ReservePort();  // bound then released: nobody home
  EXPECT_LT(net::ConnectWithDeadline("127.0.0.1", dead, 200), 0);
}

TEST(SocketIoTest, WriteToClosedPeerLatchesSinkNotSigpipe) {
  uint16_t port = 0;
  const int listen_fd = net::ListenLoopback(0, &port);
  ASSERT_GE(listen_fd, 0);
  const int client = net::ConnectWithDeadline("127.0.0.1", port, 1000);
  ASSERT_GE(client, 0);
  const int server = net::AcceptWithTimeout(listen_fd, 1000);
  ASSERT_GE(server, 0);
  close(server);

  // Large repeated writes eventually hit the reset; the sink must latch
  // failed, and the process must not die of SIGPIPE.
  net::SocketSink sink(client);
  const std::vector<uint8_t> chunk(64 * 1024, 0xAB);
  for (int i = 0; i < 64 && sink.ok(); ++i) {
    sink.Append(chunk.data(), chunk.size());
  }
  EXPECT_FALSE(sink.ok());

  close(client);
  close(listen_fd);
}

// ------------------------------------------------------------ protocol ----

TEST(NetProtocolTest, MessageRoundTripAndUnknownTypeRejected) {
  wire::BufferSink sink;
  const std::vector<uint8_t> payload = {1, 2, 3, 4};
  ASSERT_TRUE(net::WriteMessage(sink, net::MessageType::kShip, payload));

  wire::BufferSource source(sink.bytes());
  net::MessageType type;
  std::vector<uint8_t> got;
  std::string error;
  ASSERT_TRUE(net::ReadMessage(source, &type, &got, &error));
  EXPECT_EQ(type, net::MessageType::kShip);
  EXPECT_EQ(got, payload);

  // A frame whose body carries an unknown type parses as a frame but is
  // rejected at the protocol layer.
  wire::BufferSink bad_body;
  wire::PutVarint(bad_body, 99);
  wire::BufferSink bad_frame;
  ASSERT_TRUE(
      wire::WriteFramedBody(bad_frame, net::kNetMagic, bad_body.bytes()));
  wire::BufferSource bad_source(bad_frame.bytes());
  EXPECT_FALSE(net::ReadMessage(bad_source, &type, &got, &error));
  EXPECT_NE(error.find("unknown type"), std::string::npos);
}

TEST(NetProtocolTest, CorruptFrameFailsClosed) {
  wire::BufferSink sink;
  ASSERT_TRUE(net::WriteStatusMessage(sink, net::MessageType::kShipAck,
                                      net::Status::kOk));
  std::vector<uint8_t> bytes = sink.bytes();
  bytes[bytes.size() / 2] ^= 0x40;  // flip one bit mid-frame
  wire::BufferSource source(bytes);
  net::MessageType type;
  std::vector<uint8_t> payload;
  std::string error;
  EXPECT_FALSE(net::ReadMessage(source, &type, &payload, &error));
  EXPECT_FALSE(error.empty());
}

// ------------------------------------------------- ship + query happy ----

TEST(CollectorTest, TwoShippersMergeAndServeQueries) {
  net::CollectorOptions options;
  net::Collector<int64_t> collector(options);
  ASSERT_TRUE(collector.Start());

  const SketchConfig config = CountMinConfig();
  const std::vector<int64_t> stream_a = TestStream(4000, 11);
  const std::vector<int64_t> stream_b = TestStream(4000, 22);
  StreamSketch<int64_t> sketch_a = MakeSketch(config, stream_a);
  StreamSketch<int64_t> sketch_b = MakeSketch(config, stream_b);

  net::ShipperOptions ship_a;
  ship_a.port = collector.port();
  ship_a.shipper_id = 1;
  net::ShipperOptions ship_b = ship_a;
  ship_b.shipper_id = 2;
  net::SnapshotShipper shipper_a(ship_a);
  net::SnapshotShipper shipper_b(ship_b);
  shipper_a.Start();
  shipper_b.Start();
  shipper_a.Offer(SnapshotBytes(sketch_a, config));
  shipper_b.Offer(SnapshotBytes(sketch_b, config));
  ASSERT_TRUE(shipper_a.WaitUntilDrained(5000));
  ASSERT_TRUE(shipper_b.WaitUntilDrained(5000));
  shipper_a.Stop();
  shipper_b.Stop();

  EXPECT_EQ(collector.accepted_snapshots(), uint64_t{2});
  EXPECT_EQ(collector.known_shippers(), size_t{2});

  // Reference: the same two snapshots merged locally in the collector's
  // order (shipper_id ascending) must answer identically over the wire.
  StreamSketch<int64_t> reference = MakeSketch(config, stream_a);
  reference.MergeFrom(sketch_b);

  net::CollectorClient<int64_t> client;
  ASSERT_TRUE(client.Connect("127.0.0.1", collector.port()));
  for (int64_t x : {int64_t{1}, int64_t{7}, int64_t{512}, int64_t{1024}}) {
    double over_wire = -1.0;
    ASSERT_TRUE(client.EstimateFrequency(x, &over_wire));
    EXPECT_DOUBLE_EQ(over_wire, reference.EstimateFrequency(x)) << x;
  }
  std::vector<HeavyHitter> wire_hits;
  ASSERT_TRUE(client.HeavyHitters(0.001, &wire_hits));
  const std::vector<HeavyHitter> local_hits = reference.HeavyHitters(0.001);
  ASSERT_EQ(wire_hits.size(), local_hits.size());
  for (size_t i = 0; i < wire_hits.size(); ++i) {
    EXPECT_EQ(wire_hits[i].element, local_hits[i].element);
    EXPECT_DOUBLE_EQ(wire_hits[i].frequency, local_hits[i].frequency);
  }

  // Quantile on a frequency sketch: clean kUnsupported, not an abort.
  double q = 0.0;
  net::Status status = net::Status::kOk;
  EXPECT_FALSE(client.Quantile(0.5, &q, &status));
  EXPECT_EQ(status, net::Status::kUnsupported);
  collector.Stop();
}

TEST(CollectorTest, QuantileQueriesMatchLocalMerge) {
  net::CollectorOptions options;
  net::Collector<int64_t> collector(options);
  ASSERT_TRUE(collector.Start());

  const SketchConfig config = KllConfig();
  const std::vector<int64_t> stream = TestStream(8000, 33);
  StreamSketch<int64_t> sketch = MakeSketch(config, stream);

  net::ShipperOptions ship;
  ship.port = collector.port();
  ship.shipper_id = 7;
  net::SnapshotShipper shipper(ship);
  shipper.Start();
  shipper.Offer(SnapshotBytes(sketch, config));
  ASSERT_TRUE(shipper.WaitUntilDrained(5000));
  shipper.Stop();

  net::CollectorClient<int64_t> client;
  ASSERT_TRUE(client.Connect("127.0.0.1", collector.port()));
  for (double q : {0.1, 0.25, 0.5, 0.75, 0.9, 0.99}) {
    double over_wire = -1.0;
    ASSERT_TRUE(client.Quantile(q, &over_wire));
    EXPECT_DOUBLE_EQ(over_wire, sketch.Quantile(q)) << q;
  }
  collector.Stop();
}

TEST(CollectorTest, QueryBeforeAnyShipReportsEmpty) {
  net::Collector<int64_t> collector(net::CollectorOptions{});
  ASSERT_TRUE(collector.Start());
  net::CollectorClient<int64_t> client;
  ASSERT_TRUE(client.Connect("127.0.0.1", collector.port()));
  double q = 0.0;
  net::Status status = net::Status::kOk;
  EXPECT_FALSE(client.Quantile(0.5, &q, &status));
  EXPECT_EQ(status, net::Status::kEmpty);
  collector.Stop();
}

// Address space of this process in KiB (VmSize in /proc/self/status),
// or 0 when unreadable.
uint64_t VmSizeKib() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmSize:", 0) == 0) {
      return std::strtoull(line.c_str() + 7, nullptr, 10);
    }
  }
  return 0;
}

/// Runs `cycle` (one connect/request/close) 300 times after a warm-up
/// and checks that the process's address space did not grow by a thread
/// stack per cycle.
void ExpectNoThreadPileUp(const std::function<void()>& cycle) {
  // Warm-up: the first cycles map allocator arenas and thread stacks
  // that later cycles reuse.
  for (int i = 0; i < 20; ++i) cycle();
  const uint64_t before_kib = VmSizeKib();
  ASSERT_GT(before_kib, 0u);
  constexpr int kCycles = 300;
  for (int i = 0; i < kCycles; ++i) cycle();
  const uint64_t after_kib = VmSizeKib();
  // 300 leaked stacks add 600 MiB (2 MiB stacks) to 2.4 GiB (8 MiB).
  // Joined threads reuse their stacks; what remains is allocator noise,
  // such as a 64 MiB malloc arena for an occasional overlapping thread.
  EXPECT_LT(after_kib, before_kib + 256 * 1024)
      << "VmSize grew from " << before_kib << " KiB to " << after_kib
      << " KiB over " << kCycles << " connect/request/close cycles";
}

// Every loopback server must join each finished connection thread before
// it accepts the next connection. Otherwise every connection it ever
// served keeps its thread and mapped stack (megabytes of address space
// each) until Stop(), and VmSize grows by one stack per cycle. Checked
// for the collector, for a pass-through FaultProxy in front of it, and
// for the admin plane.
TEST(CollectorTest, SequentialConnectionsDoNotPileUpThreads) {
  net::Collector<int64_t> collector(net::CollectorOptions{});
  ASSERT_TRUE(collector.Start());
  net::FaultProxyOptions poptions;
  poptions.upstream_port = collector.port();
  net::FaultProxy proxy(poptions);  // empty schedule: every relay kPass
  ASSERT_TRUE(proxy.Start());
  obs::AdminServer admin;
  ASSERT_TRUE(admin.Start());

  const auto connect_query_close = [](uint16_t port) {
    net::CollectorClient<int64_t> client;
    ASSERT_TRUE(client.Connect("127.0.0.1", port));
    double q = 0.0;
    net::Status status = net::Status::kOk;
    EXPECT_FALSE(client.Quantile(0.5, &q, &status));
    EXPECT_EQ(status, net::Status::kEmpty);
  };
  {
    SCOPED_TRACE("collector");
    ExpectNoThreadPileUp([&] { connect_query_close(collector.port()); });
  }
  {
    SCOPED_TRACE("fault proxy in front of the collector");
    ExpectNoThreadPileUp([&] { connect_query_close(proxy.port()); });
  }
  {
    SCOPED_TRACE("admin server");
    ExpectNoThreadPileUp([&] {
      int status = 0;
      EXPECT_EQ(HttpGetBody(admin.port(), "/healthz", &status), "ok\n");
      EXPECT_EQ(status, 200);
    });
  }
  admin.Stop();
  proxy.Stop();
  collector.Stop();
}

// ------------------------------------------------ degradation / outbox ----

TEST(ShipperTest, KeepLatestOutboxSupersedesWhileCollectorDown) {
  const uint16_t port = ReservePort();  // nobody listening yet
  const SketchConfig config = CountMinConfig();

  net::ShipperOptions options;
  options.port = port;
  options.shipper_id = 1;
  options.connect_timeout_ms = 100;
  options.backoff_initial_ms = 5;
  options.backoff_max_ms = 40;
  net::SnapshotShipper shipper(options);
  shipper.Start();

  // Five successive states offered into a dead port: the outbox keeps
  // only the newest, counting the rest as superseded (bounded memory,
  // honest accounting).
  std::vector<int64_t> cumulative;
  std::vector<uint8_t> latest;
  for (int i = 0; i < 5; ++i) {
    const std::vector<int64_t> more = TestStream(500, 100 + i);
    cumulative.insert(cumulative.end(), more.begin(), more.end());
    latest = SnapshotBytes(MakeSketch(config, cumulative), config);
    shipper.Offer(latest);
  }
  EXPECT_FALSE(shipper.WaitUntilDrained(300));  // degraded, visibly
  EXPECT_GE(shipper.superseded(), uint64_t{3});
  EXPECT_GE(shipper.reconnect_attempts(), uint64_t{2});
  EXPECT_EQ(shipper.shipped(), uint64_t{0});

  // Collector comes up on the same port: backoff recovers, only the
  // latest cumulative state arrives, and it answers like a local revive.
  net::CollectorOptions coptions;
  coptions.port = port;
  net::Collector<int64_t> collector(coptions);
  ASSERT_TRUE(collector.Start());
  ASSERT_TRUE(shipper.WaitUntilDrained(10000));
  shipper.Stop();
  EXPECT_EQ(collector.accepted_snapshots(), uint64_t{1});

  StreamSketch<int64_t> reference = MakeSketch(config, cumulative);
  const auto freq = collector.EstimateFrequency(7);
  ASSERT_TRUE(freq.has_value());
  EXPECT_DOUBLE_EQ(*freq, reference.EstimateFrequency(7));
  collector.Stop();
}

// Each shipper draws its own reconnect jitter, so a fleet that loses its
// collector together does not retry in lockstep; a given shipper id
// replays the same waits.
TEST(ShipperTest, BackoffJitterIsPerShipperAndReproducible) {
  const auto waits = [](uint64_t shipper_id) {
    net::BackoffJitter jitter(shipper_id);
    std::vector<int> out;
    for (int i = 0; i < 16; ++i) out.push_back(jitter.NextMs(2000));
    return out;
  };
  const std::vector<int> first = waits(1);
  EXPECT_NE(first, waits(2));
  EXPECT_EQ(first, waits(1));
  for (const int ms : first) {
    EXPECT_GE(ms, 1000);
    EXPECT_LE(ms, 2000);
  }
}

// ------------------------------------------------------- fault matrix ----

struct FaultCase {
  net::FaultMode mode;
  const char* name;
};

/// Shared skeleton: shipper -> proxy(faulty connection first, then clean
/// ones) -> collector. Every mode must converge to exactly the reference
/// answers with no hang and no garbage merge.
void RunFaultRecovery(net::FaultMode mode) {
  net::Collector<int64_t> collector(net::CollectorOptions{});
  ASSERT_TRUE(collector.Start());

  net::FaultProxyOptions poptions;
  poptions.upstream_port = collector.port();
  poptions.seed = 0xFA01;
  poptions.schedule = {mode, mode, net::FaultMode::kPass};
  net::FaultProxy proxy(poptions);
  ASSERT_TRUE(proxy.Start());

  const SketchConfig config = CountMinConfig();
  const std::vector<int64_t> stream = TestStream(4000, 55);
  StreamSketch<int64_t> sketch = MakeSketch(config, stream);

  net::ShipperOptions soptions;
  soptions.port = proxy.port();
  soptions.shipper_id = 3;
  soptions.connect_timeout_ms = 300;
  soptions.io_timeout_ms = 400;  // bounds the blackhole ack wait
  soptions.backoff_initial_ms = 5;
  soptions.backoff_max_ms = 50;
  net::SnapshotShipper shipper(soptions);
  shipper.Start();
  shipper.Offer(SnapshotBytes(sketch, config));

  // Two faulty connections then a clean one: the shipper must push
  // through within the drain window or the mode failed to recover.
  ASSERT_TRUE(shipper.WaitUntilDrained(20000)) << "mode did not recover";
  EXPECT_EQ(shipper.shipped(), uint64_t{1});
  if (mode != net::FaultMode::kDelay) {
    // Delay is survivable in-band (the io deadline outlasts it); every
    // other mode kills the first two connections, forcing retries.
    EXPECT_GE(shipper.failures() + shipper.reconnect_attempts(),
              uint64_t{2});
  }
  shipper.Stop();

  // The merge is the clean snapshot, never a corrupted one.
  ASSERT_EQ(collector.accepted_snapshots(), uint64_t{1});
  const auto freq = collector.EstimateFrequency(7);
  ASSERT_TRUE(freq.has_value());
  EXPECT_DOUBLE_EQ(*freq, sketch.EstimateFrequency(7));
  if (mode == net::FaultMode::kBitFlip || mode == net::FaultMode::kTruncate) {
    EXPECT_GE(collector.rejects(), uint64_t{1});
  }
  proxy.Stop();
  collector.Stop();
}

TEST(FaultMatrixTest, DropBlackholeRecoversViaAckDeadline) {
  RunFaultRecovery(net::FaultMode::kDrop);
}

TEST(FaultMatrixTest, DelayedLinkStillDelivers) {
  RunFaultRecovery(net::FaultMode::kDelay);
}

TEST(FaultMatrixTest, MidFrameTruncationFailsClosedThenRecovers) {
  RunFaultRecovery(net::FaultMode::kTruncate);
}

TEST(FaultMatrixTest, BitFlipRejectedByChecksumThenRecovers) {
  RunFaultRecovery(net::FaultMode::kBitFlip);
}

TEST(FaultMatrixTest, HardCloseRecoversViaBackoff) {
  RunFaultRecovery(net::FaultMode::kHardClose);
}

TEST(FaultMatrixTest, ReconnectStormSettlesWithoutDuplicateState) {
  // A long run of consecutive hard-closes: the shipper storms through
  // reconnects with growing backoff and still lands exactly one copy.
  net::Collector<int64_t> collector(net::CollectorOptions{});
  ASSERT_TRUE(collector.Start());
  net::FaultProxyOptions poptions;
  poptions.upstream_port = collector.port();
  poptions.schedule.assign(6, net::FaultMode::kHardClose);
  poptions.schedule.push_back(net::FaultMode::kPass);
  net::FaultProxy proxy(poptions);
  ASSERT_TRUE(proxy.Start());

  const SketchConfig config = CountMinConfig();
  StreamSketch<int64_t> sketch = MakeSketch(config, TestStream(2000, 66));
  net::ShipperOptions soptions;
  soptions.port = proxy.port();
  soptions.shipper_id = 9;
  soptions.io_timeout_ms = 300;
  soptions.backoff_initial_ms = 2;
  soptions.backoff_max_ms = 30;
  net::SnapshotShipper shipper(soptions);
  shipper.Start();
  shipper.Offer(SnapshotBytes(sketch, config));
  ASSERT_TRUE(shipper.WaitUntilDrained(30000));
  shipper.Stop();
  EXPECT_GE(shipper.reconnect_attempts(), uint64_t{7});
  EXPECT_EQ(collector.accepted_snapshots(), uint64_t{1});
  EXPECT_EQ(collector.known_shippers(), size_t{1});
  proxy.Stop();
  collector.Stop();
}

TEST(CollectorTest, HalfOpenPeerDoesNotBlockOtherShippers) {
  net::Collector<int64_t> collector(net::CollectorOptions{});
  ASSERT_TRUE(collector.Start());

  // A peer that connects and then goes silent forever.
  const int mute = net::ConnectWithDeadline("127.0.0.1", collector.port(),
                                            1000);
  ASSERT_GE(mute, 0);

  // A real shipper must still get through concurrently.
  const SketchConfig config = CountMinConfig();
  StreamSketch<int64_t> sketch = MakeSketch(config, TestStream(1000, 77));
  net::ShipperOptions soptions;
  soptions.port = collector.port();
  soptions.shipper_id = 4;
  net::SnapshotShipper shipper(soptions);
  shipper.Start();
  shipper.Offer(SnapshotBytes(sketch, config));
  EXPECT_TRUE(shipper.WaitUntilDrained(5000));
  shipper.Stop();
  EXPECT_EQ(collector.accepted_snapshots(), uint64_t{1});
  close(mute);
  collector.Stop();
}

// --------------------------------------------- checkpoint / kill -9 ----

TEST(CollectorCheckpointTest, CorruptCheckpointStartsEmptyNotWrong) {
  const std::string path = TempPath("net_collector_corrupt.ck");
  {
    std::FILE* f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    const char garbage[] = "not a checkpoint at all";
    std::fwrite(garbage, 1, sizeof(garbage), f);
    std::fclose(f);
  }
  net::CollectorOptions options;
  options.checkpoint_path = path;
  net::Collector<int64_t> collector(options);
  ASSERT_TRUE(collector.Start());  // fail closed: up, but empty
  EXPECT_EQ(collector.known_shippers(), size_t{0});
  EXPECT_FALSE(collector.Quantile(0.5).has_value());
  collector.Stop();
  std::remove(path.c_str());
}

TEST(CollectorCheckpointTest, CheckpointRestoresIdenticalAnswers) {
  const std::string path = TempPath("net_collector_roundtrip.ck");
  std::remove(path.c_str());
  const SketchConfig config = KllConfig();
  const std::vector<int64_t> stream = TestStream(6000, 88);
  StreamSketch<int64_t> sketch = MakeSketch(config, stream);

  uint16_t port = 0;
  {
    net::CollectorOptions options;
    options.checkpoint_path = path;
    net::Collector<int64_t> collector(options);
    ASSERT_TRUE(collector.Start());
    port = collector.port();
    net::ShipperOptions soptions;
    soptions.port = port;
    soptions.shipper_id = 5;
    net::SnapshotShipper shipper(soptions);
    shipper.Start();
    shipper.Offer(SnapshotBytes(sketch, config));
    ASSERT_TRUE(shipper.WaitUntilDrained(5000));
    shipper.Stop();
    collector.Stop();  // the accepted ship already wrote it
  }

  // A brand-new collector restores the identical merged state from disk
  // before any shipper reconnects.
  net::CollectorOptions options;
  options.checkpoint_path = path;
  net::Collector<int64_t> restored(options);
  ASSERT_TRUE(restored.Start());
  EXPECT_EQ(restored.known_shippers(), size_t{1});
  for (double q : {0.1, 0.5, 0.9}) {
    const auto got = restored.Quantile(q);
    ASSERT_TRUE(got.has_value());
    EXPECT_DOUBLE_EQ(*got, sketch.Quantile(q)) << q;
  }
  restored.Stop();
  std::remove(path.c_str());
}

// The acceptance-criteria scenario: collector kill -9'd mid-merge (child
// process), restarted against the same checkpoint + port, shippers
// reconnect and re-ship cumulative state, queries agree with a
// single-process run. The child forks BEFORE this process creates any
// threads (fork-with-threads is UB-adjacent under the sanitizers).
TEST(CollectorCheckpointTest, Kill9MidMergeRestoresAndConverges) {
  const std::string path = TempPath("net_collector_kill9.ck");
  std::remove(path.c_str());
  const uint16_t port = ReservePort();

  int ready_pipe[2];
  ASSERT_EQ(pipe(ready_pipe), 0);
  const pid_t child = fork();
  ASSERT_GE(child, 0);
  if (child == 0) {
    // Child: run a checkpointing collector until killed.
    close(ready_pipe[0]);
    net::CollectorOptions options;
    options.port = port;
    options.checkpoint_path = path;
    net::Collector<int64_t> collector(options);
    if (!collector.Start()) _exit(1);
    const char ready = 'R';
    if (write(ready_pipe[1], &ready, 1) != 1) _exit(1);
    for (;;) pause();  // SIGKILL is the only exit
  }
  close(ready_pipe[1]);
  char ready = 0;
  ASSERT_EQ(read(ready_pipe[0], &ready, 1), 1);
  close(ready_pipe[0]);

  const SketchConfig config = KllConfig();
  const std::vector<int64_t> first_half = TestStream(4000, 99);
  std::vector<int64_t> full = first_half;
  const std::vector<int64_t> second_half = TestStream(4000, 101);
  full.insert(full.end(), second_half.begin(), second_half.end());

  // Phase 1: ship the first half, acked + checkpointed by the child.
  StreamSketch<int64_t> first_sketch = MakeSketch(config, first_half);
  {
    net::ShipperOptions soptions;
    soptions.port = port;
    soptions.shipper_id = 6;
    net::SnapshotShipper shipper(soptions);
    shipper.Start();
    shipper.Offer(SnapshotBytes(first_sketch, config));
    ASSERT_TRUE(shipper.WaitUntilDrained(10000));
    shipper.Stop();
  }

  // kill -9 mid-run: no destructors, no flush, no goodbye.
  ASSERT_EQ(kill(child, SIGKILL), 0);
  int wstatus = 0;
  ASSERT_EQ(waitpid(child, &wstatus, 0), child);
  ASSERT_TRUE(WIFSIGNALED(wstatus));

  // Phase 2: restart in-process on the same port + checkpoint. The
  // restored state must answer exactly like the pre-kill merge...
  net::CollectorOptions options;
  options.port = port;
  options.checkpoint_path = path;
  net::Collector<int64_t> restored(options);
  ASSERT_TRUE(restored.Start());
  EXPECT_EQ(restored.known_shippers(), size_t{1});
  {
    const auto got = restored.Quantile(0.5);
    ASSERT_TRUE(got.has_value());
    EXPECT_DOUBLE_EQ(*got, first_sketch.Quantile(0.5));
  }

  // ...and after the shipper re-ships cumulative state, match a
  // single-process run over the full stream exactly (one shipper, so the
  // merge IS the single sketch).
  StreamSketch<int64_t> full_sketch = MakeSketch(config, full);
  {
    net::ShipperOptions soptions;
    soptions.port = port;
    soptions.shipper_id = 6;
    soptions.backoff_initial_ms = 5;
    net::SnapshotShipper shipper(soptions);
    shipper.Start();
    shipper.Offer(SnapshotBytes(full_sketch, config));
    ASSERT_TRUE(shipper.WaitUntilDrained(10000));
    shipper.Stop();
  }
  net::CollectorClient<int64_t> client;
  ASSERT_TRUE(client.Connect("127.0.0.1", port));
  for (double q : {0.05, 0.25, 0.5, 0.75, 0.95}) {
    double over_wire = -1.0;
    ASSERT_TRUE(client.Quantile(q, &over_wire));
    EXPECT_DOUBLE_EQ(over_wire, full_sketch.Quantile(q)) << q;
  }
  restored.Stop();
  std::remove(path.c_str());
}

TEST(CollectorCheckpointTest, PreFreshnessCheckpointStillRestores) {
  // Hand-craft a v1 checkpoint body — count | id | seq | frame, no
  // freshness stamps — and let the restore fall back to the old layout.
  const std::string path = TempPath("net_collector_v1.ck");
  std::remove(path.c_str());
  const SketchConfig config = KllConfig();
  const std::vector<int64_t> stream = TestStream(3000, 91);
  StreamSketch<int64_t> sketch = MakeSketch(config, stream);
  {
    wire::BufferSink body;
    wire::PutVarint(body, 1);   // one entry
    wire::PutVarint(body, 13);  // shipper id
    wire::PutVarint(body, 2);   // seq
    wire::PutBytes(body, SnapshotBytes(sketch, config));
    wire::FileSink file(path);
    ASSERT_TRUE(wire::WriteFramedBody(
        file, net::internal::kCollectorCheckpointMagic, body.bytes()));
    ASSERT_TRUE(file.SyncAndClose());
  }

  net::CollectorOptions options;
  options.checkpoint_path = path;
  net::Collector<int64_t> collector(options);
  ASSERT_TRUE(collector.Start());
  EXPECT_EQ(collector.known_shippers(), size_t{1});
  const auto got = collector.Quantile(0.5);
  ASSERT_TRUE(got.has_value());
  EXPECT_DOUBLE_EQ(*got, sketch.Quantile(0.5));
  collector.Stop();
  std::remove(path.c_str());
}

// ----------------------------------------------------- revive once ----

uint64_t DeserializeCount(const SketchConfig& config) {
  return obs::WireDeserializeNs(config.kind).Read().count;
}

uint64_t MergeCount() { return obs::NetCollectorMergeNs().Read().count; }

std::vector<uint8_t> ReadFileBytes(const std::string& path) {
  std::vector<uint8_t> bytes;
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return bytes;
  uint8_t buf[4096];
  size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) {
    bytes.insert(bytes.end(), buf, buf + n);
  }
  std::fclose(f);
  return bytes;
}

/// Delivers one v2 kShip over a fresh raw connection and returns the acked
/// status (kMalformed when no ack arrives).
net::Status RawShip(uint16_t port, uint64_t shipper_id, uint64_t seq,
                    const std::vector<uint8_t>& frame,
                    uint64_t total_ingested) {
  net::Status status = net::Status::kMalformed;
  const int fd = net::ConnectWithDeadline("127.0.0.1", port, 1000);
  EXPECT_GE(fd, 0);
  if (fd < 0) return status;
  net::SetSocketDeadlines(fd, 5000, 5000);
  wire::BufferSink payload;
  wire::PutVarint(payload, shipper_id);
  wire::PutVarint(payload, seq);
  wire::PutBytes(payload, frame);
  wire::PutVarint(payload, net::WallClockNanos());
  wire::PutVarint(payload, total_ingested);
  net::SocketSink sink(fd);
  wire::FdSource source(fd);
  net::MessageType type;
  std::vector<uint8_t> ack;
  std::string error;
  if (net::WriteMessage(sink, net::MessageType::kShip, payload.bytes()) &&
      net::ReadMessage(source, &type, &ack, &error) &&
      type == net::MessageType::kShipAck) {
    net::ParseStatusPayload(ack, &status);
  }
  close(fd);
  return status;
}

/// Writes an RNCK checkpoint by hand: one entry per sketch (shipper ids
/// 1..S), with or without the per-entry freshness stamps.
void WriteCollectorCheckpoint(
    const std::string& path,
    const std::vector<StreamSketch<int64_t>>& sketches,
    const SketchConfig& config, bool with_freshness) {
  wire::BufferSink body;
  wire::PutVarint(body, sketches.size());
  for (size_t i = 0; i < sketches.size(); ++i) {
    wire::PutVarint(body, i + 1);  // shipper id
    wire::PutVarint(body, 7);      // seq
    wire::PutBytes(body, SnapshotBytes(sketches[i], config));
    if (with_freshness) {
      wire::PutVarint(body, 1000 + i);                  // produced_ns
      wire::PutVarint(body, sketches[i].StreamSize());  // total_ingested
    }
  }
  wire::FileSink file(path);
  ASSERT_TRUE(wire::WriteFramedBody(
      file, net::internal::kCollectorCheckpointMagic, body.bytes()));
  ASSERT_TRUE(file.SyncAndClose());
}

TEST(ReviveOnceTest, EachShipIsDeserializedExactlyOnce) {
  constexpr size_t kShippers = 3;
  constexpr size_t kRounds = 4;
  net::Collector<int64_t> collector(net::CollectorOptions{});
  ASSERT_TRUE(collector.Start());
  const SketchConfig config = CountMinConfig();
  const uint64_t revives_before = DeserializeCount(config);
  const uint64_t merges_before = MergeCount();

  std::vector<int64_t> streams[kShippers];
  for (size_t r = 0; r < kRounds; ++r) {
    for (size_t s = 0; s < kShippers; ++s) {
      const std::vector<int64_t> part = TestStream(500, 151 + r * 7 + s);
      streams[s].insert(streams[s].end(), part.begin(), part.end());
      ASSERT_EQ(RawShip(collector.port(), 71 + s, r + 1,
                        SnapshotBytes(MakeSketch(config, streams[s]), config),
                        streams[s].size()),
                net::Status::kOk);
    }
  }
  EXPECT_EQ(collector.accepted_snapshots(), uint64_t{kShippers * kRounds});

  // The merged view is the fold of every shipper's latest snapshot.
  StreamSketch<int64_t> expected = MakeSketch(config, streams[0]);
  for (size_t s = 1; s < kShippers; ++s) {
    expected.MergeFrom(MakeSketch(config, streams[s]));
  }
  for (int64_t x : {1, 7, 300, 1024}) {
    const auto got = collector.EstimateFrequency(x);
    ASSERT_TRUE(got.has_value());
    EXPECT_DOUBLE_EQ(*got, expected.EstimateFrequency(x)) << x;
  }
  collector.Stop();
#if !RS_METRICS_ENABLED
  GTEST_SKIP() << "revive/merge counts need the metrics build";
#endif
  EXPECT_EQ(DeserializeCount(config) - revives_before,
            uint64_t{kShippers * kRounds});
  EXPECT_EQ(MergeCount() - merges_before, uint64_t{kShippers * kRounds});
}

void ExpectRestoreRevivesEachEntryOnce(bool with_freshness) {
  constexpr size_t kEntries = 3;
  const std::string path =
      TempPath(std::string("net_collector_revive_once_") +
               (with_freshness ? "v2" : "v1") + ".ck");
  const SketchConfig config = KllConfig();
  std::vector<StreamSketch<int64_t>> sketches;
  for (size_t i = 0; i < kEntries; ++i) {
    sketches.push_back(MakeSketch(config, TestStream(2000, 161 + i)));
  }
  WriteCollectorCheckpoint(path, sketches, config, with_freshness);
  StreamSketch<int64_t> expected = sketches[0];
  for (size_t i = 1; i < kEntries; ++i) expected.MergeFrom(sketches[i]);

  const uint64_t revives_before = DeserializeCount(config);
  const uint64_t merges_before = MergeCount();
  net::CollectorOptions options;
  options.checkpoint_path = path;
  net::Collector<int64_t> collector(options);
  ASSERT_TRUE(collector.Start());
  const uint64_t revives = DeserializeCount(config) - revives_before;
  const uint64_t merges = MergeCount() - merges_before;
  EXPECT_EQ(collector.known_shippers(), kEntries);
  for (double q : {0.1, 0.5, 0.9}) {
    const auto got = collector.Quantile(q);
    ASSERT_TRUE(got.has_value());
    EXPECT_DOUBLE_EQ(*got, expected.Quantile(q)) << q;
  }
  collector.Stop();
  std::remove(path.c_str());
#if RS_METRICS_ENABLED
  EXPECT_EQ(revives, uint64_t{kEntries});
  EXPECT_EQ(merges, uint64_t{1});
#else
  (void)revives;
  (void)merges;
  GTEST_SKIP() << "revive/merge counts need the metrics build";
#endif
}

TEST(ReviveOnceTest, RestoreRevivesEachEntryOnce) {
  ExpectRestoreRevivesEachEntryOnce(/*with_freshness=*/true);
}

TEST(ReviveOnceTest, PreFreshnessRestoreRevivesEachEntryOnce) {
  ExpectRestoreRevivesEachEntryOnce(/*with_freshness=*/false);
}

// Layout detection happens before any revival, so it must not be fooled by
// a pre-freshness body that also parses under the current layout. With
// 87-byte frames it does: entry 2's "RS" reads as seq and length, the next
// 83 bytes as its frame and the frame's last two bytes as stamps. That
// misread frame lacks the snapshot magic, so the parse falls back.
TEST(ReviveOnceTest, AmbiguousPreFreshnessCheckpointFallsBack) {
  const std::string path = TempPath("net_collector_ambiguous_v1.ck");
  SketchConfig config;
  config.kind = "space_saving";
  config.capacity = 4;
  config.seed = 7;  // empty frame: 87 bytes, two varint-shaped tail bytes
  const std::vector<StreamSketch<int64_t>> sketches(
      2, SketchRegistry<int64_t>::Global().Create(config));
  const std::vector<uint8_t> frame = SnapshotBytes(sketches[0], config);
  ASSERT_EQ(frame.size(), size_t{87});
  ASSERT_LT(frame[85], 0x80);
  ASSERT_LT(frame[86], 0x80);
  WriteCollectorCheckpoint(path, sketches, config, /*with_freshness=*/false);

  net::CollectorOptions options;
  options.checkpoint_path = path;
  net::Collector<int64_t> collector(options);
  ASSERT_TRUE(collector.Start());
  EXPECT_EQ(collector.known_shippers(), size_t{2});
  collector.Stop();
  std::remove(path.c_str());
}

TEST(ReviveOnceTest, StaleDuplicateIsAckedWithoutMergeOrCheckpoint) {
  const std::string path = TempPath("net_collector_stale_dup.ck");
  std::remove(path.c_str());
  net::CollectorOptions options;
  options.checkpoint_path = path;
  net::Collector<int64_t> collector(options);
  ASSERT_TRUE(collector.Start());
  const SketchConfig config = CountMinConfig();
  const std::vector<int64_t> newer = TestStream(3000, 171);
  const std::vector<int64_t> older = TestStream(1000, 173);
  ASSERT_EQ(RawShip(collector.port(), 81, 5,
                    SnapshotBytes(MakeSketch(config, newer), config),
                    newer.size()),
            net::Status::kOk);
  const std::vector<uint8_t> checkpoint_before = ReadFileBytes(path);
  ASSERT_FALSE(checkpoint_before.empty());
  const uint64_t merges_before = MergeCount();

  // seq 3 < 5: a reordered duplicate after a reconnect race.
  EXPECT_EQ(RawShip(collector.port(), 81, 3,
                    SnapshotBytes(MakeSketch(config, older), config),
                    older.size()),
            net::Status::kOk);
  const uint64_t merges = MergeCount() - merges_before;
  EXPECT_EQ(ReadFileBytes(path), checkpoint_before);
  const auto freq = collector.EstimateFrequency(7);
  ASSERT_TRUE(freq.has_value());
  EXPECT_DOUBLE_EQ(*freq, MakeSketch(config, newer).EstimateFrequency(7));
  collector.Stop();
  std::remove(path.c_str());
#if RS_METRICS_ENABLED
  EXPECT_EQ(merges, uint64_t{0});
#else
  (void)merges;
  GTEST_SKIP() << "merge counts need the metrics build";
#endif
}

// ------------------------------------------------ freshness / v2 ships ----

TEST(FreshnessTest, QueryResultsCarryTheShippedWatermark) {
  net::Collector<int64_t> collector(net::CollectorOptions{});
  ASSERT_TRUE(collector.Start());

  const SketchConfig config = CountMinConfig();
  const std::vector<int64_t> stream_a = TestStream(4000, 111);
  const std::vector<int64_t> stream_b = TestStream(6000, 112);

  net::ShipperOptions ship_a;
  ship_a.port = collector.port();
  ship_a.shipper_id = 31;
  net::ShipperOptions ship_b = ship_a;
  ship_b.shipper_id = 32;
  net::SnapshotShipper shipper_a(ship_a);
  net::SnapshotShipper shipper_b(ship_b);
  shipper_a.Start();
  shipper_b.Start();
  shipper_a.Offer(SnapshotBytes(MakeSketch(config, stream_a), config),
                  /*total_ingested=*/stream_a.size());
  shipper_b.Offer(SnapshotBytes(MakeSketch(config, stream_b), config),
                  /*total_ingested=*/stream_b.size());
  ASSERT_TRUE(shipper_a.WaitUntilDrained(5000));
  ASSERT_TRUE(shipper_b.WaitUntilDrained(5000));
  shipper_a.Stop();
  shipper_b.Stop();

  // Every answer is annotated: the watermark floor is the LEAST advanced
  // shipper (what the merge is guaranteed to cover), and both shipped in
  // the past so staleness is strictly positive.
  net::CollectorClient<int64_t> client;
  ASSERT_TRUE(client.Connect("127.0.0.1", collector.port()));
  double out = 0.0;
  net::QueryFreshness fresh;
  ASSERT_TRUE(client.EstimateFrequency(int64_t{7}, &out, nullptr, &fresh));
  EXPECT_EQ(fresh.contributing_shippers, uint64_t{2});
  EXPECT_EQ(fresh.min_watermark, uint64_t{4000});
  EXPECT_GT(fresh.max_staleness_ns, uint64_t{0});

  // The annotation rides error statuses too: an unsupported query still
  // tells the caller how fresh the view it could not serve was.
  double q = 0.0;
  net::Status status = net::Status::kOk;
  net::QueryFreshness fresh_on_error;
  EXPECT_FALSE(client.Quantile(0.5, &q, &status, &fresh_on_error));
  EXPECT_EQ(status, net::Status::kUnsupported);
  EXPECT_EQ(fresh_on_error.min_watermark, uint64_t{4000});
  EXPECT_EQ(fresh_on_error.contributing_shippers, uint64_t{2});
  collector.Stop();
}

TEST(FreshnessTest, StalenessGaugesMoveUnderTheFaultMatrix) {
  // A faulted link forces supersession: snapshot A dies on two hard-closed
  // connections while B replaces it, so the collector's first accepted
  // ship arrives with seq 2 — one snapshot superseded (seq_lag 1) and the
  // full watermark caught up in one merge (elements_behind 3000).
  net::Collector<int64_t> collector(net::CollectorOptions{});
  ASSERT_TRUE(collector.Start());

  net::FaultProxyOptions poptions;
  poptions.upstream_port = collector.port();
  poptions.seed = 0xFA02;
  poptions.schedule = {net::FaultMode::kHardClose, net::FaultMode::kHardClose,
                       net::FaultMode::kPass, net::FaultMode::kPass};
  net::FaultProxy proxy(poptions);
  ASSERT_TRUE(proxy.Start());

  const SketchConfig config = CountMinConfig();
  const std::vector<int64_t> first_part = TestStream(1000, 121);
  std::vector<int64_t> cumulative = first_part;
  const std::vector<int64_t> second_part = TestStream(2000, 122);
  cumulative.insert(cumulative.end(), second_part.begin(), second_part.end());

  constexpr uint64_t kShipperId = 41;  // unique: gauges are process-global
  net::ShipperOptions soptions;
  soptions.port = proxy.port();
  soptions.shipper_id = kShipperId;
  soptions.connect_timeout_ms = 300;
  soptions.io_timeout_ms = 400;
  soptions.backoff_initial_ms = 5;
  soptions.backoff_max_ms = 50;
  net::SnapshotShipper shipper(soptions);
  shipper.Start();
  shipper.Offer(SnapshotBytes(MakeSketch(config, first_part), config),
                /*total_ingested=*/first_part.size());
  shipper.Offer(SnapshotBytes(MakeSketch(config, cumulative), config),
                /*total_ingested=*/cumulative.size());
  ASSERT_TRUE(shipper.WaitUntilDrained(20000));
  shipper.Stop();

  // Only the latest cumulative snapshot lands (seq 2 of 2 offered).
  EXPECT_EQ(collector.accepted_snapshots(), uint64_t{1});
  EXPECT_GE(shipper.superseded(), uint64_t{1});

#if RS_METRICS_ENABLED
  // RefreshFreshnessLocked ran at merge time, so the per-shipper gauges
  // already reflect the degraded delivery.
  EXPECT_EQ(obs::NetStalenessSeqLag(kShipperId).Value(), 1);
  EXPECT_EQ(obs::NetStalenessElementsBehind(kShipperId).Value(), 3000);
  EXPECT_GT(obs::NetStalenessNs(kShipperId).Value(), 0);
  // The e2e produce->merge histogram saw exactly the merged ship.
  EXPECT_GE(obs::NetE2eProduceMergeNs().Read().count, uint64_t{1});
#endif

  // The wire annotation agrees with the gauges.
  net::CollectorClient<int64_t> client;
  ASSERT_TRUE(client.Connect("127.0.0.1", collector.port()));
  double out = 0.0;
  net::QueryFreshness fresh;
  ASSERT_TRUE(client.EstimateFrequency(int64_t{7}, &out, nullptr, &fresh));
  EXPECT_EQ(fresh.contributing_shippers, uint64_t{1});
  EXPECT_EQ(fresh.min_watermark, cumulative.size());
  EXPECT_GT(fresh.max_staleness_ns, uint64_t{0});
  proxy.Stop();
  collector.Stop();
}

TEST(FreshnessTest, V1ShipFrameWithoutFreshnessTailStillAccepted) {
  // Wire-evolution contract (docs/wire.md): a v2 reader accepts v1
  // payloads. Hand-craft the pre-freshness kShip layout — shipper_id, seq,
  // snapshot frame, nothing after — and deliver it over a raw socket.
  net::Collector<int64_t> collector(net::CollectorOptions{});
  ASSERT_TRUE(collector.Start());

  const SketchConfig config = CountMinConfig();
  const std::vector<int64_t> stream = TestStream(3000, 131);
  StreamSketch<int64_t> sketch = MakeSketch(config, stream);

  const int fd = net::ConnectWithDeadline("127.0.0.1", collector.port(),
                                          1000);
  ASSERT_GE(fd, 0);
  net::SetSocketDeadlines(fd, 5000, 5000);
  {
    wire::BufferSink payload;
    wire::PutVarint(payload, 51);  // shipper_id
    wire::PutVarint(payload, 1);   // seq
    wire::PutBytes(payload, SnapshotBytes(sketch, config));
    // v1 ends here: no produced_ns, no total_ingested.
    net::SocketSink sink(fd);
    ASSERT_TRUE(
        net::WriteMessage(sink, net::MessageType::kShip, payload.bytes()));
    ASSERT_TRUE(sink.ok());
  }
  {
    wire::FdSource source(fd);
    net::MessageType type;
    std::vector<uint8_t> ack;
    std::string error;
    ASSERT_TRUE(net::ReadMessage(source, &type, &ack, &error)) << error;
    ASSERT_EQ(type, net::MessageType::kShipAck);
    net::Status status = net::Status::kMalformed;
    ASSERT_TRUE(net::ParseStatusPayload(ack, &status));
    EXPECT_EQ(status, net::Status::kOk);
  }
  close(fd);

  // The v1 ship merged for real, and its absent stamps read as zero in
  // the freshness annotation (min_watermark 0 = "not tracked").
  EXPECT_EQ(collector.accepted_snapshots(), uint64_t{1});
  const auto freq = collector.EstimateFrequency(7);
  ASSERT_TRUE(freq.has_value());
  EXPECT_DOUBLE_EQ(*freq, sketch.EstimateFrequency(7));

  net::CollectorClient<int64_t> client;
  ASSERT_TRUE(client.Connect("127.0.0.1", collector.port()));
  double out = 0.0;
  net::QueryFreshness fresh;
  fresh.min_watermark = 99;
  fresh.max_staleness_ns = 99;
  ASSERT_TRUE(client.EstimateFrequency(int64_t{7}, &out, nullptr, &fresh));
  EXPECT_EQ(fresh.contributing_shippers, uint64_t{1});
  EXPECT_EQ(fresh.min_watermark, uint64_t{0});
  EXPECT_EQ(fresh.max_staleness_ns, uint64_t{0});
  collector.Stop();
}

// --------------------------------------------------- embedded admin ----

TEST(CollectorAdminTest, EmbeddedPlaneServesShippersView) {
  net::CollectorOptions options;
  options.admin_port = 0;  // ephemeral
  net::Collector<int64_t> collector(options);
  ASSERT_TRUE(collector.Start());
  ASSERT_NE(collector.admin_port(), 0);

  const SketchConfig config = CountMinConfig();
  const std::vector<int64_t> stream = TestStream(2500, 141);
  net::ShipperOptions soptions;
  soptions.port = collector.port();
  soptions.shipper_id = 61;
  net::SnapshotShipper shipper(soptions);
  shipper.Start();
  shipper.Offer(SnapshotBytes(MakeSketch(config, stream), config),
                /*total_ingested=*/stream.size());
  ASSERT_TRUE(shipper.WaitUntilDrained(5000));
  shipper.Stop();

  int status = 0;
  const std::string body =
      HttpGetBody(collector.admin_port(), "/shippers", &status);
  EXPECT_EQ(status, 200);
  EXPECT_NE(body.find("\"shipper\":61"), std::string::npos) << body;
  EXPECT_NE(body.find("\"total_ingested\":2500"), std::string::npos) << body;
  EXPECT_NE(body.find("\"seq\":1"), std::string::npos) << body;
  EXPECT_NE(body.find("\"contributing_shippers\":1"), std::string::npos)
      << body;
  EXPECT_NE(body.find("\"min_watermark\":2500"), std::string::npos) << body;

  int health_status = 0;
  const std::string health =
      HttpGetBody(collector.admin_port(), "/healthz", &health_status);
  EXPECT_EQ(health_status, 200);
  EXPECT_EQ(health, "ok\n");

  // Stop tears the plane down with the collector.
  const uint16_t admin_port = collector.admin_port();
  collector.Stop();
  EXPECT_LT(net::ConnectWithDeadline("127.0.0.1", admin_port, 200), 0);
}

TEST(CollectorAdminTest, DisabledByDefault) {
  net::Collector<int64_t> collector(net::CollectorOptions{});
  ASSERT_TRUE(collector.Start());
  EXPECT_EQ(collector.admin_port(), 0);
  collector.Stop();
}

}  // namespace
}  // namespace robust_sampling
