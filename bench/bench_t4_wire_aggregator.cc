// T4: cross-process snapshot aggregation + wire codec throughput.
//
// Two row families in one table (shared columns, "-" where a cell does
// not apply), distinguished by the `op` column:
//
//  * op = "aggregate": N forked worker processes each run a
//    ShardedPipeline over a disjoint slice of one stream, serialize their
//    merged snapshot (wire/snapshot.h) and ship it to the parent over a
//    socketpair; the parent revives and merges the N snapshots into one summary
//    of the whole stream. The run *asserts* the distributed answers match
//    a single-process pipeline over the same stream — within 2*eps for
//    the robust sampler (each side is an eps-approximation of the
//    identical union, Theorem 1.2 + mergeability), bit-exactly for
//    CountMin (counter addition is associative and the row hashes are
//    shared via config.seed). Workers signal readiness with one byte
//    after building their snapshot, so the parent-side clock covers
//    transfer + revive + merge only, not the children's pipeline compute.
//
//  * op = "wire/serialize" and op = "wire/ship": per-kind codec
//    throughput for every registered kind. serialize times repeated
//    in-memory WriteSnapshot calls; ship forks one child that writes R
//    snapshot copies through a SocketSink while the parent clocks reading
//    + reviving them through one FdSource. These are the rows
//    tools/bench_diff.py --gate t4 enforces floors on.
//
// The transport is the TCP tier's own (net::SocketSink writing, FdSource
// reading) over socketpair(AF_UNIX, SOCK_STREAM), so no listener or port
// is needed.
//
// Writes BENCH_t4_wire.json; RS_BENCH_SMOKE=1 shrinks the stream for CI.

#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "core/check.h"
#include "core/random.h"
#include "harness/table.h"
#include "net/socket_io.h"
#include "obs/metrics.h"
#include "pipeline/sharded_pipeline.h"
#include "pipeline/sketch_config.h"
#include "pipeline/sketch_registry.h"
#include "pipeline/stream_sketch.h"
#include "wire/codec.h"
#include "wire/snapshot.h"

namespace robust_sampling {
namespace {

constexpr double kEps = 0.05;
constexpr double kDelta = 0.05;
constexpr uint64_t kUniverse = 4096;
constexpr uint64_t kBaseSeed = 0x7A11;

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

std::vector<int64_t> MakeStream(size_t n) {
  Rng rng(kBaseSeed);
  std::vector<int64_t> stream;
  stream.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    stream.push_back(static_cast<int64_t>(rng.NextBelow(kUniverse)) + 1);
  }
  return stream;
}

SketchConfig ConfigFor(const std::string& kind, uint64_t seed) {
  SketchConfig config;
  config.kind = kind;
  config.eps = kEps;
  config.delta = kDelta;
  config.universe_size = kUniverse;
  config.width = 2048;
  config.depth = 4;
  config.seed = seed;
  return config;
}

StreamSketch<int64_t> RunPipeline(const SketchConfig& config,
                                  std::span<const int64_t> slice,
                                  size_t batch_size) {
  PipelineOptions options;
  options.num_shards = 2;
  ShardedPipeline<int64_t> pipeline(config, options);
  auto& producer = pipeline.RegisterProducer();
  for (size_t off = 0; off < slice.size(); off += batch_size) {
    const size_t len = std::min(batch_size, slice.size() - off);
    producer.Ingest(slice.subspan(off, len));
  }
  return pipeline.Snapshot();
}

struct AggregateResult {
  StreamSketch<int64_t> merged;
  size_t snapshot_bytes = 0;
  double ship_seconds = 0.0;  // parent-side: read + revive + merge
};

// A connected AF_UNIX stream pair: [0] stays with the parent (reader),
// [1] goes to the forked child (writer).
std::array<int, 2> MakeSocketPair() {
  std::array<int, 2> fds;
  RS_CHECK(socketpair(AF_UNIX, SOCK_STREAM, 0, fds.data()) == 0);
  return fds;
}

// Forks `workers` children; child w pipelines slice w, serializes its
// snapshot in memory, signals readiness with one byte, then streams the
// bytes down its socket. The parent waits for every ready byte before
// starting the ship clock, so pipeline compute never pollutes the wire
// measurement. CountMin keeps config.seed shared across workers (hash
// mergeability); the samplers get an independent seed per worker, exactly
// like ShardedPipeline derives per-shard instance seeds.
AggregateResult ForkAndAggregate(const std::string& kind,
                                 std::span<const int64_t> stream,
                                 size_t workers, size_t batch_size) {
  std::vector<std::array<int, 2>> socks(workers);
  std::vector<pid_t> children(workers);
  const size_t slice_len = stream.size() / workers;
  for (size_t w = 0; w < workers; ++w) {
    socks[w] = MakeSocketPair();
    const pid_t pid = fork();
    RS_CHECK_MSG(pid >= 0, "fork failed");
    if (pid == 0) {
      // Child: pipeline the slice, ship one snapshot, exit. A non-zero
      // exit status is the child's only error channel; the parent checks.
      close(socks[w][0]);
      const SketchConfig config =
          kind == "count_min"
              ? ConfigFor(kind, kBaseSeed)
              : ConfigFor(kind, MixSeed(kBaseSeed, 1000 + w));
      const size_t off = w * slice_len;
      const size_t len =
          w + 1 == workers ? stream.size() - off : slice_len;
      auto snapshot = RunPipeline(config, stream.subspan(off, len),
                                  batch_size);
      wire::BufferSink staged;
      const bool sent = wire::WriteSnapshot(snapshot, config, staged);
      net::SocketSink sink(socks[w][1]);
      if (sent) {
        const uint8_t ready = 1;
        sink.Append(&ready, 1);
        sink.Append(staged.bytes().data(), staged.bytes().size());
      }
      close(socks[w][1]);
      _exit(sent && sink.ok() ? 0 : 1);
    }
    children[w] = pid;
    close(socks[w][1]);
  }

  // Barrier: every worker has finished pipelining and serializing.
  for (size_t w = 0; w < workers; ++w) {
    uint8_t ready = 0;
    RS_CHECK_MSG(read(socks[w][0], &ready, 1) == 1 && ready == 1,
                 "worker failed before signaling ready");
  }

  AggregateResult result;
  const auto start = Clock::now();
  for (size_t w = 0; w < workers; ++w) {
    // Decode straight off the socket — FdSource has no size knowledge
    // (remaining() is nullopt), so this exercises the codec's hard-cap
    // validation path end to end.
    wire::FdSource source(socks[w][0]);
    std::string error;
    auto revived = wire::ReadSnapshot<int64_t>(source, &error);
    RS_CHECK_MSG(revived.valid(), error.c_str());
    result.snapshot_bytes += source.bytes_read();
    close(socks[w][0]);
    if (!result.merged.valid()) {
      result.merged = std::move(revived);
    } else {
      result.merged.MergeFrom(revived);
    }
  }
  result.ship_seconds = SecondsSince(start);
  for (pid_t pid : children) {
    int status = 0;
    RS_CHECK(waitpid(pid, &status, 0) == pid);
    RS_CHECK_MSG(WIFEXITED(status) && WEXITSTATUS(status) == 0,
                 "worker process failed");
  }
  return result;
}

// Merged-vs-single acceptance: both summaries cover the identical stream.
double AssertAccuracy(const std::string& kind,
                      const StreamSketch<int64_t>& merged,
                      const StreamSketch<int64_t>& single, size_t n) {
  RS_CHECK(merged.StreamSize() == n);
  RS_CHECK(single.StreamSize() == n);
  double worst = 0.0;
  if (kind == "count_min") {
    // Counter addition is exact: estimates must agree bit for bit.
    for (uint64_t x = 1; x <= kUniverse; ++x) {
      const double diff =
          std::abs(merged.EstimateFrequency(static_cast<int64_t>(x)) -
                   single.EstimateFrequency(static_cast<int64_t>(x)));
      worst = std::max(worst, diff);
    }
    RS_CHECK_MSG(worst == 0.0, "merged CountMin diverged from single-process");
  } else {
    // Robust sampler: each side is an eps-approximation of the same
    // stream w.r.t. the prefix system, so ranks differ by at most 2*eps.
    for (double x = 0.0; x <= static_cast<double>(kUniverse); x += 64.0) {
      worst = std::max(worst, std::abs(merged.Rank(x) - single.Rank(x)));
    }
    RS_CHECK_MSG(worst <= 2.0 * kEps,
                 "merged sample violates the 2*eps rank bound");
  }
  return worst;
}

// Repetitions that move ~4 MiB per measurement, bounded so tiny and huge
// snapshots both finish promptly.
size_t RepsFor(size_t snapshot_bytes) {
  constexpr size_t kTargetBytes = size_t{4} * 1024 * 1024;
  const size_t reps = (kTargetBytes + snapshot_bytes - 1) / snapshot_bytes;
  return std::clamp<size_t>(reps, 4, 64);
}

// Child writes `reps` copies of the snapshot through a SocketSink; the
// parent clocks reading + reviving all of them through one FdSource.
// Returns parent-side seconds.
double TimeShip(const StreamSketch<int64_t>& sketch,
                const SketchConfig& config, size_t reps) {
  const std::array<int, 2> fds = MakeSocketPair();
  const pid_t pid = fork();
  RS_CHECK_MSG(pid >= 0, "fork failed");
  if (pid == 0) {
    close(fds[0]);
    net::SocketSink sink(fds[1]);
    const uint8_t ready = 1;
    sink.Append(&ready, 1);
    bool ok = true;
    for (size_t r = 0; ok && r < reps; ++r) {
      ok = wire::WriteSnapshot(sketch, config, sink);
    }
    close(fds[1]);
    _exit(ok ? 0 : 1);
  }
  close(fds[1]);
  uint8_t ready = 0;
  RS_CHECK_MSG(read(fds[0], &ready, 1) == 1 && ready == 1,
               "ship worker failed before signaling ready");
  const auto start = Clock::now();
  wire::FdSource source(fds[0]);
  for (size_t r = 0; r < reps; ++r) {
    std::string error;
    auto revived = wire::ReadSnapshot<int64_t>(source, &error);
    RS_CHECK_MSG(revived.valid(), error.c_str());
  }
  const double seconds = SecondsSince(start);
  close(fds[0]);
  int status = 0;
  RS_CHECK(waitpid(pid, &status, 0) == pid);
  RS_CHECK_MSG(WIFEXITED(status) && WEXITSTATUS(status) == 0,
               "ship worker failed");
  return seconds;
}

// Per-kind codec throughput rows for every registered kind — the floors
// tools/bench_diff.py --gate t4 enforces in CI.
void AddCodecRows(MarkdownTable& table, std::span<const int64_t> stream) {
  for (const auto& kind : SketchRegistry<int64_t>::Global().Kinds()) {
    const SketchConfig config = ConfigFor(kind, kBaseSeed);
    auto sketch = SketchRegistry<int64_t>::Global().Create(config);
    sketch.InsertBatch(stream);

    wire::BufferSink first;
    RS_CHECK_MSG(wire::WriteSnapshot(sketch, config, first),
                 "snapshot serialization failed");
    const size_t snapshot_bytes = first.bytes().size();
    const size_t reps = RepsFor(snapshot_bytes);
    const double total_mib =
        static_cast<double>(snapshot_bytes) * static_cast<double>(reps) /
        (1024.0 * 1024.0);

    const auto serialize_start = Clock::now();
    for (size_t r = 0; r < reps; ++r) {
      wire::BufferSink sink;
      RS_CHECK(wire::WriteSnapshot(sketch, config, sink));
    }
    const double serialize_s = SecondsSince(serialize_start);
    const double ship_s = TimeShip(sketch, config, reps);

    const std::string kib =
        FormatDouble(static_cast<double>(snapshot_bytes) / 1024.0, 1);
    const std::string n_str = std::to_string(stream.size());
    table.AddRow({"wire/serialize", kind, "-", n_str, kib,
                  FormatDouble(serialize_s * 1e3, 2),
                  FormatDouble(total_mib / serialize_s, 1), "-", "-"});
    table.AddRow({"wire/ship", kind, "-", n_str, kib,
                  FormatDouble(ship_s * 1e3, 2),
                  FormatDouble(total_mib / ship_s, 1), "-", "-"});
  }
}

void Run(bool with_metrics) {
  const bool smoke = []() {
    const char* env = std::getenv("RS_BENCH_SMOKE");
    return env != nullptr && *env != '\0';
  }();
  const size_t n = smoke ? 200'000 : 4'000'000;
  constexpr size_t kBatchSize = 4096;
  const auto stream = MakeStream(n);

  std::cout << "# T4: cross-process snapshot aggregation (src/wire/)\n";
  std::cout << "aggregate rows: N forked workers pipeline disjoint stream "
               "slices and ship snapshots over socketpairs; the parent "
               "revives and merges them after a ready-byte barrier, so ship "
               "time is wire-only. Asserts merged-vs-single accuracy (2*eps "
               "ranks for the sampler, exact for CountMin).\n"
               "wire/serialize + wire/ship rows: per-kind codec "
               "throughput, gated in CI by bench_diff --gate t4. n = "
            << n << ", eps = " << kEps << ".\n\n";

  MarkdownTable table({"op", "kind", "workers", "n", "KiB", "ms", "MiB/s",
                       "worst |merged - single|", "bound"});
  for (const std::string kind : {"robust_sample", "count_min"}) {
    const SketchConfig single_config = ConfigFor(kind, kBaseSeed);
    auto single = RunPipeline(single_config, stream, kBatchSize);
    for (size_t workers : {2, 4, 8}) {
      auto result = ForkAndAggregate(kind, stream, workers, kBatchSize);
      const double worst = AssertAccuracy(kind, result.merged, single, n);
      const double mib = static_cast<double>(result.snapshot_bytes) /
                         (1024.0 * 1024.0);
      table.AddRow({"aggregate", kind, std::to_string(workers),
                    std::to_string(n), FormatDouble(mib * 1024.0, 1),
                    FormatDouble(result.ship_seconds * 1e3, 2),
                    FormatDouble(mib / result.ship_seconds, 1),
                    FormatDouble(worst, 4),
                    kind == "count_min" ? "exact" : FormatDouble(2 * kEps, 2)});
    }
  }
  AddCodecRows(table, stream);
  table.Print(std::cout);
  // Metrics note: the forked workers' counters die with the children; the
  // snapshot embedded here is the parent's view (bytes in, deserialize
  // latency per kind, pipeline counters for the single-process runs).
  const std::vector<std::pair<std::string, std::string>> extra_meta = {
      {"stream_length", std::to_string(n)},
      {"batch_size", std::to_string(kBatchSize)},
      {"smoke", smoke ? "true" : "false"},
      {"zstd", wire::ZstdSupported() ? "true" : "false"},
  };
  std::string metrics_json;
  if (with_metrics) {
    metrics_json = obs::MetricRegistry::Global().ToJson();
  }
  WriteBenchJson("t4_wire", table, extra_meta,
                 with_metrics ? &metrics_json : nullptr);
  std::cout << "\nOK: merged-vs-single accuracy asserted for every row.\n";
}

}  // namespace
}  // namespace robust_sampling

int main(int argc, char** argv) {
  bool with_metrics = false;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--metrics") with_metrics = true;
  }
  robust_sampling::Run(with_metrics);
  return 0;
}
