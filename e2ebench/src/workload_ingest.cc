// ingest_sample and ingest_heavy: the serving path from producer to
// answer. Two producer threads feed a 2-shard ShardedPipeline; a control
// thread every 10 ms takes Snapshot(), serializes it with
// wire::WriteSnapshot and offers it to a SnapshotShipper bound for one
// Collector; one closed-loop CollectorClient queries the collector. An
// episode ends at the first answer whose freshness watermark equals the
// episode's element count n.
//
//   ingest_sample: robust_sample (eps 0.05, |U| = 2^20), round-robin
//     partition, uniform keys. Skip-sampling makes shard apply nearly free,
//     so the pipeline data plane (pooled copy, ring publish, fan-out) does
//     most of the work. The client queries back to back; each query sorts
//     the merged sample (~1 ms).
//   ingest_heavy: count_min (2048 x 4), hash partition, Zipf(1.1) keys
//     over 2^20. Shard apply dominates (CountMinSketch::Insert scans its
//     heavy-hitter candidates on every candidate miss), so sketch-kernel
//     changes show here and not in ingest_sample. A frequency query takes
//     ~60 us, and a back-to-back client's rate then follows the host's
//     scheduling noise, so this client pauses 1 ms between queries.
//
// Every episode ingests the same seeded input. A single-thread
// StreamSketch::InsertBatch baseline runs once over it; then each episode
// sets up from scratch (input pool, exact reference, collector, shipper,
// pipeline, client), runs, checks the collector's answers and tears down.
// Episodes repeat until the run's seconds are spent.

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdio>
#include <limits>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "catalog_delta.h"
#include "core/random.h"
#include "harness.h"
#include "net/collector.h"
#include "net/snapshot_shipper.h"
#include "pipeline/sharded_pipeline.h"
#include "pipeline/sketch_config.h"
#include "pipeline/sketch_registry.h"
#include "pipeline/stream_sketch.h"
#include "stats.h"
#include "stream/generators.h"
#include "wire/codec.h"
#include "wire/snapshot.h"

namespace e2ebench {
namespace {

namespace rs = robust_sampling;

constexpr size_t kBatch = 4096;
constexpr size_t kProducers = 2;
constexpr size_t kShards = 2;
constexpr int64_t kUniverse = int64_t{1} << 20;
constexpr uint64_t kControlPeriodNs = 10'000'000;
constexpr uint64_t kAnswerDeadlineNs = 60'000'000'000;
constexpr size_t kMinEpisodes = 3;
constexpr size_t kStampsPerProducer = 1024;
constexpr size_t kPoolElems = size_t{1} << 20;

struct IngestSpec {
  rs::SketchConfig sketch;
  rs::PartitionPolicy partition;
  bool zipf;
  size_t cycles;  // pool cycles per producer per episode
  uint64_t think_ns;  // the query client's pause between queries
};

/// What the layers did across all episodes of one run.
struct IngestTotals {
  std::vector<double> setup_s;
  std::vector<double> peak_rss_mib;
  std::vector<double> elems_per_s;
  double baseline_elems_per_s = 0.0;
  std::vector<std::vector<double>> rtt_us;    // per episode
  std::vector<std::vector<double>> fresh_ms;  // per episode
  std::vector<double> quantile_eval_us;
  uint64_t ok_queries = 0;
  double poll_s = 0.0;
  uint64_t backpressure_waits = 0;
  uint64_t rejected_batches = 0;
  std::optional<SeriesValue> partition;
  ShipTotals ship;
};

std::vector<int64_t> MakePool(const IngestSpec& spec, uint64_t seed) {
  return spec.zipf
             ? rs::ZipfIntStream(kPoolElems, kUniverse, 1.1, seed)
             : rs::UniformIntStream(kPoolElems, kUniverse, seed);
}

/// The batch producer p ingests at its step i: producers walk the pool's
/// batches from different offsets, each covering whole cycles.
std::span<const int64_t> BatchAt(const std::vector<int64_t>& pool, size_t p,
                                 size_t i) {
  const size_t batches = pool.size() / kBatch;
  const size_t b = (i + p * batches / kProducers) % batches;
  return {pool.data() + b * kBatch, kBatch};
}

/// The keys whose CountMin estimates are compared: the 64 heaviest Zipf
/// keys and 64 seeded ones.
std::vector<int64_t> FrequencyCheckKeys(uint64_t seed) {
  std::vector<int64_t> keys;
  for (int64_t k = 1; k <= 64; ++k) keys.push_back(k);
  rs::Rng rng(seed);
  for (int i = 0; i < 64; ++i) {
    keys.push_back(1 + static_cast<int64_t>(
                           rng.NextBelow(static_cast<uint64_t>(kUniverse))));
  }
  return keys;
}

/// ShipCatalogKeys plus [2] rs_pipeline_partition_ns.
std::vector<SeriesKey> CatalogKeys(const std::string& kind) {
  std::vector<SeriesKey> keys = ShipCatalogKeys(kind);
  keys.push_back(
      {SeriesKey::Type::kHistogram, "rs_pipeline_partition_ns", "", ""});
  return keys;
}

size_t BatchesPerProducer(const IngestSpec& spec) {
  return spec.cycles * (kPoolElems / kBatch);
}

/// The sketch config of a run: every episode and the baseline share it.
rs::SketchConfig RunConfig(const IngestSpec& spec, uint64_t seed) {
  rs::SketchConfig config = spec.sketch;
  config.seed = rs::MixSeed(seed, 0xC0FF);
  return config;
}

/// Single-thread StreamSketch::InsertBatch over the episode input, in
/// producer order. Returns the sketch; adds its rate to `totals`.
rs::StreamSketch<int64_t> RunBaseline(const IngestSpec& spec,
                                      const WorkloadOptions& options,
                                      IngestTotals* totals) {
  const std::vector<int64_t> pool = MakePool(spec, options.seed);
  const rs::SketchConfig config = RunConfig(spec, options.seed);
  rs::StreamSketch<int64_t> baseline =
      rs::SketchRegistry<int64_t>::Global().Create(config, config.seed);
  const size_t batches = BatchesPerProducer(spec);
  const uint64_t start = NowNs();
  for (size_t p = 0; p < kProducers; ++p) {
    for (size_t i = 0; i < batches; ++i) {
      baseline.InsertBatch(BatchAt(pool, p, i));
    }
  }
  totals->baseline_elems_per_s =
      static_cast<double>(kProducers * batches * kBatch) /
      (static_cast<double>(NowNs() - start) / 1e9);
  return baseline;
}

void RunEpisode(const IngestSpec& spec, const WorkloadOptions& options,
                const rs::StreamSketch<int64_t>& baseline, size_t episode,
                WorkloadResult* result, IngestTotals* totals) {
  const bool sample = !spec.zipf;
  const std::string tag = "ep" + std::to_string(episode) + "/";
  const size_t batches_per_producer = BatchesPerProducer(spec);
  const uint64_t n = kProducers * batches_per_producer * kBatch;
  ResetPeakRss();

  // ---- setup --------------------------------------------------------------
  // Every episode ingests the same input; set-up rebuilds it from the seed.
  const uint64_t setup_start = NowNs();
  const std::vector<int64_t> pool = MakePool(spec, options.seed);
  std::vector<int64_t> reference;  // the stream is whole copies of the pool
  if (sample) {
    reference = pool;
    std::sort(reference.begin(), reference.end());
  }
  const rs::SketchConfig config = RunConfig(spec, options.seed);
  rs::net::Collector<int64_t> collector(rs::net::CollectorOptions{});
  std::string error;
  if (!collector.Start(&error)) {
    result->Fail("collector start: " + error);
    return;
  }
  rs::net::ShipperOptions shipper_options;
  shipper_options.port = collector.port();
  shipper_options.shipper_id = 1;
  rs::net::SnapshotShipper shipper(shipper_options);
  shipper.Start();
  rs::PipelineOptions pipeline_options;
  pipeline_options.num_shards = kShards;
  pipeline_options.partition = spec.partition;
  pipeline_options.max_producers = kProducers;
  pipeline_options.prewarm_batch_elements = kBatch;
  rs::ShardedPipeline<int64_t> pipeline(config, pipeline_options);
  {
    // Connect the fleet: ship the empty pipeline's snapshot (watermark 0).
    rs::wire::BufferSink sink;
    if (!rs::wire::WriteSnapshot(pipeline.Snapshot(), config, sink)) {
      result->Fail("empty snapshot did not serialize");
      return;
    }
    shipper.Offer(sink.TakeBytes(), 0);
    if (!shipper.WaitUntilDrained(30'000)) {
      result->Fail("empty snapshot did not ship");
      return;
    }
  }
  rs::net::CollectorClient<int64_t> client;
  if (!client.Connect("127.0.0.1", collector.port())) {
    result->Fail("client connect failed");
    return;
  }
  totals->setup_s.push_back(static_cast<double>(NowNs() - setup_start) /
                            1e9);

  // ---- measured phase -----------------------------------------------------
  const std::vector<SeriesKey> keys = CatalogKeys(config.kind);
  const CatalogSnapshot catalog_before = CatalogSnapshot::Take(keys);
  const ShipTotals shipper0 = ShipTotals::Read(shipper);
  const uint64_t accepted0 = collector.accepted_snapshots();
  const uint64_t rejects0 = collector.rejects();

  std::atomic<bool> go{false};
  std::mutex done_mu;
  std::condition_variable done_cv;
  size_t producers_done = 0;  // guarded by done_mu
  std::atomic<uint64_t> rejected{0};
  std::vector<std::vector<Stamp>> due(kProducers);
  const size_t stamp_every =
      std::max<size_t>(1, batches_per_producer / kStampsPerProducer);
  uint64_t t_start = 0;

  std::vector<std::thread> producers;
  for (size_t p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      TraceThread trace(options.tracer, tag + "producer-" + std::to_string(p));
      auto& producer = pipeline.RegisterProducer();
      {
        ScopedSpan wait(SpanKind::kBenchWait, 0);
        while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      }
      std::vector<Stamp>& stamps = due[p];
      stamps.reserve(batches_per_producer / stamp_every + 1);
      for (size_t i = 0; i < batches_per_producer; ++i) {
        const bool stamp = i % stamp_every == 0;
        const uint64_t called = stamp ? NowNs() : 0;
        bool ok = false;
        {
          ScopedSpan span(SpanKind::kPipelineIngest, (uint64_t{p} << 40) | i);
          ok = producer.Ingest(BatchAt(pool, p, i));
        }
        if (!ok) rejected.fetch_add(1, std::memory_order_relaxed);
        if (stamp) stamps.push_back({called, pipeline.total_ingested()});
      }
      std::lock_guard<std::mutex> lock(done_mu);
      ++producers_done;
      done_cv.notify_all();
    });
  }

  uint64_t offers = 0;
  uint64_t frame_bytes = 0;
  bool drained = true;
  std::vector<double> late_ms;
  std::thread control([&] {
    TraceThread trace(options.tracer, tag + "control");
    {
      ScopedSpan wait(SpanKind::kBenchWait, 0);
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
    }
    uint64_t next_due = t_start + kControlPeriodNs;
    for (uint64_t round = 0;; ++round) {
      bool last = false;
      {
        ScopedSpan wait(SpanKind::kBenchWait, round);
        std::unique_lock<std::mutex> lock(done_mu);
        done_cv.wait_until(
            lock,
            std::chrono::steady_clock::time_point(
                std::chrono::nanoseconds(next_due)),
            [&] { return producers_done == kProducers; });
        last = producers_done == kProducers;
      }
      const uint64_t now = NowNs();
      if (!last) {
        late_ms.push_back(
            static_cast<double>(now > next_due ? now - next_due : 0) / 1e6);
      }
      const uint64_t watermark = pipeline.total_ingested();
      if (watermark > 0) {
        ScopedSpan span(SpanKind::kBenchRound, round);
        rs::StreamSketch<int64_t> snapshot;
        {
          ScopedSpan s(SpanKind::kPipelineSnapshot, round);
          snapshot = pipeline.Snapshot();
        }
        rs::wire::BufferSink sink;
        bool written = false;
        {
          ScopedSpan s(SpanKind::kWireSerialize, round);
          written = rs::wire::WriteSnapshot(snapshot, config, sink);
        }
        if (!written) {
          drained = false;
        } else {
          frame_bytes += sink.bytes().size();
          ++offers;
          ScopedSpan s(SpanKind::kNetOffer, round);
          shipper.Offer(sink.TakeBytes(), watermark);
        }
        if (last) {
          ScopedSpan s(SpanKind::kNetDrainWait, round);
          drained = shipper.WaitUntilDrained(30'000) && drained;
        }
      }
      if (last) break;
      const uint64_t after = NowNs();
      do {
        next_due += kControlPeriodNs;
      } while (next_due <= after);
    }
  });

  std::vector<Stamp> answers;
  std::vector<double> rtt_us;
  uint64_t ok_queries = 0;
  uint64_t failed_queries = 0;
  uint64_t t_end = 0;
  uint64_t poll_start = 0;
  std::thread poller([&] {
    TraceThread trace(options.tracer, tag + "poller");
    {
      // The quantile of an empty sample is undefined (the collector would
      // abort on it): a sample poller starts once the collector holds a
      // non-empty view. CountMin answers from the empty view.
      ScopedSpan wait(SpanKind::kBenchWait, 0);
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      while (sample && collector.accepted_snapshots() == accepted0) {
        std::this_thread::sleep_for(std::chrono::microseconds(50));
      }
    }
    poll_start = NowNs();
    const int64_t heavy_key = 1;
    for (uint64_t q = 0;; ++q) {
      rs::net::QueryFreshness fresh;
      double value = 0.0;
      const uint64_t t0 = NowNs();
      bool ok = false;
      {
        ScopedSpan span(SpanKind::kNetQuery, q);
        ok = sample ? client.Quantile(0.5, &value, nullptr, &fresh)
                    : client.EstimateFrequency(heavy_key, &value, nullptr,
                                               &fresh);
      }
      const uint64_t t1 = NowNs();
      if (ok) {
        ++ok_queries;
        rtt_us.push_back(static_cast<double>(t1 - t0) / 1e3);
        answers.push_back({t1, fresh.min_watermark});
        if (fresh.min_watermark >= n) {
          t_end = t1;
          break;
        }
      } else {
        ++failed_queries;  // misses every latency limit
        rtt_us.push_back(std::numeric_limits<double>::max());
        if (!client.connected()) {
          client.Connect("127.0.0.1", collector.port());
        }
      }
      if (t1 - t_start > kAnswerDeadlineNs) break;
      if (spec.think_ns > 0) {
        ScopedSpan wait(SpanKind::kBenchWait, q);
        SpinUntilNs(t1 + spec.think_ns);
      }
    }
  });

  t_start = NowNs();
  go.store(true, std::memory_order_release);
  for (std::thread& t : producers) t.join();
  control.join();
  poller.join();
  const CatalogSnapshot catalog_after = CatalogSnapshot::Take(keys);

  // ---- results and checks -------------------------------------------------
  const size_t attempted_batches = kProducers * batches_per_producer;
  result->attempted += attempted_batches + offers + ok_queries +
                       failed_queries;
  result->failed += failed_queries;
  if (failed_queries > 0) {
    result->problems.push_back(std::to_string(failed_queries) +
                               " queries failed");
  }
  if (rejected.load() > 0) {
    result->Fail(std::to_string(rejected.load()) + " batches rejected");
  }
  if (!drained) result->Fail("final snapshot did not ship");
  if (t_end == 0) {
    result->Fail("no answer covered watermark " + std::to_string(n));
    return;
  }
  const double measured_s = static_cast<double>(t_end - t_start) / 1e9;
  totals->elems_per_s.push_back(static_cast<double>(n) / measured_s);
  totals->poll_s += static_cast<double>(t_end - poll_start) / 1e9;
  totals->ok_queries += ok_queries;
  totals->rtt_us.push_back(std::move(rtt_us));
  std::vector<Stamp> all_due;
  for (const auto& stamps : due) {
    all_due.insert(all_due.end(), stamps.begin(), stamps.end());
  }
  totals->fresh_ms.push_back(FreshnessMs(all_due, answers));
  ShipTotals& ship = totals->ship;
  ship.measured_s += measured_s;
  ship.late_ms.insert(ship.late_ms.end(), late_ms.begin(), late_ms.end());
  ship.offers += offers;
  ship.frame_bytes += frame_bytes;
  ship.AddShipper(shipper, shipper0);
  ship.accepted += collector.accepted_snapshots() - accepted0;
  ship.collector_rejects += collector.rejects() - rejects0;
  Accumulate(&ship.deserialize, Delta(catalog_before, catalog_after, keys[0]));
  Accumulate(&ship.merge, Delta(catalog_before, catalog_after, keys[1]));
  Accumulate(&totals->partition,
             Delta(catalog_before, catalog_after, keys[2]));
  totals->backpressure_waits += pipeline.backpressure_waits();
  totals->rejected_batches += pipeline.rejected_batches();

  // Correctness of the merged, shipped, re-merged answer.
  if (sample) {
    for (double q : QuantileGrid()) {
      ++result->attempted;
      double value = 0.0;
      rs::net::QueryFreshness fresh_answer;
      if (!client.Quantile(q, &value, nullptr, &fresh_answer) ||
          fresh_answer.min_watermark != n ||
          !QuantileWithinEps(reference, q, value, spec.sketch.eps)) {
        char buf[128];
        std::snprintf(buf, sizeof(buf),
                      "episode %zu: quantile %.2f = %.0f misses rank eps",
                      episode, q, value);
        result->Fail(buf);
      }
    }
  } else {
    for (int64_t key : FrequencyCheckKeys(options.seed)) {
      ++result->attempted;
      double value = 0.0;
      if (!client.EstimateFrequency(key, &value) ||
          value != baseline.EstimateFrequency(key)) {
        result->Fail("episode " + std::to_string(episode) +
                     ": CountMin estimate differs from the baseline for key " +
                     std::to_string(key));
      }
    }
  }
  if (options.tracer != nullptr) {
    // Query evaluation on a merged view equal to what the collector holds.
    const rs::StreamSketch<int64_t> merged = pipeline.Snapshot();
    double sink = 0.0;
    for (int i = 0; i < 20; ++i) {
      const uint64_t t0 = NowNs();
      sink += sample ? merged.Quantile(0.5) : merged.EstimateFrequency(1);
      totals->quantile_eval_us.push_back(
          static_cast<double>(NowNs() - t0) / 1e3);
    }
    if (sink < 0.0) std::fprintf(stderr, "unexpected negative answer\n");
  }
  totals->peak_rss_mib.push_back(PeakRssMib());
  client.Close();
  pipeline.Stop();
  shipper.Stop();
  collector.Stop();
}

WorkloadResult RunIngest(const IngestSpec& spec,
                         const WorkloadOptions& options) {
  WorkloadResult result;
  IngestTotals totals;
  const uint64_t run_start = NowNs();
  const rs::StreamSketch<int64_t> baseline_sketch =
      RunBaseline(spec, options, &totals);
  const uint64_t budget_ns = static_cast<uint64_t>(options.seconds * 1e9);
  for (size_t episode = 0;
       episode < kMinEpisodes || NowNs() - run_start < budget_ns;
       ++episode) {
    const size_t failed_before = result.failed;
    RunEpisode(spec, options, baseline_sketch, episode, &result, &totals);
    if (result.failed != failed_before) break;
  }
  if (totals.elems_per_s.empty()) return result;

  const size_t n_ep = totals.elems_per_s.size();
  const double elems_per_s = Median(totals.elems_per_s);
  const double baseline = totals.baseline_elems_per_s;
  result.primary_rate = elems_per_s;
  result.e2e.Set("setup_s", Median(totals.setup_s),
                 "median of " + std::to_string(totals.setup_s.size()) +
                     " set-ups");
  const auto [lo, hi] = std::minmax_element(totals.elems_per_s.begin(),
                                            totals.elems_per_s.end());
  char note[160];
  std::snprintf(note, sizeof(note), "median of %zu episodes (%.4g .. %.4g)",
                n_ep, *lo, *hi);
  result.e2e.Set("elems_per_s", elems_per_s, note);
  std::snprintf(note, sizeof(note), "one closed-loop client, %.0f us think",
                static_cast<double>(spec.think_ns) / 1e3);
  result.e2e.Set("queries_per_s",
                 static_cast<double>(totals.ok_queries) / totals.poll_s,
                 note);
  SetLatencyMetrics(&result, "query", "us", totals.rtt_us);
  SetLatencyMetrics(&result, "fresh", "ms", totals.fresh_ms);
  result.e2e.Set("peak_rss_mib", Median(totals.peak_rss_mib),
                 "median of per-episode peaks");

  MetricSet& layer = result.layer;
  layer.Set("sketch.baseline_elems_per_s", baseline,
            "single-thread StreamSketch::InsertBatch, same input");
  std::snprintf(note, sizeof(note), "elems_per_s %.4g / baseline %.4g",
                elems_per_s, baseline);
  layer.Set("pipeline.scaling_ratio", elems_per_s / baseline, note);
  layer.Set("pipeline.backpressure_waits",
            static_cast<double>(totals.backpressure_waits));
  layer.Set("pipeline.rejected_batches",
            static_cast<double>(totals.rejected_batches));
  if (!totals.quantile_eval_us.empty()) {
    layer.Set("sketch.quantile_eval_us", Median(totals.quantile_eval_us),
              spec.zipf ? "EstimateFrequency: count_min has no quantiles"
                        : "Quantile(0.5) on the final merged snapshot");
  }
  SetShipLayerMetrics(totals.ship, "control thread", &layer);
  if (totals.partition) {
    layer.Set("pipeline.partition_s",
              static_cast<double>(totals.partition->sum) / 1e9,
              "rs_pipeline_partition_ns delta");
  }
  return result;
}

rs::SketchConfig SampleSketch() {
  rs::SketchConfig config;
  config.kind = "robust_sample";
  config.eps = 0.05;
  config.universe_size = uint64_t{1} << 20;
  return config;
}

rs::SketchConfig HeavySketch() {
  rs::SketchConfig config;
  config.kind = "count_min";
  config.width = 2048;
  config.depth = 4;
  return config;
}

}  // namespace

WorkloadResult RunIngestSample(const WorkloadOptions& options) {
  return RunIngest({SampleSketch(), rs::PartitionPolicy::kRoundRobin,
                    /*zipf=*/false, /*cycles=*/256, /*think_ns=*/0},
                   options);
}

WorkloadResult RunIngestHeavy(const WorkloadOptions& options) {
  return RunIngest({HeavySketch(), rs::PartitionPolicy::kHash, /*zipf=*/true,
                    /*cycles=*/1, /*think_ns=*/1'000'000},
                   options);
}

}  // namespace e2ebench
