// fanin_query: the collector read beside writes. Three SnapshotShippers
// each ship a cumulative robust_sample frame (~112 KB) to one Collector on
// an open-loop schedule of 50 rounds/s (150 ships/s): in round r a
// scheduler thread inserts the round's elements into each shipper's
// sketch, serializes it and offers it. One closed-loop CollectorClient
// issues Quantile queries, pausing 1 ms between them.
//
// Every ship revives its frame and the collector then rebuilds the merged
// view from all three latest frames under its state mutex, which is also
// where each query copies and sorts the merged sample. No pipeline code
// runs here.
//
// Freshness of round r is timed from its due time to the first answer
// whose min_watermark covers round r, so a stalled scheduler is charged
// for the rounds it delays. A run in which the scheduler itself falls
// behind its schedule is invalid, not slow.

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <limits>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "catalog_delta.h"
#include "core/random.h"
#include "harness.h"
#include "net/collector.h"
#include "net/snapshot_shipper.h"
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

constexpr size_t kShippers = 3;
constexpr size_t kEpisodes = 4;
constexpr double kRoundsPerSecond = 50.0;
constexpr uint64_t kRoundPeriodNs = 20'000'000;
constexpr size_t kPrefill = size_t{1} << 15;  // fills the sample (k = 14040)
constexpr size_t kRoundElems = 4096;          // per shipper per round
constexpr int64_t kUniverse = int64_t{1} << 20;
constexpr uint64_t kAnswerDeadlineNs = 60'000'000'000;
/// The client's pause between queries. Back to back, the client keeps the
/// collector's state mutex saturated, and its query rate then swings with
/// the host (spread 0.23-0.25 over ten runs); the pause halves the
/// mutex's load from queries.
constexpr uint64_t kClientPauseNs = 1'000'000;
/// The scheduler is behind when more than this share of rounds start
/// more than one period after their due time.
constexpr double kMaxLateShare = 0.01;

struct FaninTotals {
  std::vector<double> setup_s;
  std::vector<double> peak_rss_mib;
  std::vector<std::vector<double>> rtt_us;    // per episode
  std::vector<std::vector<double>> fresh_ms;  // per episode
  std::vector<double> quantile_eval_us;
  uint64_t elements = 0;
  double elements_s = 0.0;
  uint64_t ok_queries = 0;
  double query_s = 0.0;
  ShipTotals ship;
};

rs::SketchConfig FaninSketch(uint64_t seed) {
  rs::SketchConfig config;
  config.kind = "robust_sample";
  config.eps = 0.05;
  config.universe_size = uint64_t{1} << 20;
  config.seed = seed;
  return config;
}

void RunEpisode(const WorkloadOptions& options, size_t episode, size_t rounds,
                WorkloadResult* result, FaninTotals* totals) {
  const uint64_t episode_seed = rs::MixSeed(options.seed, episode);
  const std::string tag = "ep" + std::to_string(episode) + "/";
  const rs::SketchConfig config = FaninSketch(rs::MixSeed(episode_seed, 7));
  const uint64_t final_watermark = kPrefill + rounds * kRoundElems;
  ResetPeakRss();

  // ---- setup: inputs, exact reference, warmed sketches, fleet -------------
  const uint64_t setup_start = NowNs();
  std::vector<std::vector<int64_t>> streams;
  std::vector<int64_t> reference;
  for (size_t s = 0; s < kShippers; ++s) {
    streams.push_back(rs::UniformIntStream(
        final_watermark, kUniverse, rs::MixSeed(episode_seed, 100 + s)));
    reference.insert(reference.end(), streams.back().begin(),
                     streams.back().end());
  }
  std::sort(reference.begin(), reference.end());
  rs::net::Collector<int64_t> collector(rs::net::CollectorOptions{});
  std::string error;
  if (!collector.Start(&error)) {
    result->Fail("collector start: " + error);
    return;
  }
  std::vector<rs::StreamSketch<int64_t>> sketches;
  std::vector<std::unique_ptr<rs::net::SnapshotShipper>> shippers;
  for (size_t s = 0; s < kShippers; ++s) {
    sketches.push_back(rs::SketchRegistry<int64_t>::Global().Create(
        config, rs::MixSeed(config.seed, s)));
    sketches[s].InsertBatch(
        std::span<const int64_t>(streams[s].data(), kPrefill));
    rs::net::ShipperOptions shipper_options;
    shipper_options.port = collector.port();
    shipper_options.shipper_id = s + 1;
    shippers.push_back(
        std::make_unique<rs::net::SnapshotShipper>(shipper_options));
    shippers[s]->Start();
    rs::wire::BufferSink sink;
    if (!rs::wire::WriteSnapshot(sketches[s], config, sink)) {
      result->Fail("prefill snapshot did not serialize");
      return;
    }
    shippers[s]->Offer(sink.TakeBytes(), kPrefill);
  }
  for (auto& shipper : shippers) {
    if (!shipper->WaitUntilDrained(30'000)) {
      result->Fail("prefill snapshot did not ship");
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
  const std::vector<SeriesKey> keys = ShipCatalogKeys(config.kind);
  const CatalogSnapshot catalog_before = CatalogSnapshot::Take(keys);
  std::vector<ShipTotals> shippers0;
  for (auto& shipper : shippers) shippers0.push_back(ShipTotals::Read(*shipper));
  const uint64_t accepted0 = collector.accepted_snapshots();
  const uint64_t rejects0 = collector.rejects();

  std::atomic<bool> go{false};
  std::atomic<bool> scheduled{false};
  uint64_t t0 = 0;  // round r is due at t0 + r * period
  std::vector<Stamp> due;
  std::vector<double> late_ms;
  uint64_t offers = 0;
  uint64_t frame_bytes = 0;
  bool shipped_all = true;
  std::thread scheduler([&] {
    TraceThread trace(options.tracer, tag + "scheduler");
    {
      ScopedSpan wait(SpanKind::kBenchWait, 0);
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
    }
    for (size_t r = 1; r <= rounds; ++r) {
      const uint64_t due_ns = t0 + r * kRoundPeriodNs;
      {
        ScopedSpan wait(SpanKind::kBenchWait, r);
        SleepUntilNs(due_ns);
      }
      late_ms.push_back(static_cast<double>(NowNs() - due_ns) / 1e6);
      const uint64_t watermark = kPrefill + r * kRoundElems;
      ScopedSpan round(SpanKind::kBenchRound, r);
      for (size_t s = 0; s < kShippers; ++s) {
        {
          ScopedSpan span(SpanKind::kSketchInsert, r);
          sketches[s].InsertBatch(std::span<const int64_t>(
              streams[s].data() + watermark - kRoundElems, kRoundElems));
        }
        rs::wire::BufferSink sink;
        bool written = false;
        {
          ScopedSpan span(SpanKind::kWireSerialize, r);
          written = rs::wire::WriteSnapshot(sketches[s], config, sink);
        }
        if (!written) {
          shipped_all = false;
          continue;
        }
        frame_bytes += sink.bytes().size();
        ++offers;
        ScopedSpan span(SpanKind::kNetOffer, r);
        shippers[s]->Offer(sink.TakeBytes(), watermark);
      }
      due.push_back({due_ns, watermark});
    }
    {
      ScopedSpan span(SpanKind::kNetDrainWait, rounds);
      for (auto& shipper : shippers) {
        shipped_all = shipper->WaitUntilDrained(30'000) && shipped_all;
      }
    }
    scheduled.store(true, std::memory_order_release);
  });

  std::vector<Stamp> answers;
  std::vector<double> rtt_us;
  uint64_t ok_queries = 0;
  uint64_t failed_queries = 0;
  uint64_t t_end = 0;
  std::thread querier([&] {
    TraceThread trace(options.tracer, tag + "client");
    {
      ScopedSpan wait(SpanKind::kBenchWait, 0);
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
    }
    const std::vector<double>& grid = QuantileGrid();
    for (uint64_t q = 0;; ++q) {
      rs::net::QueryFreshness fresh;
      double value = 0.0;
      const uint64_t start = NowNs();
      bool ok = false;
      {
        ScopedSpan span(SpanKind::kNetQuery, q);
        ok = client.Quantile(grid[q % grid.size()], &value, nullptr, &fresh);
      }
      const uint64_t end = NowNs();
      if (ok) {
        ++ok_queries;
        rtt_us.push_back(static_cast<double>(end - start) / 1e3);
        answers.push_back({end, fresh.min_watermark});
        if (fresh.min_watermark >= final_watermark &&
            scheduled.load(std::memory_order_acquire)) {
          t_end = end;
          break;
        }
      } else {
        ++failed_queries;  // misses every latency limit
        rtt_us.push_back(std::numeric_limits<double>::max());
        if (!client.connected()) {
          client.Connect("127.0.0.1", collector.port());
        }
      }
      if (end - t0 > kAnswerDeadlineNs) break;
      ScopedSpan wait(SpanKind::kBenchWait, q);
      SpinUntilNs(end + kClientPauseNs);
    }
  });

  t0 = NowNs();
  go.store(true, std::memory_order_release);
  scheduler.join();
  querier.join();
  const CatalogSnapshot catalog_after = CatalogSnapshot::Take(keys);

  // ---- results and checks -------------------------------------------------
  result->attempted += offers + ok_queries + failed_queries;
  result->failed += failed_queries;
  if (failed_queries > 0) {
    result->problems.push_back(std::to_string(failed_queries) +
                               " queries failed");
  }
  if (!shipped_all) result->Fail("a round's snapshot did not ship");
  if (t_end == 0) {
    result->Fail("no answer covered the final round");
    return;
  }
  const size_t late_rounds = static_cast<size_t>(std::count_if(
      late_ms.begin(), late_ms.end(), [](double ms) {
        return ms > static_cast<double>(kRoundPeriodNs) / 1e6;
      }));
  if (static_cast<double>(late_rounds) >
      kMaxLateShare * static_cast<double>(late_ms.size())) {
    result->Fail("invalid run: the scheduler fell behind (" +
                 std::to_string(late_rounds) + " of " +
                 std::to_string(late_ms.size()) +
                 " rounds started over one period late)");
  }
  const uint64_t first_due = t0 + kRoundPeriodNs;
  totals->elements += kShippers * rounds * kRoundElems;
  totals->elements_s += static_cast<double>(t_end - first_due) / 1e9;
  totals->ok_queries += ok_queries;
  totals->query_s += static_cast<double>(t_end - t0) / 1e9;
  totals->rtt_us.push_back(std::move(rtt_us));
  totals->fresh_ms.push_back(FreshnessMs(due, answers));
  ShipTotals& ship = totals->ship;
  ship.measured_s += static_cast<double>(t_end - t0) / 1e9;
  ship.late_ms.insert(ship.late_ms.end(), late_ms.begin(), late_ms.end());
  ship.offers += offers;
  ship.frame_bytes += frame_bytes;
  for (size_t s = 0; s < kShippers; ++s) {
    ship.AddShipper(*shippers[s], shippers0[s]);
  }
  ship.accepted += collector.accepted_snapshots() - accepted0;
  ship.collector_rejects += collector.rejects() - rejects0;
  Accumulate(&ship.deserialize, Delta(catalog_before, catalog_after, keys[0]));
  Accumulate(&ship.merge, Delta(catalog_before, catalog_after, keys[1]));

  // The final drained answer against the exact union of the three streams.
  for (double q : QuantileGrid()) {
    ++result->attempted;
    double value = 0.0;
    rs::net::QueryFreshness fresh_answer;
    if (!client.Quantile(q, &value, nullptr, &fresh_answer) ||
        fresh_answer.min_watermark != final_watermark ||
        !QuantileWithinEps(reference, q, value, config.eps)) {
      char buf[128];
      std::snprintf(buf, sizeof(buf),
                    "episode %zu: quantile %.2f = %.0f misses rank eps",
                    episode, q, value);
      result->Fail(buf);
    }
  }
  if (options.tracer != nullptr) {
    // Query evaluation on a merged view equal to what the collector holds.
    rs::StreamSketch<int64_t> merged = sketches[0];
    for (size_t s = 1; s < kShippers; ++s) merged.MergeFrom(sketches[s]);
    double sink = 0.0;
    for (int i = 0; i < 50; ++i) {
      const uint64_t start = NowNs();
      sink += merged.Quantile(0.5);
      totals->quantile_eval_us.push_back(
          static_cast<double>(NowNs() - start) / 1e3);
    }
    if (sink < 0.0) std::fprintf(stderr, "unexpected negative answer\n");
  }
  totals->peak_rss_mib.push_back(PeakRssMib());
  client.Close();
  for (auto& shipper : shippers) shipper->Stop();
  collector.Stop();
}

}  // namespace

WorkloadResult RunFaninQuery(const WorkloadOptions& options) {
  WorkloadResult result;
  FaninTotals totals;
  const size_t rounds = std::max<size_t>(
      10, static_cast<size_t>(options.seconds * kRoundsPerSecond /
                              static_cast<double>(kEpisodes)));
  for (size_t episode = 0; episode < kEpisodes; ++episode) {
    const size_t failed_before = result.failed;
    RunEpisode(options, episode, rounds, &result, &totals);
    if (result.failed != failed_before) break;
  }
  if (totals.ship.measured_s == 0.0) return result;

  const double queries_per_s =
      static_cast<double>(totals.ok_queries) / totals.query_s;
  result.primary_rate = queries_per_s;
  result.e2e.Set("setup_s", Median(totals.setup_s),
                 "median of " + std::to_string(totals.setup_s.size()) +
                     " set-ups");
  result.e2e.Set("elems_per_s",
                 static_cast<double>(totals.elements) / totals.elements_s,
                 "open loop: 3 shippers x 4096 elements x 50 rounds/s");
  result.e2e.Set("queries_per_s", queries_per_s,
                 "one closed-loop client, 1 ms pause between queries");
  SetLatencyMetrics(&result, "query", "us", totals.rtt_us);
  SetLatencyMetrics(&result, "fresh", "ms", totals.fresh_ms);
  result.e2e.Set("peak_rss_mib", Median(totals.peak_rss_mib),
                 "median of per-episode peaks");

  if (!totals.quantile_eval_us.empty()) {
    result.layer.Set("sketch.quantile_eval_us",
                     Median(totals.quantile_eval_us),
                     "Quantile(0.5) on the merge of the three sketches");
  }
  SetShipLayerMetrics(totals.ship, "scheduler", &result.layer);
  return result;
}

}  // namespace e2ebench
