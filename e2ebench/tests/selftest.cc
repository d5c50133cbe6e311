// The benchmark's own tests: percentile selection, metric names, span
// self-time arithmetic, the catalog-delta reader, freshness matching and
// the rank-error check. Exits non-zero on the first failed expectation.
// Built with the benchmark; run it through e2ebench/selftest.py, which also
// checks the metric names against BENCHMARK.json.

#include <cstdio>
#include <cstdlib>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "catalog_delta.h"
#include "harness.h"
#include "obs/metrics.h"
#include "report.h"
#include "stats.h"
#include "trace.h"

namespace e2ebench {
namespace {

int failures = 0;

#define EXPECT(cond)                                                  \
  do {                                                                \
    if (!(cond)) {                                                    \
      std::fprintf(stderr, "%s:%d: expected %s\n", __FILE__, __LINE__, \
                   #cond);                                            \
      ++failures;                                                     \
    }                                                                 \
  } while (0)

std::vector<double> OneTo(size_t n) {
  std::vector<double> v;
  for (size_t i = 1; i <= n; ++i) v.push_back(static_cast<double>(i));
  return v;
}

void TestPercentileSelection() {
  EXPECT(SamplesBeyond(1000, 99.0) == 10);
  EXPECT(SamplesBeyond(999, 99.0) == 9);
  EXPECT(SamplesBeyond(100, 50.0) == 50);
  EXPECT(HighestSupportedPercentile(1000) == 99.0);
  EXPECT(HighestSupportedPercentile(999) == 90.0);
  EXPECT(HighestSupportedPercentile(10000) == 99.9);
  EXPECT(HighestSupportedPercentile(20) == 50.0);
  EXPECT(HighestSupportedPercentile(19) == 0.0);
  const PercentileValue p99 = Percentile(OneTo(1000), 99.0);
  EXPECT(p99.value == 990.0);
  EXPECT(p99.samples == 1000 && p99.beyond == 10 && p99.supported);
  EXPECT(!Percentile(OneTo(999), 99.0).supported);
  EXPECT(Percentile(OneTo(5), 50.0).value == 3.0);
  EXPECT(PercentileLabel(99.9) == "p99.9");

  // The printed note carries the sample count and the samples beyond.
  WorkloadResult ok;
  EXPECT(SetLatencyMetrics(&ok, "query", "us", {OneTo(1000)}));
  EXPECT(ok.layer.Get("query_p99_us") == 990.0);
  EXPECT(ok.e2e.Get("query_p50_us") == 500.0);
  std::ostringstream printed;
  ok.layer.Print(printed, TailMetrics());
  EXPECT(printed.str().find("n=1000, 10 beyond; highest p99") !=
         std::string::npos);
  WorkloadResult short_run;
  EXPECT(!SetLatencyMetrics(&short_run, "fresh", "ms", {OneTo(999)}));
  EXPECT(short_run.problems.size() == 1);

  // Three episodes that each support p99: p99 is the median of theirs, so
  // one episode with a long stall does not move it.
  std::vector<double> stalled = OneTo(1000);
  for (size_t i = 970; i < 1000; ++i) stalled[i] = 1e6;
  WorkloadResult episodes;
  EXPECT(SetLatencyMetrics(&episodes, "query", "us",
                           {OneTo(1000), stalled, OneTo(2000)}));
  EXPECT(episodes.layer.Get("query_p99_us") == 1980.0);  // of 990, 1e6, 1980
  // Two episodes are too few: the p99 of all samples.
  WorkloadResult two;
  EXPECT(SetLatencyMetrics(&two, "query", "us", {OneTo(1000), stalled}));
  EXPECT(two.layer.Get("query_p99_us") == 1e6);
  // An episode too short for its own p99: the p99 of all samples.
  WorkloadResult mixed;
  EXPECT(SetLatencyMetrics(&mixed, "query", "us",
                           {OneTo(1000), OneTo(1000), OneTo(500)}));
  EXPECT(mixed.layer.Get("query_p99_us") == 988.0);
}

void TestMetricNames() {
  std::set<std::string> seen;
  for (const auto* specs : {&EndToEndMetrics(), &PerLayerMetrics()}) {
    for (const MetricSpec& spec : *specs) {
      EXPECT(ValidMetricName(spec.name));
      EXPECT(seen.insert(spec.name).second);  // used once
    }
  }
  EXPECT(ValidMetricName("wire.deserialize_calls_per_ship"));
  EXPECT(!ValidMetricName("bad name"));
  EXPECT(!ValidMetricName("_leading"));
  EXPECT(!ValidMetricName("a/b"));
  EXPECT(!ValidMetricName(""));
  EXPECT(!ValidMetricName(std::string(65, 'a')));
  // Every span kind's name is "<layer>.<what>" with a valid metric-style
  // name.
  for (size_t k = 0; k < kSpanKinds; ++k) {
    const std::string name = SpanName(static_cast<SpanKind>(k));
    EXPECT(ValidMetricName(name));
    EXPECT(name.find('.') != std::string::npos);
  }
}

void TestSelfTime() {
  // A(10..100) has children B(20..50) and C(60..80); C has child D(65..70);
  // E(120..130) is a second top-level span. Wall time 0..200.
  ThreadTrace t("synthetic", 100);
  t.Begin(0);
  t.Open(SpanKind::kBenchRound, 1, 10);         // A
  t.Open(SpanKind::kPipelineSnapshot, 1, 20);   // B
  t.Close(50);
  t.Open(SpanKind::kNetOffer, 1, 60);           // C
  t.Open(SpanKind::kNetDrainWait, 1, 65);       // D
  t.Close(70);
  t.Close(80);
  t.Close(100);
  t.Open(SpanKind::kBenchWait, 2, 120);         // E
  t.Close(130);
  t.End(200);
  const auto& totals = t.totals();
  const auto of = [&](SpanKind k) { return totals[static_cast<size_t>(k)]; };
  EXPECT(of(SpanKind::kBenchRound).total_ns == 90);
  EXPECT(of(SpanKind::kBenchRound).self_ns == 40);  // 90 - (30 + 20)
  EXPECT(of(SpanKind::kPipelineSnapshot).self_ns == 30);
  EXPECT(of(SpanKind::kNetOffer).total_ns == 20);
  EXPECT(of(SpanKind::kNetOffer).self_ns == 15);  // 20 - 5
  EXPECT(of(SpanKind::kNetDrainWait).self_ns == 5);
  EXPECT(of(SpanKind::kBenchWait).calls == 1);
  EXPECT(t.wall_ns() == 200);
  EXPECT(t.covered_ns() == 100);  // A + E
  // Self times of all spans add up to the covered time.
  uint64_t self_sum = 0;
  for (const SpanTotals& s : totals) self_sum += s.self_ns;
  EXPECT(self_sum == t.covered_ns());
  const std::vector<SpanRecord>& r = t.records();
  EXPECT(r.size() == 5);
  EXPECT(r[0].parent == -1 && r[1].parent == 0 && r[2].parent == 0 &&
         r[3].parent == 2 && r[4].parent == -1);
  EXPECT(r[3].start_ns == 65 && r[3].end_ns == 70);

  // Past the record budget spans still count in the totals.
  ThreadTrace capped("capped", 2);
  capped.Begin(0);
  for (uint64_t i = 0; i < 5; ++i) {
    capped.Open(SpanKind::kNetQuery, i, 10 * i);
    capped.Close(10 * i + 4);
  }
  capped.End(50);
  EXPECT(capped.records().size() == 2 && capped.dropped() == 3);
  EXPECT(capped.totals()[static_cast<size_t>(SpanKind::kNetQuery)].calls ==
         5);
  EXPECT(capped.covered_ns() == 20);

  // The tracer sums threads and reports the lowest coverage.
  Tracer tracer;
  ThreadTrace* a = tracer.Register("ep0/a");
  ThreadTrace* b = tracer.Register("ep0/b");
  a->Begin(0);
  a->Open(SpanKind::kAdversaryNext, 0, 0);
  a->Close(90);
  a->End(100);
  b->Begin(0);
  b->Open(SpanKind::kAdversaryObserve, 0, 0);
  b->Close(50);
  b->End(100);
  const TraceSummary summary = tracer.Summarize();
  EXPECT(summary.threads.size() == 2);
  EXPECT(summary.MinCoverage() == 0.5);
  EXPECT(summary.LayerSelfNs("adversary") == 140);
  EXPECT(SpanLayer(SpanKind::kSetsystemDiscrepancy) == "setsystem");
}

void TestCatalogDelta() {
  const SeriesKey absent{SeriesKey::Type::kHistogram,
                         "rs_e2ebench_selftest_never_registered_ns", "", ""};
  const SeriesKey counter{SeriesKey::Type::kCounter,
                          "rs_e2ebench_selftest_total", "", ""};
  const SeriesKey labeled{SeriesKey::Type::kHistogram,
                          "rs_e2ebench_selftest_ns", "kind", "x"};
  EXPECT(labeled.FullName() == "rs_e2ebench_selftest_ns{kind=\"x\"}");
  const std::vector<SeriesKey> keys = {absent, counter, labeled};

  const CatalogSnapshot before = CatalogSnapshot::Take(keys);
  EXPECT(!before.Get(absent).has_value());
  // Registered only inside the window: counts from zero.
  namespace obs = robust_sampling::obs;
  obs::MetricRegistry::Global().GetCounter(counter.name)->Increment(3);
  obs::MetricRegistry::Global()
      .GetHistogram(labeled.name, "", {"kind", "x"})
      ->Observe(250);
  const CatalogSnapshot after = CatalogSnapshot::Take(keys);
  EXPECT(!Delta(before, after, absent).has_value());  // absent, not zero
  // Reading never registers a series.
  const std::vector<std::string> names =
      obs::MetricRegistry::Global().Names();
  for (const std::string& name : names) EXPECT(name != absent.FullName());
#if RS_METRICS_ENABLED
  EXPECT(Delta(before, after, counter).has_value());
  EXPECT(Delta(before, after, counter)->count == 3);
  EXPECT(Delta(before, after, labeled)->count == 1);
  EXPECT(Delta(before, after, labeled)->sum == 250);
#else
  // Without metrics nothing is registered: every series is absent.
  EXPECT(!Delta(before, after, counter).has_value());
  EXPECT(!Delta(before, after, labeled).has_value());
#endif
  std::optional<SeriesValue> total;
  Accumulate(&total, std::nullopt);
  EXPECT(!total.has_value());
  Accumulate(&total, SeriesValue{2, 5});
  Accumulate(&total, SeriesValue{1, 1});
  EXPECT(total && total->count == 3 && total->sum == 6);
}

void TestFreshnessAndRankCheck() {
  // Answers (time, watermark) in arrival order; the running maximum
  // decides the first covering answer.
  const std::vector<Stamp> answers = {
      {1'000'000, 10}, {2'000'000, 30}, {3'000'000, 20}, {4'000'000, 50}};
  const std::vector<Stamp> due = {
      {0, 10}, {500'000, 25}, {1'500'000, 40}, {0, 60}};
  const std::vector<double> fresh = FreshnessMs(due, answers);
  EXPECT(fresh.size() == 3);  // watermark 60 is never covered
  EXPECT(fresh[0] == 1.0 && fresh[1] == 1.5 && fresh[2] == 2.5);

  std::vector<int64_t> stream;
  for (int64_t i = 1; i <= 100; ++i) stream.push_back(i);
  EXPECT(QuantileWithinEps(stream, 0.5, 50.0, 0.01));
  EXPECT(QuantileWithinEps(stream, 0.5, 54.0, 0.05));
  EXPECT(!QuantileWithinEps(stream, 0.5, 60.0, 0.05));
  EXPECT(!QuantileWithinEps({}, 0.5, 1.0, 0.5));
}

}  // namespace
}  // namespace e2ebench

int main() {
  using namespace e2ebench;
  TestPercentileSelection();
  TestMetricNames();
  TestSelfTime();
  TestCatalogDelta();
  TestFreshnessAndRankCheck();
  if (failures != 0) {
    std::fprintf(stderr, "e2ebench_selftest: %d failed\n", failures);
    return 1;
  }
  std::printf("e2ebench_selftest: all passed\n");
  return 0;
}
