// Tests for the type-erased query surface: every registry built-in either
// answers SampleView / Quantile / EstimateFrequency / HeavyHitters or
// cleanly reports the capability as unsupported (Capabilities() bitmask +
// aborting erased call), sample-backed answers agree with ground truth,
// and merged ShardedPipeline snapshots answer within eps of single-stream
// estimates — all with zero downcasts.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <map>
#include <set>
#include <span>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "heavy/exact_counter.h"
#include "heavy/space_saving.h"
#include "pipeline/sharded_pipeline.h"
#include "pipeline/sketch_registry.h"
#include "pipeline/stream_sketch.h"
#include "stream/generators.h"
#include "stream/zipf.h"

namespace robust_sampling {
namespace {

SketchConfig ConfigFor(const std::string& kind) {
  SketchConfig config;
  config.kind = kind;
  config.probability = 0.2;  // read by "bernoulli" only
  config.capacity = 64;      // read by reservoir/kll/mg/ss
  config.seed = 11;
  return config;
}

// The expected capability sets of the seven built-ins for int64_t
// elements (all serializable — int64_t is a wire value). A kind missing
// from this map fails the test — keeping the matrix in sync with the
// registry is the point.
const std::map<std::string, uint32_t>& ExpectedCaps() {
  static const std::map<std::string, uint32_t> caps = {
      {"robust_sample", kCapSampleView | kCapQuantiles | kCapFrequencies |
                            kCapHeavyHitters | kCapSerialize},
      {"reservoir", kCapSampleView | kCapQuantiles | kCapFrequencies |
                        kCapHeavyHitters | kCapSerialize},
      {"bernoulli", kCapSampleView | kCapQuantiles | kCapFrequencies |
                        kCapHeavyHitters | kCapSerialize},
      {"kll", kCapQuantiles | kCapSerialize},
      {"count_min", kCapFrequencies | kCapHeavyHitters | kCapSerialize},
      {"misra_gries", kCapFrequencies | kCapHeavyHitters | kCapSerialize},
      {"space_saving", kCapFrequencies | kCapHeavyHitters | kCapSerialize},
  };
  return caps;
}

TEST(QuerySurfaceTest, EveryBuiltinDeclaresTheExpectedCapabilities) {
  for (const auto& kind : SketchRegistry<int64_t>::Global().Kinds()) {
    const auto it = ExpectedCaps().find(kind);
    ASSERT_NE(it, ExpectedCaps().end())
        << "kind '" << kind << "' missing from the expected capability "
        << "matrix — update this test and docs/registry.md";
    const auto sketch =
        SketchRegistry<int64_t>::Global().Create(ConfigFor(kind));
    EXPECT_EQ(sketch.Capabilities(), it->second) << kind;
  }
}

// Every built-in answers each supported query group after ingesting a
// batch, with sane values; the groups it does not support are reported
// via Supports() == false (the aborting path is covered by the death test
// below).
TEST(QuerySurfaceTest, EveryBuiltinAnswersItsSupportedQueries) {
  const auto stream = UniformIntStream(4000, 1000, 21);
  for (const auto& kind : SketchRegistry<int64_t>::Global().Kinds()) {
    auto sketch = SketchRegistry<int64_t>::Global().Create(ConfigFor(kind));
    sketch.InsertBatch(stream);
    if (sketch.Supports(kCapSampleView)) {
      const SketchSampleView<int64_t> view = sketch.SampleView();
      EXPECT_EQ(view.elements.size(), sketch.SpaceItems()) << kind;
      for (int64_t v : view.elements) {
        EXPECT_GE(v, 1);
        EXPECT_LE(v, 1000);
      }
    }
    if (sketch.Supports(kCapQuantiles)) {
      const double median = sketch.Quantile(0.5);
      EXPECT_GE(median, 1.0) << kind;
      EXPECT_LE(median, 1000.0) << kind;
      EXPECT_LE(sketch.Rank(0.0), sketch.Rank(1000.0)) << kind;
      EXPECT_DOUBLE_EQ(sketch.Rank(1000.0), 1.0) << kind;
    }
    if (sketch.Supports(kCapFrequencies)) {
      const double f = sketch.EstimateFrequency(500);
      EXPECT_GE(f, 0.0) << kind;
      EXPECT_LE(f, 1.0) << kind;
    }
    if (sketch.Supports(kCapHeavyHitters)) {
      // A uniform stream over 1000 values has no 0.5-heavy element.
      EXPECT_TRUE(sketch.HeavyHitters(0.5).empty()) << kind;
    }
  }
}

TEST(QuerySurfaceDeathTest, UnsupportedQueriesAbortWithAClearMessage) {
  auto kll = SketchRegistry<int64_t>::Global().Create(ConfigFor("kll"));
  kll.Insert(1);
  EXPECT_FALSE(kll.Supports(kCapSampleView));
  EXPECT_DEATH(kll.SampleView(), "no sample view");
  EXPECT_DEATH(kll.EstimateFrequency(1), "frequency queries");
  EXPECT_DEATH(kll.HeavyHitters(0.1), "heavy-hitter queries");
  auto cm = SketchRegistry<int64_t>::Global().Create(ConfigFor("count_min"));
  EXPECT_DEATH(cm.Quantile(0.5), "quantile queries");
  EXPECT_DEATH(cm.Rank(0.5), "quantile queries");
}

// With capacity >= stream length the reservoir retains everything, so the
// sample-backed query hooks must answer *exactly*.
TEST(QuerySurfaceTest, SampleBackedAnswersAreExactWhenSampleIsWhole) {
  SketchConfig config;
  config.kind = "reservoir";
  config.capacity = 1000;
  config.seed = 31;
  auto sketch = SketchRegistry<int64_t>::Global().Create(config);
  std::vector<int64_t> stream;
  ExactCounter exact;
  for (int64_t i = 0; i < 500; ++i) {
    // 0..499 with element 7 tripled: one clear heavy hitter.
    stream.push_back(i);
    if (i % 5 == 0) stream.push_back(7);
  }
  sketch.InsertBatch(stream);
  for (int64_t v : stream) exact.Insert(v);
  std::vector<int64_t> sorted = stream;
  std::sort(sorted.begin(), sorted.end());
  for (double q : {0.1, 0.5, 0.9}) {
    const size_t rank = static_cast<size_t>(
        std::max<int64_t>(0, static_cast<int64_t>(
                                 std::ceil(q * sorted.size())) -
                                 1));
    EXPECT_DOUBLE_EQ(sketch.Quantile(q),
                     static_cast<double>(sorted[rank]))
        << q;
  }
  EXPECT_DOUBLE_EQ(sketch.EstimateFrequency(7),
                   exact.EstimateFrequency(7));
  const auto hh = sketch.HeavyHitters(0.1);
  ASSERT_EQ(hh.size(), 1u);
  EXPECT_EQ(hh[0].element, 7);
  EXPECT_DOUBLE_EQ(hh[0].frequency, exact.EstimateFrequency(7));
}

// The headline serving contract: a merged N-shard snapshot answers
// quantile (Rank) queries within eps of single-shard ground truth,
// entirely through the erased API (ShardedPipeline::Query, no downcast).
TEST(QuerySurfaceTest, MergedSnapshotRankAgreesWithGroundTruthWithinEps) {
  const double eps = 0.1;
  const uint64_t universe = uint64_t{1} << 20;
  const auto stream =
      UniformIntStream(150000, static_cast<int64_t>(universe), 41);
  SketchConfig config;
  config.kind = "robust_sample";
  config.eps = eps;
  config.delta = 0.05;
  config.universe_size = universe;
  config.seed = 43;
  PipelineOptions options;
  options.num_shards = 4;
  ShardedPipeline<int64_t> pipeline(config, options);
  auto& producer = pipeline.RegisterProducer();
  for (size_t i = 0; i < stream.size(); i += 4096) {
    const size_t len = std::min<size_t>(4096, stream.size() - i);
    producer.Ingest(std::span<const int64_t>(stream.data() + i, len));
  }
  ASSERT_TRUE(pipeline.Capabilities() & kCapQuantiles);
  std::vector<int64_t> sorted = stream;
  std::sort(sorted.begin(), sorted.end());
  for (double q : {0.1, 0.5, 0.9}) {
    const int64_t threshold =
        sorted[static_cast<size_t>(q * (sorted.size() - 1))];
    size_t truth = 0;
    for (int64_t v : stream) truth += v <= threshold;
    const double true_density =
        static_cast<double>(truth) / static_cast<double>(stream.size());
    const double est = pipeline.Query([&](const StreamSketch<int64_t>& s) {
      return s.Rank(static_cast<double>(threshold));
    });
    EXPECT_NEAR(est, true_density, eps) << "q=" << q;
  }
}

// CountMin shards share hash rows, so merged-snapshot frequency answers
// must equal a single sketch of the whole stream exactly — checked purely
// through the erased surface on both sides.
TEST(QuerySurfaceTest, MergedCountMinFrequenciesEqualSingleSketch) {
  SketchConfig config;
  config.kind = "count_min";
  config.width = 512;
  config.depth = 3;
  config.seed = 53;
  PipelineOptions options;
  options.num_shards = 4;
  options.partition = PartitionPolicy::kHash;
  ShardedPipeline<int64_t> pipeline(config, options);
  const auto stream = ZipfIntStream(40000, 2000, 1.2, 59);
  pipeline.RegisterProducer().Ingest(stream);
  const StreamSketch<int64_t> merged = pipeline.Snapshot();
  StreamSketch<int64_t> single =
      SketchRegistry<int64_t>::Global().Create(config);
  single.InsertBatch(stream);
  for (int64_t x = 1; x <= 2000; x += 37) {
    EXPECT_DOUBLE_EQ(merged.EstimateFrequency(x),
                     single.EstimateFrequency(x))
        << x;
  }
}

// Merged heavy-hitter reports (SpaceSaving, hash-partitioned so each
// element's counts concentrate on one shard) recover the same heavy set a
// single-stream summary finds.
TEST(QuerySurfaceTest, MergedHeavyHittersMatchSingleStreamSummary) {
  SketchConfig config;
  config.kind = "space_saving";
  config.capacity = 200;
  PipelineOptions options;
  options.num_shards = 4;
  options.partition = PartitionPolicy::kHash;
  ShardedPipeline<int64_t> pipeline(config, options);
  const auto stream = ZipfIntStream(60000, 5000, 1.3, 61);
  pipeline.RegisterProducer().Ingest(stream);
  const auto merged_hh = pipeline.Query([](const StreamSketch<int64_t>& s) {
    return s.HeavyHitters(0.05);
  });
  SpaceSaving single(200);
  for (int64_t v : stream) single.Insert(v);
  std::set<int64_t> merged_set, single_set;
  for (const auto& h : merged_hh) merged_set.insert(h.element);
  for (const auto& h : single.HeavyHitters(0.05)) {
    single_set.insert(h.element);
  }
  EXPECT_EQ(merged_set, single_set);
}

// Custom kinds ride the same rails: an adapter defined here (not in the
// library) gets its capability hooks discovered at Wrap time.
class MaxTrackerAdapter {
 public:
  void Insert(const int64_t& x) {
    ++n_;
    max_ = std::max(max_, x);
  }
  void InsertBatch(std::span<const int64_t> xs) {
    for (int64_t x : xs) Insert(x);
  }
  void MergeFrom(const MaxTrackerAdapter& other) {
    n_ += other.n_;
    max_ = std::max(max_, other.max_);
  }
  size_t StreamSize() const { return n_; }
  size_t SpaceItems() const { return 1; }
  std::string Name() const { return "max_tracker"; }
  // One capability only: every rank mass sits at the maximum.
  double Quantile(double) const { return static_cast<double>(max_); }
  double Rank(double x) const {
    return static_cast<double>(max_) <= x ? 1.0 : 0.0;
  }

 private:
  size_t n_ = 0;
  int64_t max_ = std::numeric_limits<int64_t>::min();
};

TEST(QuerySurfaceTest, CustomAdapterCapabilitiesAreDiscoveredAtWrapTime) {
  auto sketch =
      StreamSketch<int64_t>::Wrap(MaxTrackerAdapter());
  sketch.InsertBatch(std::vector<int64_t>{3, 9, 4});
  EXPECT_EQ(sketch.Capabilities(),
            static_cast<uint32_t>(kCapQuantiles));
  EXPECT_DOUBLE_EQ(sketch.Quantile(0.5), 9.0);
  EXPECT_DOUBLE_EQ(sketch.Rank(8.0), 0.0);
  EXPECT_DOUBLE_EQ(sketch.Rank(9.0), 1.0);
  EXPECT_FALSE(sketch.Supports(kCapSampleView));
}

}  // namespace
}  // namespace robust_sampling
