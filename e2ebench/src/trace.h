#ifndef E2EBENCH_TRACE_H_
#define E2EBENCH_TRACE_H_

// Span tracing owned by the benchmark. Spans are recorded in the
// benchmark's own files around each call into a layer of the program; the
// program itself carries no instrumentation for this.
//
// Each generator thread (producer, control, query client, scheduler, game
// worker) registers a ThreadTrace for its lifetime. A span has a kind (its
// name, "<layer>.<what>"), a request id shared by the spans of one request
// (batch index, ship round, query index, trial), start and end, and its
// parent: the span open on the same thread when it began. Aggregates are
// kept online so long runs stay small:
//
//   self time of a span = its duration - the time its child spans cover
//
// and, per thread, the top-level spans' total against the thread's wall
// time (coverage). The first spans of each thread, up to a budget, are also
// kept as records and written out at the end as a Chrome trace
// (chrome://tracing, Perfetto).

#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace e2ebench {

enum class SpanKind : uint8_t {
  kPipelineIngest,        // ShardedPipeline::Producer::Ingest
  kPipelineSnapshot,      // ShardedPipeline::Snapshot (flush + fold)
  kSketchInsert,          // StreamSketch::InsertBatch
  kWireSerialize,         // wire::WriteSnapshot
  kNetOffer,              // SnapshotShipper::Offer
  kNetDrainWait,          // SnapshotShipper::WaitUntilDrained
  kNetQuery,              // CollectorClient query round trip
  kAttacklabTrial,        // one game trial (the game loop itself)
  kAdversaryNext,         // Adversary::NextElement
  kAdversaryObserve,      // Adversary::Observe
  kCoreSamplerInsert,     // sampler Insert
  kSetsystemDiscrepancy,  // DiscrepancyFn
  kBenchRound,            // one scheduled generator round (parent span)
  kBenchWait,             // generator waiting: schedule, think time, start
  kCount,
};

inline constexpr size_t kSpanKinds = static_cast<size_t>(SpanKind::kCount);

/// "pipeline.ingest", ...; the layer is the part before the first '.'.
const char* SpanName(SpanKind kind);
std::string SpanLayer(SpanKind kind);

/// Monotonic nanoseconds (steady clock).
uint64_t NowNs();

struct SpanRecord {
  SpanKind kind;
  int32_t parent;  // index into the same thread's records, -1 = top level
  uint64_t request;
  uint64_t start_ns;
  uint64_t end_ns;
};

struct SpanTotals {
  uint64_t calls = 0;
  uint64_t total_ns = 0;
  uint64_t self_ns = 0;
};

/// One thread's spans. Single-threaded: only its owning thread opens and
/// closes spans; the Tracer reads it after the thread has ended.
class ThreadTrace {
 public:
  ThreadTrace(std::string label, size_t keep_limit);

  /// The thread's measured lifetime, the base of coverage().
  void Begin(uint64_t now_ns);
  void End(uint64_t now_ns);

  void Open(SpanKind kind, uint64_t request, uint64_t now_ns);
  /// Closes the innermost open span.
  void Close(uint64_t now_ns);

  const std::string& label() const { return label_; }
  const std::array<SpanTotals, kSpanKinds>& totals() const { return totals_; }
  uint64_t wall_ns() const { return end_ns_ - begin_ns_; }
  /// Time covered by top-level spans (they never overlap on one thread).
  uint64_t covered_ns() const { return covered_ns_; }
  const std::vector<SpanRecord>& records() const { return records_; }
  uint64_t dropped() const { return dropped_; }
  uint64_t begin_ns() const { return begin_ns_; }

 private:
  struct Frame {
    SpanKind kind;
    int32_t record;  // -1 when past keep_limit
    uint64_t request;
    uint64_t start_ns;
    uint64_t child_ns;  // time covered by closed direct children
  };

  std::string label_;
  size_t keep_limit_;
  uint64_t begin_ns_ = 0;
  uint64_t end_ns_ = 0;
  uint64_t covered_ns_ = 0;
  uint64_t dropped_ = 0;
  std::vector<Frame> stack_;
  std::vector<SpanRecord> records_;
  std::array<SpanTotals, kSpanKinds> totals_{};
};

struct ThreadCoverage {
  std::string label;
  uint64_t wall_ns = 0;
  uint64_t covered_ns = 0;
  double share() const {
    return wall_ns == 0 ? 0.0
                        : static_cast<double>(covered_ns) /
                              static_cast<double>(wall_ns);
  }
};

struct TraceSummary {
  std::array<SpanTotals, kSpanKinds> totals{};
  std::vector<ThreadCoverage> threads;
  uint64_t spans_kept = 0;
  uint64_t spans_dropped = 0;
  /// Lowest thread coverage (1 when no thread registered).
  double MinCoverage() const;
  /// Sum of self time of every span kind in `layer`.
  uint64_t LayerSelfNs(const std::string& layer) const;
  const SpanTotals& Of(SpanKind kind) const {
    return totals[static_cast<size_t>(kind)];
  }
};

class Tracer {
 public:
  /// Keeps at most kKeepPerThread span records per thread and
  /// kKeepTotal over all threads, first come first served; aggregates
  /// count every span regardless.
  static constexpr size_t kKeepPerThread = 10'000;
  static constexpr size_t kKeepTotal = 100'000;

  Tracer() = default;
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// New ThreadTrace owned by this tracer. Thread-safe.
  ThreadTrace* Register(std::string label);

  /// Call only once every registered thread has ended.
  TraceSummary Summarize() const;
  bool WriteChromeTrace(const std::string& path) const;

  /// The calling thread's trace, or null when it is not traced.
  static ThreadTrace* Current();
  static void SetCurrent(ThreadTrace* trace);

 private:
  mutable std::mutex mu_;
  size_t keep_left_ = kKeepTotal;  // guarded by mu_
  std::vector<std::unique_ptr<ThreadTrace>> threads_;
};

/// Marks the calling thread as traced for its scope (no-op when `tracer`
/// is null, which is the untraced run).
class TraceThread {
 public:
  TraceThread(Tracer* tracer, std::string label);
  ~TraceThread();
  TraceThread(const TraceThread&) = delete;
  TraceThread& operator=(const TraceThread&) = delete;

 private:
  ThreadTrace* trace_ = nullptr;
};

/// One span on the calling thread; nothing when the thread is not traced.
class ScopedSpan {
 public:
  ScopedSpan(SpanKind kind, uint64_t request) : trace_(Tracer::Current()) {
    if (trace_ != nullptr) trace_->Open(kind, request, NowNs());
  }
  ~ScopedSpan() {
    if (trace_ != nullptr) trace_->Close(NowNs());
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  ThreadTrace* trace_;
};

}  // namespace e2ebench

#endif  // E2EBENCH_TRACE_H_
