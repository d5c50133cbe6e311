#include "trace.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <utility>

namespace e2ebench {
namespace {

constexpr const char* kSpanNames[kSpanKinds] = {
    "pipeline.ingest",      "pipeline.snapshot", "sketch.insert",
    "wire.serialize",       "net.offer",         "net.drain_wait",
    "net.query",            "attacklab.trial",   "adversary.next",
    "adversary.observe",    "core.sampler_insert",
    "setsystem.discrepancy", "bench.round",      "bench.wait",
};

thread_local ThreadTrace* current_trace = nullptr;

}  // namespace

const char* SpanName(SpanKind kind) {
  return kSpanNames[static_cast<size_t>(kind)];
}

std::string SpanLayer(SpanKind kind) {
  const std::string name = SpanName(kind);
  return name.substr(0, name.find('.'));
}

uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

ThreadTrace::ThreadTrace(std::string label, size_t keep_limit)
    : label_(std::move(label)), keep_limit_(keep_limit) {
  stack_.reserve(8);
}

void ThreadTrace::Begin(uint64_t now_ns) {
  begin_ns_ = now_ns;
  end_ns_ = now_ns;
}

void ThreadTrace::End(uint64_t now_ns) { end_ns_ = now_ns; }

void ThreadTrace::Open(SpanKind kind, uint64_t request, uint64_t now_ns) {
  int32_t record = -1;
  if (records_.size() < keep_limit_) {
    record = static_cast<int32_t>(records_.size());
    const int32_t parent = stack_.empty() ? -1 : stack_.back().record;
    records_.push_back({kind, parent, request, now_ns, now_ns});
  } else {
    ++dropped_;
  }
  stack_.push_back({kind, record, request, now_ns, 0});
}

void ThreadTrace::Close(uint64_t now_ns) {
  const Frame frame = stack_.back();
  stack_.pop_back();
  const uint64_t duration = now_ns - frame.start_ns;
  SpanTotals& totals = totals_[static_cast<size_t>(frame.kind)];
  ++totals.calls;
  totals.total_ns += duration;
  // Children are closed, disjoint and inside this span, so the time they
  // cover is the sum of their durations.
  totals.self_ns += duration - frame.child_ns;
  if (frame.record >= 0) {
    records_[static_cast<size_t>(frame.record)].end_ns = now_ns;
  }
  if (stack_.empty()) {
    covered_ns_ += duration;
  } else {
    stack_.back().child_ns += duration;
  }
}

double TraceSummary::MinCoverage() const {
  double lowest = 1.0;
  for (const ThreadCoverage& t : threads) {
    if (t.share() < lowest) lowest = t.share();
  }
  return lowest;
}

uint64_t TraceSummary::LayerSelfNs(const std::string& layer) const {
  uint64_t total = 0;
  for (size_t k = 0; k < kSpanKinds; ++k) {
    if (SpanLayer(static_cast<SpanKind>(k)) == layer) {
      total += totals[k].self_ns;
    }
  }
  return total;
}

ThreadTrace* Tracer::Register(std::string label) {
  std::lock_guard<std::mutex> lock(mu_);
  const size_t keep = std::min(kKeepPerThread, keep_left_);
  keep_left_ -= keep;
  threads_.push_back(std::make_unique<ThreadTrace>(std::move(label), keep));
  return threads_.back().get();
}

TraceSummary Tracer::Summarize() const {
  std::lock_guard<std::mutex> lock(mu_);
  TraceSummary summary;
  for (const auto& thread : threads_) {
    for (size_t k = 0; k < kSpanKinds; ++k) {
      summary.totals[k].calls += thread->totals()[k].calls;
      summary.totals[k].total_ns += thread->totals()[k].total_ns;
      summary.totals[k].self_ns += thread->totals()[k].self_ns;
    }
    summary.threads.push_back(
        {thread->label(), thread->wall_ns(), thread->covered_ns()});
    summary.spans_kept += thread->records().size();
    summary.spans_dropped += thread->dropped();
  }
  return summary;
}

bool Tracer::WriteChromeTrace(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::ofstream out(path);
  if (!out) return false;
  uint64_t origin = UINT64_MAX;
  for (const auto& thread : threads_) {
    if (thread->begin_ns() < origin) origin = thread->begin_ns();
  }
  out << "{\"traceEvents\":[\n";
  bool first = true;
  char line[256];
  for (size_t tid = 0; tid < threads_.size(); ++tid) {
    const ThreadTrace& thread = *threads_[tid];
    std::snprintf(line, sizeof(line),
                  "%s{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":1,"
                  "\"tid\":%zu,\"args\":{\"name\":\"%s\"}}",
                  first ? "" : ",\n", tid, thread.label().c_str());
    out << line;
    first = false;
    for (const SpanRecord& r : thread.records()) {
      std::snprintf(line, sizeof(line),
                    ",\n{\"ph\":\"X\",\"name\":\"%s\",\"pid\":1,\"tid\":%zu,"
                    "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"request\":%llu,"
                    "\"parent\":%d}}",
                    SpanName(r.kind), tid,
                    static_cast<double>(r.start_ns - origin) / 1e3,
                    static_cast<double>(r.end_ns - r.start_ns) / 1e3,
                    static_cast<unsigned long long>(r.request), r.parent);
      out << line;
    }
  }
  out << "\n]}\n";
  return static_cast<bool>(out);
}

ThreadTrace* Tracer::Current() { return current_trace; }

void Tracer::SetCurrent(ThreadTrace* trace) { current_trace = trace; }

TraceThread::TraceThread(Tracer* tracer, std::string label) {
  if (tracer == nullptr) return;
  trace_ = tracer->Register(std::move(label));
  trace_->Begin(NowNs());
  Tracer::SetCurrent(trace_);
}

TraceThread::~TraceThread() {
  if (trace_ == nullptr) return;
  trace_->End(NowNs());
  Tracer::SetCurrent(nullptr);
}

}  // namespace e2ebench
