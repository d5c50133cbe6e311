// e2ebench: the repository's end-to-end benchmark.
//
//   e2ebench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//   e2ebench --list-metrics
//
// --trace 0 runs the workload untraced and reports the end-to-end metrics.
// --trace 1 runs it untraced, then again traced, and reports the per-layer
// metrics (from the traced run) and obs.trace_overhead_ratio (the two
// runs' headline rates). The last line of standard output is one JSON
// object: {"correct", "attempted", "failed", "metrics"}. The exit code is
// 0 only when every correctness check passed and the run was valid.

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <map>
#include <set>
#include <string>

#include "harness.h"
#include "obs/metrics.h"
#include "report.h"
#include "trace.h"

namespace e2ebench {
namespace {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  int trace = 0;
  bool list_metrics = false;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--list-metrics") {
      args->list_metrics = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      args->trace = std::atoi(value.c_str());
    } else {
      return false;
    }
  }
  return args->list_metrics ||
         (!args->workload.empty() && args->seconds > 0.0 &&
          (args->trace == 0 || args->trace == 1));
}

using WorkloadFn = WorkloadResult (*)(const WorkloadOptions&);

const std::map<std::string, WorkloadFn>& Workloads() {
  static const std::map<std::string, WorkloadFn> workloads = {
      {"ingest_sample", &RunIngestSample},
      {"ingest_heavy", &RunIngestHeavy},
      {"fanin_query", &RunFaninQuery},
      {"adaptive_game", &RunAdaptiveGame},
  };
  return workloads;
}

/// Per-layer metrics measured by the traced run's spans.
void SetSpanMetrics(const TraceSummary& trace, MetricSet* layer) {
  const auto seconds = [&](SpanKind kind) {
    return static_cast<double>(trace.Of(kind).total_ns) / 1e9;
  };
  const auto calls = [&](SpanKind kind) {
    return static_cast<double>(trace.Of(kind).calls);
  };
  layer->Set("pipeline.ingest_s", seconds(SpanKind::kPipelineIngest));
  layer->Set("pipeline.ingest_calls", calls(SpanKind::kPipelineIngest));
  layer->Set("pipeline.snapshot_s", seconds(SpanKind::kPipelineSnapshot));
  layer->Set("pipeline.snapshot_calls", calls(SpanKind::kPipelineSnapshot));
  layer->Set("sketch.insert_s", seconds(SpanKind::kSketchInsert));
  layer->Set("wire.serialize_s", seconds(SpanKind::kWireSerialize));
  layer->Set("wire.serialize_calls", calls(SpanKind::kWireSerialize));
  layer->Set("net.query_rtt_s", seconds(SpanKind::kNetQuery));
  layer->Set("net.query_calls", calls(SpanKind::kNetQuery));
  layer->Set("net.drain_wait_s", seconds(SpanKind::kNetDrainWait));
  layer->Set("attacklab.self_s",
             static_cast<double>(trace.Of(SpanKind::kAttacklabTrial).self_ns) /
                 1e9,
             "trial time outside its adversary, sampler and check spans");
  layer->Set("adversary.next_s", seconds(SpanKind::kAdversaryNext));
  layer->Set("adversary.observe_s", seconds(SpanKind::kAdversaryObserve));
  layer->Set("core.sampler_insert_s", seconds(SpanKind::kCoreSamplerInsert));
  layer->Set("setsystem.discrepancy_s",
             seconds(SpanKind::kSetsystemDiscrepancy));
  layer->Set("setsystem.discrepancy_calls",
             calls(SpanKind::kSetsystemDiscrepancy));
  layer->Set("bench.wait_s", seconds(SpanKind::kBenchWait),
             "generator threads waiting on their schedule or start");
  char note[96];
  std::snprintf(note, sizeof(note), "lowest of %zu generator threads",
                trace.threads.size());
  layer->Set("obs.min_thread_coverage", trace.MinCoverage(), note);
}

/// How the spans add up: self time per layer, and per generator thread
/// role (summed over episodes) the share of wall time its top-level spans
/// cover.
void PrintTraceBreakdown(const TraceSummary& trace) {
  std::set<std::string> layers;
  for (size_t k = 0; k < kSpanKinds; ++k) {
    layers.insert(SpanLayer(static_cast<SpanKind>(k)));
  }
  uint64_t wall = 0;
  std::map<std::string, std::pair<uint64_t, uint64_t>> roles;
  for (const ThreadCoverage& t : trace.threads) {
    wall += t.wall_ns;
    const std::string role = t.label.substr(t.label.find('/') + 1);
    roles[role].first += t.wall_ns;
    roles[role].second += t.covered_ns;
  }
  std::printf("trace: self time by layer (share of %.3f s generator-thread "
              "wall time)\n",
              static_cast<double>(wall) / 1e9);
  for (const std::string& layer : layers) {
    const uint64_t ns = trace.LayerSelfNs(layer);
    std::printf("  %-12s %10.4f s  %6.2f%%\n", layer.c_str(),
                static_cast<double>(ns) / 1e9,
                wall == 0 ? 0.0 : 100.0 * static_cast<double>(ns) /
                                      static_cast<double>(wall));
  }
  std::printf("trace: span coverage of generator-thread wall time\n");
  for (const auto& [role, ns] : roles) {
    std::printf("  %-12s wall %9.4f s  covered %6.2f%%\n", role.c_str(),
                static_cast<double>(ns.first) / 1e9,
                ns.first == 0 ? 0.0
                              : 100.0 * static_cast<double>(ns.second) /
                                    static_cast<double>(ns.first));
  }
  std::printf("trace: %llu spans kept, %llu past the per-thread cap "
              "(counted in the totals)\n",
              static_cast<unsigned long long>(trace.spans_kept),
              static_cast<unsigned long long>(trace.spans_dropped));
}

void PrintProblems(const WorkloadResult& result, const char* pass) {
  for (const std::string& problem : result.problems) {
    std::printf("PROBLEM (%s run): %s\n", pass, problem.c_str());
  }
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: e2ebench --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1> | --list-metrics\n");
    return 2;
  }
  if (args.list_metrics) {
    for (const MetricSpec& m : EndToEndMetrics()) {
      std::printf("end_to_end %s %s\n", m.name, m.unit);
    }
    for (const MetricSpec& m : PerLayerMetrics()) {
      std::printf("per_layer %s %s\n", m.name, m.unit);
    }
    return 0;
  }
  const auto it = Workloads().find(args.workload);
  if (it == Workloads().end()) {
    std::fprintf(stderr, "unknown workload: %s\n", args.workload.c_str());
    return 2;
  }
  std::printf("e2ebench workload=%s seed=%llu seconds=%g trace=%d\n",
              args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace);

  WorkloadOptions options;
  options.seed = args.seed;
  options.seconds = args.seconds;
  WorkloadResult plain = it->second(options);
  PrintProblems(plain, "untraced");
  uint64_t attempted = plain.attempted;
  uint64_t failed = plain.failed;
  bool correct = plain.problems.empty() &&
                 plain.e2e.Missing(EndToEndMetrics(), false).empty();
  std::string metrics_json;

  if (args.trace == 0) {
    std::printf("end-to-end metrics (untraced):\n");
    plain.e2e.Print(std::cout, EndToEndMetrics());
    plain.layer.Print(std::cout, TailMetrics());
    metrics_json = plain.e2e.ToJson(EndToEndMetrics());
  } else {
    Tracer tracer;
    options.tracer = &tracer;
    WorkloadResult traced = it->second(options);
    PrintProblems(traced, "traced");
    attempted += traced.attempted;
    failed += traced.failed;
    correct = correct && traced.problems.empty();
    const TraceSummary trace = tracer.Summarize();
    MetricSet& layer = traced.layer;
    for (const MetricSpec& tail : TailMetrics()) {
      layer.CopyFrom(plain.layer, tail.name);  // untraced latency tails
    }
    SetSpanMetrics(trace, &layer);
    char note[128];
    std::snprintf(note, sizeof(note), "untraced rate %.6g / traced rate %.6g",
                  plain.primary_rate, traced.primary_rate);
    layer.Set("obs.trace_overhead_ratio",
              traced.primary_rate > 0.0
                  ? plain.primary_rate / traced.primary_rate
                  : 0.0,
              note);
    std::snprintf(note, sizeof(note), "%llu failed / %llu attempted",
                  static_cast<unsigned long long>(failed),
                  static_cast<unsigned long long>(attempted));
    layer.Set("error_rate",
              attempted == 0 ? 0.0
                             : static_cast<double>(failed) /
                                   static_cast<double>(attempted),
              note);
    for (const std::string& name :
         layer.Missing(PerLayerMetrics(), !RS_METRICS_ENABLED)) {
      layer.Set(name, 0.0, "not exercised by this workload");
    }
    if (trace.MinCoverage() < 0.9) {
      correct = false;
      std::printf("PROBLEM: a generator thread's spans cover under 90%% of "
                  "its wall time\n");
    }
    PrintTraceBreakdown(trace);
    std::filesystem::create_directories(".bench_build/traces");
    const std::string path = ".bench_build/traces/" + args.workload + "-" +
                             std::to_string(args.seed) + ".trace.json";
    if (tracer.WriteChromeTrace(path)) {
      std::printf("trace written to %s\n", path.c_str());
    }
    std::printf("end-to-end metrics (untraced run):\n");
    plain.e2e.Print(std::cout, EndToEndMetrics());
    std::printf("per-layer metrics (traced run):\n");
    layer.Print(std::cout, PerLayerMetrics());
    metrics_json = layer.ToJson(PerLayerMetrics());
  }
  std::printf("error_rate %.6g (%llu failed / %llu attempted)\n",
              attempted == 0 ? 0.0
                             : static_cast<double>(failed) /
                                   static_cast<double>(attempted),
              static_cast<unsigned long long>(failed),
              static_cast<unsigned long long>(attempted));
  correct = correct && failed == 0 && attempted > 0;
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed), metrics_json.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace e2ebench

int main(int argc, char** argv) { return e2ebench::Main(argc, argv); }
