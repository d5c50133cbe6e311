#include "report.h"

#include <cctype>
#include <cmath>
#include <cstdio>

#include "core/check.h"

namespace e2ebench {

const std::vector<MetricSpec>& EndToEndMetrics() {
  static const std::vector<MetricSpec> specs = {
      {"setup_s", "s", false},
      {"elems_per_s", "elem/s", false},
      {"queries_per_s", "1/s", false},
      {"query_p50_us", "us", false},
      {"fresh_p50_ms", "ms", false},
      {"peak_rss_mib", "MiB", false},
  };
  return specs;
}

const std::vector<MetricSpec>& TailMetrics() {
  static const std::vector<MetricSpec> specs = {
      {"query_p99_us", "us", false},
      {"fresh_p99_ms", "ms", false},
  };
  return specs;
}

const std::vector<MetricSpec>& PerLayerMetrics() {
  static const std::vector<MetricSpec> specs = [] {
    std::vector<MetricSpec> all = TailMetrics();
    all.insert(all.end(), {
      {"pipeline.ingest_s", "s", false},
      {"pipeline.ingest_calls", "count", false},
      {"pipeline.backpressure_waits", "count", false},
      {"pipeline.snapshot_s", "s", false},
      {"pipeline.snapshot_calls", "count", false},
      {"pipeline.partition_s", "s", true},
      {"pipeline.rejected_batches", "count", false},
      {"pipeline.scaling_ratio", "ratio", false},
      {"sketch.baseline_elems_per_s", "elem/s", false},
      {"sketch.quantile_eval_us", "us", false},
      {"sketch.insert_s", "s", false},
      {"wire.serialize_s", "s", false},
      {"wire.serialize_calls", "count", false},
      {"wire.frame_bytes", "bytes", false},
      {"wire.deserialize_calls_per_ship", "ratio", true},
      {"wire.deserialize_s", "s", true},
      {"net.offers", "count", false},
      {"net.shipped", "count", false},
      {"net.superseded", "count", false},
      {"net.ship_useful_ratio", "ratio", false},
      {"net.collector_merge_s", "s", true},
      {"net.collector_merge_share", "ratio", true},
      {"net.query_rtt_s", "s", false},
      {"net.query_calls", "count", false},
      {"net.drain_wait_s", "s", false},
      {"net.ship_failures", "count", false},
      {"net.reconnects", "count", false},
      {"net.collector_rejects", "count", false},
      {"net.generator_late_p50_ms", "ms", false},
      {"net.generator_late_max_ms", "ms", false},
      {"attacklab.trials", "count", false},
      {"attacklab.self_s", "s", false},
      {"adversary.next_s", "s", false},
      {"adversary.observe_s", "s", false},
      {"core.sampler_insert_s", "s", false},
      {"setsystem.discrepancy_s", "s", false},
      {"setsystem.discrepancy_calls", "count", false},
      {"game_rounds_per_s", "rounds/s", false},
      {"bench.wait_s", "s", false},
      {"obs.trace_overhead_ratio", "ratio", false},
      {"obs.min_thread_coverage", "ratio", false},
      {"error_rate", "ratio", false},
    });
    return all;
  }();
  return specs;
}

bool ValidMetricName(const std::string& name) {
  if (name.empty() || name.size() > 64) return false;
  if (!std::isalnum(static_cast<unsigned char>(name[0]))) return false;
  for (char c : name) {
    if (!std::isalnum(static_cast<unsigned char>(c)) && c != '_' &&
        c != '.' && c != '-') {
      return false;
    }
  }
  return true;
}

namespace {

const MetricSpec* FindSpec(const std::string& name) {
  for (const auto* specs : {&EndToEndMetrics(), &PerLayerMetrics()}) {
    for (const MetricSpec& spec : *specs) {
      if (name == spec.name) return &spec;
    }
  }
  return nullptr;
}

}  // namespace

void MetricSet::Set(const std::string& name, double value, std::string note) {
  RS_CHECK_MSG(FindSpec(name) != nullptr, "unknown metric name");
  values_[name] = {value, std::move(note)};
}

void MetricSet::CopyFrom(const MetricSet& other, const std::string& name) {
  const auto it = other.values_.find(name);
  if (it != other.values_.end()) values_[name] = it->second;
}

double MetricSet::Get(const std::string& name) const {
  const auto it = values_.find(name);
  return it == values_.end() ? 0.0 : it->second.value;
}

std::vector<std::string> MetricSet::Missing(
    const std::vector<MetricSpec>& specs, bool allow_catalog_absent) const {
  std::vector<std::string> missing;
  for (const MetricSpec& spec : specs) {
    if (values_.count(spec.name)) continue;
    if (allow_catalog_absent && spec.catalog) continue;
    missing.push_back(spec.name);
  }
  return missing;
}

void MetricSet::Print(std::ostream& out,
                      const std::vector<MetricSpec>& specs) const {
  char line[160];
  for (const MetricSpec& spec : specs) {
    const auto it = values_.find(spec.name);
    if (it == values_.end()) {
      std::snprintf(line, sizeof(line), "  %-32s %14s\n", spec.name,
                    "absent");
      out << line;
      continue;
    }
    std::snprintf(line, sizeof(line), "  %-32s %14.6g %-8s", spec.name,
                  it->second.value, spec.unit);
    out << line;
    if (!it->second.note.empty()) out << "  " << it->second.note;
    out << "\n";
  }
}

std::string MetricSet::ToJson(const std::vector<MetricSpec>& specs) const {
  std::string out = "{";
  bool first = true;
  char buf[64];
  for (const MetricSpec& spec : specs) {
    const auto it = values_.find(spec.name);
    if (it == values_.end()) continue;
    std::snprintf(buf, sizeof(buf), "%.17g", it->second.value);
    if (!first) out += ", ";
    first = false;
    out += "\"" + std::string(spec.name) + "\": {\"value\": " + buf +
           ", \"unit\": \"" + spec.unit + "\"}";
  }
  return out + "}";
}

}  // namespace e2ebench
