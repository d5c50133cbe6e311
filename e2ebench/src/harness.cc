#include "harness.h"

#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <thread>

#include "net/snapshot_shipper.h"
#include "stats.h"

namespace e2ebench {

ShipTotals ShipTotals::Read(
    const robust_sampling::net::SnapshotShipper& shipper) {
  ShipTotals now;
  now.shipped = shipper.shipped();
  now.superseded = shipper.superseded();
  now.ship_failures = shipper.failures();
  now.reconnects = shipper.reconnect_attempts();
  return now;
}

void ShipTotals::AddShipper(
    const robust_sampling::net::SnapshotShipper& shipper,
    const ShipTotals& before) {
  const ShipTotals now = Read(shipper);
  shipped += now.shipped - before.shipped;
  superseded += now.superseded - before.superseded;
  ship_failures += now.ship_failures - before.ship_failures;
  reconnects += now.reconnects - before.reconnects;
}

std::vector<SeriesKey> ShipCatalogKeys(const std::string& kind) {
  return {
      {SeriesKey::Type::kHistogram, "rs_wire_deserialize_ns", "kind", kind},
      {SeriesKey::Type::kHistogram, "rs_net_collector_merge_ns", "", ""},
  };
}

void SetShipLayerMetrics(const ShipTotals& totals,
                         const std::string& generator, MetricSet* layer) {
  char note[160];
  layer->Set("wire.frame_bytes",
             totals.offers == 0 ? 0.0
                                : static_cast<double>(totals.frame_bytes) /
                                      static_cast<double>(totals.offers),
             "mean per frame");
  layer->Set("net.offers", static_cast<double>(totals.offers));
  layer->Set("net.shipped", static_cast<double>(totals.shipped));
  layer->Set("net.superseded", static_cast<double>(totals.superseded));
  std::snprintf(note, sizeof(note), "shipped %llu / offers %llu",
                static_cast<unsigned long long>(totals.shipped),
                static_cast<unsigned long long>(totals.offers));
  layer->Set("net.ship_useful_ratio",
             totals.offers == 0 ? 0.0
                                : static_cast<double>(totals.shipped) /
                                      static_cast<double>(totals.offers),
             note);
  layer->Set("net.ship_failures", static_cast<double>(totals.ship_failures));
  layer->Set("net.reconnects", static_cast<double>(totals.reconnects));
  layer->Set("net.collector_rejects",
             static_cast<double>(totals.collector_rejects));
  std::vector<double> late = totals.late_ms;
  std::sort(late.begin(), late.end());
  layer->Set("net.generator_late_p50_ms", Median(late),
             generator + ", " + std::to_string(late.size()) + " rounds");
  layer->Set("net.generator_late_max_ms", late.empty() ? 0.0 : late.back());
  if (totals.deserialize) {
    std::snprintf(note, sizeof(note), "%llu deserializations / %llu ships",
                  static_cast<unsigned long long>(totals.deserialize->count),
                  static_cast<unsigned long long>(totals.accepted));
    layer->Set("wire.deserialize_calls_per_ship",
               totals.accepted == 0
                   ? 0.0
                   : static_cast<double>(totals.deserialize->count) /
                         static_cast<double>(totals.accepted),
               note);
    layer->Set("wire.deserialize_s",
               static_cast<double>(totals.deserialize->sum) / 1e9,
               "rs_wire_deserialize_ns delta");
  }
  if (totals.merge) {
    const double merge_s = static_cast<double>(totals.merge->sum) / 1e9;
    layer->Set("net.collector_merge_s", merge_s,
               "rs_net_collector_merge_ns delta");
    std::snprintf(note, sizeof(note), "merge %.4g s / wall %.4g s", merge_s,
                  totals.measured_s);
    layer->Set("net.collector_merge_share", merge_s / totals.measured_s,
               note);
  }
}

const std::vector<double>& QuantileGrid() {
  static const std::vector<double> grid = {0.01, 0.05, 0.1, 0.25, 0.5,
                                           0.75, 0.9,  0.95, 0.99};
  return grid;
}

void ResetPeakRss() {
  malloc_trim(0);
  std::ofstream clear_refs("/proc/self/clear_refs");
  clear_refs << "5";
}

double PeakRssMib() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
    }
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss: KiB
}

void SleepUntilNs(uint64_t deadline_ns) {
  const uint64_t now = NowNs();
  if (deadline_ns > now) {
    std::this_thread::sleep_for(std::chrono::nanoseconds(deadline_ns - now));
  }
}

void SpinUntilNs(uint64_t deadline_ns) {
  while (NowNs() < deadline_ns) {
  }
}

bool SetLatencyMetrics(WorkloadResult* result, const std::string& prefix,
                       const std::string& unit,
                       const std::vector<std::vector<double>>& episodes) {
  std::vector<double> all;
  std::vector<double> episode_p99;
  bool per_episode = episodes.size() >= 3;
  for (std::vector<double> samples : episodes) {
    all.insert(all.end(), samples.begin(), samples.end());
    std::sort(samples.begin(), samples.end());
    const PercentileValue p99 = Percentile(samples, 99.0);
    per_episode = per_episode && p99.supported;
    episode_p99.push_back(p99.value);
  }
  std::sort(all.begin(), all.end());
  const PercentileValue p50 = Percentile(all, 50.0);
  const PercentileValue p99 = Percentile(all, 99.0);
  const double top = HighestSupportedPercentile(all.size());
  char note[200];
  std::snprintf(note, sizeof(note), "n=%zu, %zu beyond", p50.samples,
                p50.beyond);
  result->e2e.Set(prefix + "_p50_" + unit, p50.value, note);
  if (per_episode) {
    std::snprintf(note, sizeof(note),
                  "median of %zu per-episode p99s; all n=%zu, %zu beyond "
                  "p99 = %.6g; highest %s = %.6g",
                  episodes.size(), p99.samples, p99.beyond, p99.value,
                  PercentileLabel(top).c_str(), Percentile(all, top).value);
    result->layer.Set(prefix + "_p99_" + unit, Median(episode_p99), note);
  } else {
    std::snprintf(note, sizeof(note), "n=%zu, %zu beyond; highest %s = %.6g",
                  p99.samples, p99.beyond, PercentileLabel(top).c_str(),
                  Percentile(all, top).value);
    result->layer.Set(prefix + "_p99_" + unit, p99.value, note);
  }
  if (!p99.supported) {
    result->problems.push_back(prefix + " p99 has only " +
                               std::to_string(p99.beyond) +
                               " samples beyond it; the run is too short");
    return false;
  }
  return true;
}

std::vector<double> FreshnessMs(const std::vector<Stamp>& due,
                                const std::vector<Stamp>& answers) {
  // Running maximum of the answers' watermarks: the first answer covering
  // w is the first index whose running maximum reaches w.
  std::vector<uint64_t> covered(answers.size());
  uint64_t high = 0;
  for (size_t i = 0; i < answers.size(); ++i) {
    high = std::max(high, answers[i].watermark);
    covered[i] = high;
  }
  std::vector<double> out;
  out.reserve(due.size());
  for (const Stamp& d : due) {
    const auto it = std::lower_bound(covered.begin(), covered.end(),
                                     d.watermark);
    if (it == covered.end()) continue;
    const Stamp& answer = answers[static_cast<size_t>(it - covered.begin())];
    const uint64_t wait =
        answer.time_ns > d.time_ns ? answer.time_ns - d.time_ns : 0;
    out.push_back(static_cast<double>(wait) / 1e6);
  }
  return out;
}

bool QuantileWithinEps(const std::vector<int64_t>& sorted_stream, double q,
                       double answer, double eps) {
  if (sorted_stream.empty()) return false;
  const double n = static_cast<double>(sorted_stream.size());
  const auto lo = std::lower_bound(
      sorted_stream.begin(), sorted_stream.end(), answer,
      [](int64_t x, double a) { return static_cast<double>(x) < a; });
  const auto hi = std::upper_bound(
      sorted_stream.begin(), sorted_stream.end(), answer,
      [](double a, int64_t x) { return a < static_cast<double>(x); });
  const double rank_lo = static_cast<double>(lo - sorted_stream.begin()) / n;
  const double rank_hi = static_cast<double>(hi - sorted_stream.begin()) / n;
  return q >= rank_lo - eps && q <= rank_hi + eps;
}

}  // namespace e2ebench
