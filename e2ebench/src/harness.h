#ifndef E2EBENCH_HARNESS_H_
#define E2EBENCH_HARNESS_H_

// What the workloads share: the options a run gets, the result it returns,
// and the measurements more than one workload makes (latency percentiles,
// freshness, rank-error checks, peak memory).

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "catalog_delta.h"
#include "report.h"
#include "trace.h"

namespace robust_sampling::net {
class SnapshotShipper;
}

namespace e2ebench {

struct WorkloadOptions {
  uint64_t seed = 1;
  double seconds = 10.0;
  /// Non-null in the traced run.
  Tracer* tracer = nullptr;
};

struct WorkloadResult {
  MetricSet e2e;
  MetricSet layer;  // filled by the traced run
  /// The workload's headline rate, compared across the untraced and traced
  /// runs for obs.trace_overhead_ratio.
  double primary_rate = 0.0;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  /// Failed correctness checks and reasons the run is invalid.
  std::vector<std::string> problems;

  void Fail(const std::string& problem) {
    ++failed;
    problems.push_back(problem);
  }
};

WorkloadResult RunIngestSample(const WorkloadOptions& options);
WorkloadResult RunIngestHeavy(const WorkloadOptions& options);
WorkloadResult RunFaninQuery(const WorkloadOptions& options);
WorkloadResult RunAdaptiveGame(const WorkloadOptions& options);

/// The shipping side of a run, summed over episodes and shippers: what the
/// generator offered, what SnapshotShipper and Collector report, the
/// generator's lateness against its schedule and the collector series read
/// from the metric catalog.
struct ShipTotals {
  uint64_t offers = 0;
  uint64_t frame_bytes = 0;
  uint64_t shipped = 0;
  uint64_t superseded = 0;
  uint64_t ship_failures = 0;
  uint64_t reconnects = 0;
  uint64_t accepted = 0;  // collector-side accepted snapshots
  uint64_t collector_rejects = 0;
  double measured_s = 0.0;
  std::vector<double> late_ms;
  std::optional<SeriesValue> deserialize;  // rs_wire_deserialize_ns{kind}
  std::optional<SeriesValue> merge;        // rs_net_collector_merge_ns

  /// Adds `shipper`'s counters since `before` (a copy taken at the start
  /// of the window).
  void AddShipper(const robust_sampling::net::SnapshotShipper& shipper,
                  const ShipTotals& before);
  /// `shipper`'s counters now, as a `before` for AddShipper.
  static ShipTotals Read(const robust_sampling::net::SnapshotShipper& shipper);
};

/// The catalog series both shipping workloads read, for sketch `kind`:
/// [0] rs_wire_deserialize_ns{kind}, [1] rs_net_collector_merge_ns.
std::vector<SeriesKey> ShipCatalogKeys(const std::string& kind);

/// Sets the wire.* and net.* per-layer metrics from `totals`; `generator`
/// names the thread whose lateness is reported.
void SetShipLayerMetrics(const ShipTotals& totals,
                         const std::string& generator, MetricSet* layer);

/// The q-grid of the rank-error checks.
const std::vector<double>& QuantileGrid();

/// Starts a new peak-memory window: returns the heap's free memory to the
/// system (what earlier windows freed would otherwise stay resident and
/// count here), then, on Linux, resets the process's VmHWM through
/// /proc/self/clear_refs. Without it the window is the process lifetime.
void ResetPeakRss();

/// Peak resident set size of this process since the last ResetPeakRss(),
/// MiB.
double PeakRssMib();

/// Sleeps until the steady clock reads `deadline_ns`.
void SleepUntilNs(uint64_t deadline_ns);

/// Spins until the steady clock reads `deadline_ns`: a query client's
/// pause between queries. A client that sleeps lets its vCPU idle, and
/// waking an idle vCPU of a VM adds milliseconds to the next query.
void SpinUntilNs(uint64_t deadline_ns);

/// Sets the end-to-end `<prefix>_p50_<unit>` and the per-layer
/// `<prefix>_p99_<unit>` from latency samples (already in that unit), one
/// vector per episode. p50 is taken over all samples. p99 is the median of
/// the per-episode p99s when there are at least 3 episodes and each has at
/// least kMinBeyond samples beyond its own p99 — a long stall in one
/// episode then moves one of several values, not the whole tail — and the
/// p99 of all samples otherwise. The notes give the sample counts, the
/// samples beyond each percentile and the highest percentile all samples
/// support. False — and the result gets a problem — when the p99 of all
/// samples has fewer than kMinBeyond samples beyond it.
bool SetLatencyMetrics(WorkloadResult* result, const std::string& prefix,
                       const std::string& unit,
                       const std::vector<std::vector<double>>& episodes);

/// A watermark and when it became due (a batch was handed to Ingest, a
/// round was scheduled) or when an answer carrying it arrived.
struct Stamp {
  uint64_t time_ns;
  uint64_t watermark;
};

/// For each due stamp, milliseconds from its time to the first answer
/// (in arrival order) whose watermark covers it; due stamps no answer
/// covers are skipped. Answers must be in arrival order.
std::vector<double> FreshnessMs(const std::vector<Stamp>& due,
                                const std::vector<Stamp>& answers);

/// True when `answer`, returned for quantile q, has rank within eps of q
/// in the exact stream `sorted_stream`: some position of `answer` in the
/// sorted stream lies within eps * N of q * N.
bool QuantileWithinEps(const std::vector<int64_t>& sorted_stream, double q,
                       double answer, double eps);

}  // namespace e2ebench

#endif  // E2EBENCH_HARNESS_H_
