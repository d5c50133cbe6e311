#ifndef E2EBENCH_REPORT_H_
#define E2EBENCH_REPORT_H_

// The benchmark's metric catalog and its output. Every workload reports
// every end-to-end metric (untraced run) and every per-layer metric
// (traced run); a per-layer metric read from the program's own
// obs::MetricRegistry series is marked `catalog` and is left out, not
// zeroed, when the build has no metrics (-DRS_METRICS=OFF). The p99
// latencies are per-layer metrics, taken from the untraced run: their
// run-to-run spread on a shared VM is wider than any bound could be.
// BENCHMARK.json lists the same names and units (checked by selftest.py).

#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <vector>

namespace e2ebench {

struct MetricSpec {
  const char* name;
  const char* unit;
  bool catalog;  // read from obs::MetricRegistry; absent without metrics
};

const std::vector<MetricSpec>& EndToEndMetrics();
/// Starts with TailMetrics().
const std::vector<MetricSpec>& PerLayerMetrics();
/// The p99 latencies: per-layer metrics measured in the untraced run.
const std::vector<MetricSpec>& TailMetrics();

/// True when `name` matches [A-Za-z0-9_.-]+ and starts with a letter or
/// digit.
bool ValidMetricName(const std::string& name);

/// Values keyed by metric name, each with a human note (sample counts,
/// bases of ratios) printed beside it.
class MetricSet {
 public:
  /// `name` must be in EndToEndMetrics() or PerLayerMetrics().
  void Set(const std::string& name, double value, std::string note = "");
  double Get(const std::string& name) const;
  /// Copies `name` (value and note) from `other` when it has it.
  void CopyFrom(const MetricSet& other, const std::string& name);

  /// Names from `specs` that are missing here (catalog ones allowed when
  /// `allow_catalog_absent`).
  std::vector<std::string> Missing(const std::vector<MetricSpec>& specs,
                                   bool allow_catalog_absent) const;

  /// One "name value unit  note" line per metric in `specs`, catalog
  /// order.
  void Print(std::ostream& out, const std::vector<MetricSpec>& specs) const;

  /// {"name": {"value": v, "unit": "u"}, ...} over `specs`, full precision.
  std::string ToJson(const std::vector<MetricSpec>& specs) const;

 private:
  struct Entry {
    double value;
    std::string note;
  };
  std::map<std::string, Entry> values_;
};

}  // namespace e2ebench

#endif  // E2EBENCH_REPORT_H_
