#ifndef E2EBENCH_STATS_H_
#define E2EBENCH_STATS_H_

// Order statistics for latency samples. Percentiles use the nearest-rank
// rule: the p-th percentile of n samples is the ceil(p/100 * n)-th smallest,
// and the samples beyond it are the n - ceil(p/100 * n) larger ones. A
// percentile is reported only when at least kMinBeyond samples lie beyond
// it; otherwise it is not supported by the run.

#include <cstddef>
#include <string>
#include <vector>

namespace e2ebench {

inline constexpr size_t kMinBeyond = 10;

struct PercentileValue {
  double percentile = 0.0;  // e.g. 99.0
  double value = 0.0;
  size_t samples = 0;
  size_t beyond = 0;
  bool supported = false;  // beyond >= kMinBeyond
};

/// Samples strictly past the nearest-rank p-th percentile of n samples.
size_t SamplesBeyond(size_t n, double percentile);

/// Nearest-rank percentile of `sorted` (ascending).
PercentileValue Percentile(const std::vector<double>& sorted,
                           double percentile);

/// The highest of 50, 90, 99, 99.9, 99.99, ... that leaves at least
/// kMinBeyond samples beyond it; 0 when n is too small even for the median.
double HighestSupportedPercentile(size_t n);

/// "p99.9" style label.
std::string PercentileLabel(double percentile);

/// Median of the values (mean of the middle two for even counts); 0 when
/// empty.
double Median(std::vector<double> values);

}  // namespace e2ebench

#endif  // E2EBENCH_STATS_H_
