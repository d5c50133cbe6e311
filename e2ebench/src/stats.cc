#include "stats.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace e2ebench {
namespace {

// Rank of the nearest-rank percentile (1-based), clamped to [1, n]. The
// small tolerance keeps p/100 * n from rounding up past an exact integer
// (0.99 * 1000 is 990.0000000000001 in binary floating point).
size_t NearestRank(size_t n, double percentile) {
  const double exact = percentile / 100.0 * static_cast<double>(n);
  const size_t rank = static_cast<size_t>(std::ceil(exact - 1e-9));
  return std::clamp<size_t>(rank, 1, n);
}

}  // namespace

size_t SamplesBeyond(size_t n, double percentile) {
  if (n == 0) return 0;
  return n - NearestRank(n, percentile);
}

PercentileValue Percentile(const std::vector<double>& sorted,
                           double percentile) {
  PercentileValue out;
  out.percentile = percentile;
  out.samples = sorted.size();
  if (sorted.empty()) return out;
  out.value = sorted[NearestRank(sorted.size(), percentile) - 1];
  out.beyond = SamplesBeyond(sorted.size(), percentile);
  out.supported = out.beyond >= kMinBeyond;
  return out;
}

double HighestSupportedPercentile(size_t n) {
  double best = 0.0;
  for (double p : {50.0, 90.0, 99.0, 99.9, 99.99, 99.999, 99.9999}) {
    if (SamplesBeyond(n, p) >= kMinBeyond) best = p;
  }
  return best;
}

std::string PercentileLabel(double percentile) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "p%g", percentile);
  return buf;
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                : (values[mid - 1] + values[mid]) / 2.0;
}

}  // namespace e2ebench
