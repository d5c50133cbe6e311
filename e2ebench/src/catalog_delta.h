#ifndef E2EBENCH_CATALOG_DELTA_H_
#define E2EBENCH_CATALOG_DELTA_H_

// Before/after reads of series the program already exports through
// obs::MetricRegistry. A series is read only when the registry lists it
// (MetricRegistry::Names()), so reading never registers anything. A series
// the registry does not list after the window, as in a -DRS_METRICS=OFF
// build, is absent: Delta returns nullopt and the metric is not reported,
// never reported as zero.

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace e2ebench {

struct SeriesKey {
  enum class Type { kCounter, kHistogram };
  Type type;
  std::string name;
  std::string label_key;    // "" when unlabeled
  std::string label_value;

  /// The registry's label-qualified name: name{key="value"}.
  std::string FullName() const;
};

/// Counter: count = value, sum = 0. Histogram: observation count and sum.
struct SeriesValue {
  uint64_t count = 0;
  uint64_t sum = 0;
};

class CatalogSnapshot {
 public:
  static CatalogSnapshot Take(const std::vector<SeriesKey>& keys);

  /// nullopt when the series was not registered at Take time.
  std::optional<SeriesValue> Get(const SeriesKey& key) const;

 private:
  std::map<std::string, SeriesValue> values_;
};

/// after - before. Absent when absent in `after`; a series first
/// registered inside the window counts from zero.
std::optional<SeriesValue> Delta(const CatalogSnapshot& before,
                                 const CatalogSnapshot& after,
                                 const SeriesKey& key);

/// Adds `delta` into `total`; an absent delta leaves `total` as it is.
void Accumulate(std::optional<SeriesValue>* total,
                const std::optional<SeriesValue>& delta);

}  // namespace e2ebench

#endif  // E2EBENCH_CATALOG_DELTA_H_
