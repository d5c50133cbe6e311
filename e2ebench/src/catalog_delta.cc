#include "catalog_delta.h"

#include <algorithm>

#include "obs/metrics.h"

namespace e2ebench {

namespace obs = robust_sampling::obs;

std::string SeriesKey::FullName() const {
  if (label_key.empty()) return name;
  return name + "{" + label_key + "=\"" + label_value + "\"}";
}

CatalogSnapshot CatalogSnapshot::Take(const std::vector<SeriesKey>& keys) {
  CatalogSnapshot snapshot;
  const std::vector<std::string> names = obs::MetricRegistry::Global().Names();
  for (const SeriesKey& key : keys) {
    const std::string full = key.FullName();
    if (!std::binary_search(names.begin(), names.end(), full)) continue;
    const obs::MetricLabel label{key.label_key, key.label_value};
    SeriesValue value;
    if (key.type == SeriesKey::Type::kCounter) {
      value.count =
          obs::MetricRegistry::Global().GetCounter(key.name, "", label)
              ->Value();
    } else {
      const auto agg =
          obs::MetricRegistry::Global().GetHistogram(key.name, "", label)
              ->Read();
      value.count = agg.count;
      value.sum = agg.sum;
    }
    snapshot.values_[full] = value;
  }
  return snapshot;
}

std::optional<SeriesValue> CatalogSnapshot::Get(const SeriesKey& key) const {
  const auto it = values_.find(key.FullName());
  if (it == values_.end()) return std::nullopt;
  return it->second;
}

std::optional<SeriesValue> Delta(const CatalogSnapshot& before,
                                 const CatalogSnapshot& after,
                                 const SeriesKey& key) {
  const std::optional<SeriesValue> end = after.Get(key);
  if (!end) return std::nullopt;
  const SeriesValue start = before.Get(key).value_or(SeriesValue{});
  return SeriesValue{end->count - start.count, end->sum - start.sum};
}

void Accumulate(std::optional<SeriesValue>* total,
                const std::optional<SeriesValue>& delta) {
  if (!delta) return;
  SeriesValue sum = total->value_or(SeriesValue{});
  sum.count += delta->count;
  sum.sum += delta->sum;
  *total = sum;
}

}  // namespace e2ebench
