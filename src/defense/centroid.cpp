#include "defense/centroid.h"

#include <algorithm>
#include <cmath>

#include "util/error.h"

namespace pg::defense {

const char* centroid_method_name(CentroidMethod m) noexcept {
  switch (m) {
    case CentroidMethod::kMean:
      return "mean";
    case CentroidMethod::kCoordinateMedian:
      return "median";
    case CentroidMethod::kTrimmedMean:
      return "trimmed-mean";
  }
  return "?";
}

la::Vector compute_centroid(const data::Dataset& d, int label,
                            const CentroidConfig& config) {
  const auto idx = d.indices_of_label(label);
  PG_CHECK(!idx.empty(), "compute_centroid: no instances with given label");

  if (config.method == CentroidMethod::kMean) {
    return d.class_mean(label);
  }

  PG_CHECK(config.trim_fraction >= 0.0 && config.trim_fraction < 0.5,
           "trim_fraction must be in [0, 0.5)");

  if (config.method == CentroidMethod::kCoordinateMedian) {
    return d.class_coordinate_median(label);
  }

  // Trimmed mean: sums each column in sorted order, so it keeps its sort.
  const std::size_t dim = d.dim();
  la::Vector out(dim, 0.0);
  std::vector<double> column(idx.size());
  const auto trim = static_cast<std::size_t>(
      std::floor(config.trim_fraction * static_cast<double>(column.size())));
  const std::size_t lo = trim;
  const std::size_t hi = column.size() - trim;
  PG_ASSERT(hi > lo, "trimmed mean removed all mass");
  for (std::size_t c = 0; c < dim; ++c) {
    for (std::size_t k = 0; k < idx.size(); ++k) {
      column[k] = d.features()(idx[k], c);
    }
    std::sort(column.begin(), column.end());
    double s = 0.0;
    for (std::size_t k = lo; k < hi; ++k) s += column[k];
    out[c] = s / static_cast<double>(hi - lo);
  }
  return out;
}

}  // namespace pg::defense
