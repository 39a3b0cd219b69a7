// The paper's defense: per-class hypersphere (distance-to-centroid) filter.
//
// For each class the defender estimates a robust centroid from the
// *observed* (possibly poisoned) data, then removes the `removal_fraction`
// share of that class's points that lie farthest from it. Parameterizing by
// removal fraction rather than raw radius matches Fig. 1's x-axis and makes
// strategies comparable across classes and datasets.
#pragma once

#include <string>

#include "defense/centroid.h"
#include "defense/filter.h"

namespace pg::attack {
class ClassRadiusMap;
}  // namespace pg::attack

namespace pg::defense {

struct DistanceFilterConfig {
  /// Fraction of each class removed, in [0, 1). 0 disables filtering.
  double removal_fraction = 0.1;
  CentroidConfig centroid{};
};

class DistanceFilter final : public Filter {
 public:
  /// `clean_geometry`, when given, is the coordinate-median geometry of a
  /// clean split (it must outlive the filter). apply() takes its class
  /// centroids instead of recomputing them when it filters that very
  /// dataset object with a kCoordinateMedian centroid; any other dataset
  /// (a poisoned copy, say) gets its own centroids. The kept rows are the
  /// same either way.
  explicit DistanceFilter(DistanceFilterConfig config,
                          const attack::ClassRadiusMap* clean_geometry =
                              nullptr);

  [[nodiscard]] FilterResult apply(const data::Dataset& train,
                                   util::Rng& rng) const override;

  [[nodiscard]] std::string name() const override;

  [[nodiscard]] const DistanceFilterConfig& config() const noexcept {
    return config_;
  }

 private:
  DistanceFilterConfig config_;
  const attack::ClassRadiusMap* clean_geometry_;
};

}  // namespace pg::defense
