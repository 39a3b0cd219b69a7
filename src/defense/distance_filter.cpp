#include "defense/distance_filter.h"

#include <algorithm>

#include "attack/radius_map.h"
#include "la/vector_ops.h"
#include "util/error.h"
#include "util/stats.h"

namespace pg::defense {

DistanceFilter::DistanceFilter(DistanceFilterConfig config,
                               const attack::ClassRadiusMap* clean_geometry)
    : config_(config), clean_geometry_(clean_geometry) {
  PG_CHECK(config_.removal_fraction >= 0.0 && config_.removal_fraction < 1.0,
           "removal_fraction must be in [0, 1)");
}

std::string DistanceFilter::name() const {
  return "distance(p=" + std::to_string(config_.removal_fraction) + "," +
         centroid_method_name(config_.centroid.method) + ")";
}

FilterResult DistanceFilter::apply(const data::Dataset& train,
                                   util::Rng& /*rng*/) const {
  PG_CHECK(!train.empty(), "DistanceFilter: empty dataset");
  FilterResult result;
  if (config_.removal_fraction == 0.0) {
    result.kept = train;
    return result;
  }

  const bool clean_centroids =
      clean_geometry_ != nullptr &&
      config_.centroid.method == CentroidMethod::kCoordinateMedian &&
      clean_geometry_->is_median_geometry_of(train);
  std::vector<bool> keep(train.size(), true);
  for (int label : {1, -1}) {
    const auto idx = train.indices_of_label(label);
    if (idx.empty()) continue;
    const la::Vector centroid =
        clean_centroids ? clean_geometry_->geometry(label).centroid
                        : compute_centroid(train, label, config_.centroid);
    std::vector<double> dist(idx.size());
    for (std::size_t k = 0; k < idx.size(); ++k) {
      dist[k] = la::distance(train.features().row(idx[k]), centroid);
    }
    const double radius =
        util::quantile(dist, 1.0 - config_.removal_fraction);
    for (std::size_t k = 0; k < idx.size(); ++k) {
      if (dist[k] > radius) keep[idx[k]] = false;
    }
  }

  std::vector<std::size_t> kept_idx;
  for (std::size_t i = 0; i < train.size(); ++i) {
    if (keep[i]) {
      kept_idx.push_back(i);
    } else {
      result.removed_indices.push_back(i);
    }
  }
  // Never remove everything: a filter that empties a dataset is useless
  // and would crash the trainer downstream.
  if (kept_idx.empty()) {
    result.kept = train;
    result.removed_indices.clear();
    return result;
  }
  result.kept = train.select(kept_idx);
  return result;
}

}  // namespace pg::defense
