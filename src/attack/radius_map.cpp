#include "attack/radius_map.h"

#include "util/error.h"

namespace pg::attack {

ClassRadiusMap::ClassRadiusMap(const data::Dataset& clean, bool use_median) {
  PG_CHECK(!clean.empty(), "ClassRadiusMap: empty dataset");
  for (int label : {1, -1}) {
    PG_CHECK(clean.count_label(label) > 0,
             "ClassRadiusMap: dataset must contain both classes");
    ClassGeometry g;
    g.label = label;
    g.centroid = use_median ? clean.class_coordinate_median(label)
                            : clean.class_mean(label);
    g.distances = util::EmpiricalCdf(clean.distances_to(g.centroid, label));
    classes_.push_back(std::move(g));
  }
  if (use_median) median_source_ = &clean;
}

const ClassGeometry& ClassRadiusMap::geometry(int label) const {
  for (const auto& g : classes_) {
    if (g.label == label) return g;
  }
  PG_CHECK(false, "ClassRadiusMap: unknown label");
  throw std::logic_error("unreachable");
}

double ClassRadiusMap::radius_for_removal(int label,
                                          double removal_fraction) const {
  PG_CHECK(removal_fraction >= 0.0 && removal_fraction <= 1.0,
           "removal_fraction must be in [0, 1]");
  const auto& g = geometry(label);
  // Removing fraction p keeps the (1-p) closest points.
  return g.distances.inverse(1.0 - removal_fraction);
}

}  // namespace pg::attack
