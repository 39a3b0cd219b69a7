// Radius <-> percentile transforms.
//
// The paper's game is stated in raw radii, but both Fig. 1's x-axis and
// Algorithm 1's inputs are *fractions of data removed by the filter*.
// ClassRadiusMap anchors the transform: for each class it holds the
// empirical distribution of distances from clean training points to their
// class centroid, so
//   radius_for_removal(p)  = the (1-p)-quantile of distances
//                            (a filter of strength p removes everything
//                             beyond this radius), and
//   removal_for_radius(r)  = the fraction of clean points beyond r.
// The attacker uses the same map to place points "just inside" a filter of
// strength p, which is the paper's optimal pure attack.
#pragma once

#include <cstddef>
#include <vector>

#include "data/dataset.h"
#include "la/vector_ops.h"
#include "util/stats.h"

namespace pg::attack {

/// Distance geometry of one class.
struct ClassGeometry {
  int label = 0;
  la::Vector centroid;
  util::EmpiricalCdf distances;  // clean distance-to-centroid sample
};

class ClassRadiusMap {
 public:
  ClassRadiusMap() = default;

  /// Build from a clean dataset; both classes must be present.
  /// The centroid defaults to the coordinate median, matching the robust
  /// centroid of the defender's DistanceFilter: attacker and defender must
  /// agree on the geometry or the "just inside the boundary" placement is
  /// meaningless. Pass use_median = false for the mean-centroid geometry.
  explicit ClassRadiusMap(const data::Dataset& clean, bool use_median = true);

  [[nodiscard]] bool empty() const noexcept { return classes_.empty(); }

  /// True when this is the coordinate-median map built from `d` itself:
  /// the same object, not an equal copy.
  [[nodiscard]] bool is_median_geometry_of(
      const data::Dataset& d) const noexcept {
    return median_source_ == &d;
  }

  /// Geometry for the given label. Requires the label to be present.
  [[nodiscard]] const ClassGeometry& geometry(int label) const;

  /// Filter radius that removes a `removal_fraction` share of the class's
  /// clean points. removal_fraction in [0, 1].
  [[nodiscard]] double radius_for_removal(int label,
                                          double removal_fraction) const;

  /// Fraction of the class's clean points farther than `radius`.
  [[nodiscard]] double removal_for_radius(int label, double radius) const;

  /// Largest clean distance in the class ("B", the boundary of the game).
  [[nodiscard]] double boundary_radius(int label) const;

 private:
  std::vector<ClassGeometry> classes_;
  const data::Dataset* median_source_ = nullptr;  // compared, never read
};

}  // namespace pg::attack
