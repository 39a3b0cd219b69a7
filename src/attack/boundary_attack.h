// The paper's "optimal attack": flipped-label points placed at a chosen
// distance percentile from their (labeled) class centroid.
//
// A poison point labeled y is positioned inside class y's filter sphere --
// at the radius corresponding to `placement_fraction` -- but *directed*
// toward the opposite class centroid, so it drags the decision boundary as
// far as a point at that radius can. Placing the points at the boundary of
// the defender's filter sphere (placement_fraction == the filter's removal
// fraction, minus a safety margin) is exactly the optimal pure strategy the
// paper analyzes in section 3.1.
#pragma once

#include <string>
#include <vector>

#include "attack/attack.h"
#include "attack/radius_map.h"
#include "ml/svm.h"

namespace pg::attack {

struct BoundaryAttackConfig {
  /// Place points at the radius whose clean removal-fraction equals this
  /// value, i.e. a filter strictly weaker than `placement_fraction` keeps
  /// them. 0 = at the farthest clean point ("B"), 0.2 = at the radius that
  /// a 20%-removal filter would use. In [0, 1].
  double placement_fraction = 0.0;
  /// Shrink the placement radius by this relative margin so the points sit
  /// strictly inside the sphere (survive ties). In [0, 1).
  double safety_margin = 1e-3;
  /// Angular jitter: the placement direction is the inter-centroid axis
  /// plus Gaussian noise of this relative magnitude (0 = exactly on-axis).
  double direction_noise = 0.25;
  /// The defender's filter quantile is computed on the POISONED data, so
  /// injecting a phi-fraction of extra points shifts the cutoff inward: a
  /// filter removing fraction p of the poisoned class reaches down to the
  /// clean quantile 1 - p*(1+phi). The paper's full-knowledge attacker
  /// accounts for this and places at that deeper radius; disable only for
  /// geometric unit tests that check raw clean-quantile placement.
  bool account_for_displacement = true;
  /// The paper's E(p) is "the MAXIMUM effect of a poisoning point placed
  /// in that percentile": the optimal attacker facing filter p may place
  /// anywhere at or deeper than p. Raw damage is not monotone in radius
  /// on realistic data (extreme-tail points are partially self-defeating
  /// for a margin learner), so the attacker probes placement_fraction +
  /// each depth offset with a cheap victim training and keeps the most
  /// damaging depth. Empty = no search (place exactly at the boundary).
  std::vector<double> depth_offsets{0.0, 0.05, 0.10, 0.15};
  /// Victim-probe trainer for the depth search (cheap on purpose).
  ml::SvmConfig probe_svm{.epochs = 25, .lambda = 1e-4, .average = true};
  /// Hard cap on the effective (displacement-corrected) placement depth.
  /// Placements deeper than this sit inside the class bulk and act as
  /// label-flip attacks -- a different threat model that the distance-
  /// filter game does not cover (see DESIGN.md section 4); the paper's
  /// radius-constrained attacker stays outside that regime.
  double max_effective_fraction = 0.5;
};

class BoundaryAttack final : public PoisoningAttack {
 public:
  /// `clean_geometry`, when given, is ClassRadiusMap(clean) built once by
  /// the caller (it must outlive the attack); generate() then uses it
  /// instead of building its own, and throws if it was built from any
  /// dataset other than the `clean` it is handed.
  explicit BoundaryAttack(BoundaryAttackConfig config,
                          const ClassRadiusMap* clean_geometry = nullptr);

  [[nodiscard]] data::Dataset generate(const data::Dataset& clean,
                                       std::size_t n_points,
                                       util::Rng& rng) const override;

  [[nodiscard]] std::string name() const override;

  [[nodiscard]] const BoundaryAttackConfig& config() const noexcept {
    return config_;
  }

 private:
  BoundaryAttackConfig config_;
  const ClassRadiusMap* clean_geometry_;
};

}  // namespace pg::attack
