#include "attack/boundary_attack.h"

#include <algorithm>
#include <cmath>
#include <optional>

#include "data/scaler.h"
#include "util/error.h"

namespace pg::attack {

BoundaryAttack::BoundaryAttack(BoundaryAttackConfig config,
                               const ClassRadiusMap* clean_geometry)
    : config_(config), clean_geometry_(clean_geometry) {
  PG_CHECK(config_.placement_fraction >= 0.0 &&
               config_.placement_fraction <= 1.0,
           "placement_fraction must be in [0, 1]");
  PG_CHECK(config_.safety_margin >= 0.0 && config_.safety_margin < 1.0,
           "safety_margin must be in [0, 1)");
  PG_CHECK(config_.direction_noise >= 0.0, "direction_noise must be >= 0");
  for (double d : config_.depth_offsets) {
    PG_CHECK(d >= 0.0, "depth offsets must be >= 0");
  }
}

std::string BoundaryAttack::name() const {
  return "boundary(p=" + std::to_string(config_.placement_fraction) + ")";
}

namespace {

/// Place `n_points` flipped-direction points at the given effective clean
/// removal fraction, alternating classes.
data::Dataset place_points(const ClassRadiusMap& map, std::size_t n_points,
                           double effective_fraction, double safety_margin,
                           double direction_noise, util::Rng& rng) {
  const la::Vector c_pos = map.geometry(1).centroid;
  const la::Vector c_neg = map.geometry(-1).centroid;
  const la::Vector axis_pos_to_neg = la::subtract(c_neg, c_pos);
  PG_CHECK(la::norm(axis_pos_to_neg) > 0.0,
           "BoundaryAttack: class centroids coincide");

  data::Dataset poison;
  for (std::size_t k = 0; k < n_points; ++k) {
    // Alternate the poisoned class so both decision-boundary sides are
    // attacked symmetrically, as in the paper's experiment.
    const int label = (k % 2 == 0) ? 1 : -1;
    const la::Vector& own = (label == 1) ? c_pos : c_neg;
    la::Vector dir = (label == 1) ? axis_pos_to_neg
                                  : la::scaled(axis_pos_to_neg, -1.0);
    dir = la::normalized(dir);
    if (direction_noise > 0.0) {
      la::Vector noise(dir.size());
      for (double& v : noise) v = rng.normal();
      const double nn = la::norm(noise);
      if (nn > 0.0) {
        la::axpy(direction_noise / nn, noise, dir);
        dir = la::normalized(dir);
      }
    }
    const double radius = map.radius_for_removal(label, effective_fraction) *
                          (1.0 - safety_margin);
    la::Vector x = own;
    la::axpy(radius, dir, x);
    poison.append(x, label);
  }
  return poison;
}

/// Victim accuracy on the attacker's validation proxy (the clean data
/// itself) after training on the poisoned set -- the attacker's objective
/// O_a, lower is better for him.
double probe_damage(const data::Dataset& clean, const data::Dataset& poison,
                    const ml::SvmConfig& svm, util::Rng& rng) {
  const data::Dataset train = data::concatenate(clean, poison);
  data::StandardScaler scaler;
  scaler.fit(train);
  const ml::SvmTrainer trainer(svm);
  const ml::LinearModel model = trainer.train(scaler.transform(train), rng);
  return model.accuracy(scaler.transform(clean));
}

}  // namespace

data::Dataset BoundaryAttack::generate(const data::Dataset& clean,
                                       std::size_t n_points,
                                       util::Rng& rng) const {
  PG_CHECK(!clean.empty(), "BoundaryAttack: empty clean dataset");
  if (n_points == 0) return data::Dataset{};
  std::optional<ClassRadiusMap> own_map;
  if (clean_geometry_ == nullptr) {
    own_map.emplace(clean);
  } else {
    PG_CHECK(clean_geometry_->is_median_geometry_of(clean),
             "BoundaryAttack: clean geometry was built from another dataset");
  }
  const ClassRadiusMap& map = own_map ? *own_map : *clean_geometry_;

  // Displacement correction: poison raises each class size by phi, pulling
  // the defender's removal quantile inward by the same factor. The result
  // is capped at max_effective_fraction (see the config comment).
  auto effective = [&](double fraction) {
    double f = fraction;
    if (config_.account_for_displacement) {
      const double phi = 0.5 * static_cast<double>(n_points) /
                         static_cast<double>(std::min(clean.count_label(1),
                                                      clean.count_label(-1)));
      f = fraction * (1.0 + phi);
    }
    return std::min(f, config_.max_effective_fraction);
  };

  if (config_.depth_offsets.empty()) {
    return place_points(map, n_points, effective(config_.placement_fraction),
                        config_.safety_margin, config_.direction_noise, rng);
  }

  // Depth search: all candidates survive (deeper than the filter); keep
  // the one whose probe training hurts the victim most.
  double best_accuracy = 2.0;
  data::Dataset best_poison;
  std::size_t salt = 0;
  for (double offset : config_.depth_offsets) {
    const double fraction =
        std::min(1.0, config_.placement_fraction + offset);
    util::Rng place_rng = rng.fork(1000 + salt);
    data::Dataset candidate =
        place_points(map, n_points, effective(fraction),
                     config_.safety_margin, config_.direction_noise,
                     place_rng);
    util::Rng probe_rng = rng.fork(2000 + salt);
    const double acc =
        probe_damage(clean, candidate, config_.probe_svm, probe_rng);
    if (acc < best_accuracy) {
      best_accuracy = acc;
      best_poison = std::move(candidate);
    }
    ++salt;
    if (fraction >= 1.0) break;
  }
  return best_poison;
}

}  // namespace pg::attack
