// Mixed-strategy defense: a probability distribution over filter strengths.
//
// This is the paper's central object -- the defender's equilibrium strategy
// M_d. Each game the defender samples a removal fraction from the
// distribution and applies the DistanceFilter of that strength, so an
// attacker who knows the distribution (but not the draw) can no longer park
// poison just inside a fixed radius. Algorithm 1 (core/equilibrium.h)
// produces instances of this type, and sim::evaluate_mixed_defense
// (sim/mixed_eval.h) measures one against an attacker at its support
// boundaries.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "util/rng.h"

namespace pg::defense {

class MixedDefenseStrategy {
 public:
  /// Requires equal sizes, non-empty support, removal fractions in [0, 1)
  /// sorted strictly increasing, and probabilities >= 0 summing to 1
  /// (within 1e-9).
  MixedDefenseStrategy(std::vector<double> removal_fractions,
                       std::vector<double> probabilities);

  /// Degenerate (pure) strategy at a single filter strength.
  [[nodiscard]] static MixedDefenseStrategy pure(double removal_fraction);

  [[nodiscard]] std::size_t support_size() const noexcept {
    return fractions_.size();
  }
  [[nodiscard]] const std::vector<double>& removal_fractions() const noexcept {
    return fractions_;
  }
  [[nodiscard]] const std::vector<double>& probabilities() const noexcept {
    return probabilities_;
  }

  /// Sample one filter strength.
  [[nodiscard]] double sample(util::Rng& rng) const;

  /// Expected removal fraction under the distribution.
  [[nodiscard]] double expected_removal() const;

  /// Survival probability of a poison point placed at `placement`:
  /// P(sampled fraction <= placement). This is the paper's "cdf counting
  /// from B towards the centroid" evaluated on the support.
  [[nodiscard]] double survival_probability(double placement) const;

  /// True iff the strategy is mixed in the paper's sense (condition 1 of
  /// section 4.2): at least two support points with positive probability.
  [[nodiscard]] bool is_properly_mixed(double tol = 1e-12) const;

  [[nodiscard]] std::string describe(int precision = 1) const;

 private:
  std::vector<double> fractions_;     // strictly increasing
  std::vector<double> probabilities_; // aligned with fractions_
};

}  // namespace pg::defense
