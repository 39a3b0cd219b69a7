#include "defense/mixed_defense.h"

#include <cmath>
#include <sstream>

#include "util/error.h"
#include "util/table.h"

namespace pg::defense {

MixedDefenseStrategy::MixedDefenseStrategy(
    std::vector<double> removal_fractions, std::vector<double> probabilities)
    : fractions_(std::move(removal_fractions)),
      probabilities_(std::move(probabilities)) {
  PG_CHECK(fractions_.size() == probabilities_.size(),
           "MixedDefenseStrategy: size mismatch");
  PG_CHECK(!fractions_.empty(), "MixedDefenseStrategy: empty support");
  double total = 0.0;
  for (std::size_t i = 0; i < fractions_.size(); ++i) {
    PG_CHECK(fractions_[i] >= 0.0 && fractions_[i] < 1.0,
             "removal fractions must be in [0, 1)");
    if (i > 0) {
      PG_CHECK(fractions_[i] > fractions_[i - 1],
               "removal fractions must be strictly increasing");
    }
    PG_CHECK(probabilities_[i] >= 0.0, "probabilities must be >= 0");
    total += probabilities_[i];
  }
  PG_CHECK(std::abs(total - 1.0) <= 1e-9, "probabilities must sum to 1");
}

MixedDefenseStrategy MixedDefenseStrategy::pure(double removal_fraction) {
  return MixedDefenseStrategy({removal_fraction}, {1.0});
}

double MixedDefenseStrategy::sample(util::Rng& rng) const {
  return fractions_[rng.categorical(probabilities_)];
}

double MixedDefenseStrategy::expected_removal() const {
  double s = 0.0;
  for (std::size_t i = 0; i < fractions_.size(); ++i) {
    s += fractions_[i] * probabilities_[i];
  }
  return s;
}

double MixedDefenseStrategy::survival_probability(double placement) const {
  // A poison point placed at removal-fraction `placement` survives every
  // sampled filter weaker than or equal to it (see attack/radius_map.h).
  double p = 0.0;
  for (std::size_t i = 0; i < fractions_.size(); ++i) {
    if (fractions_[i] <= placement + 1e-12) p += probabilities_[i];
  }
  return p;
}

bool MixedDefenseStrategy::is_properly_mixed(double tol) const {
  std::size_t positive = 0;
  for (double p : probabilities_) {
    if (p > tol) ++positive;
  }
  return positive >= 2;
}

std::string MixedDefenseStrategy::describe(int precision) const {
  std::ostringstream os;
  os << "{";
  for (std::size_t i = 0; i < fractions_.size(); ++i) {
    if (i) os << ", ";
    os << util::format_percent(fractions_[i], precision) << "@"
       << util::format_percent(probabilities_[i], precision);
  }
  os << "}";
  return os.str();
}

}  // namespace pg::defense
