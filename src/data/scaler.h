// Feature standardization.
//
// Spambase features are heavy-tailed word frequencies; the SVM substrate
// standardizes them (zero mean, unit variance, fitted on training data
// only) so the distance-based filter geometry is meaningful in every
// direction.
#pragma once

#include "data/dataset.h"
#include "la/vector_ops.h"

namespace pg::data {

/// z = (x - mean) / std, with constant features mapped to 0.
class StandardScaler {
 public:
  StandardScaler() = default;

  /// Fit on a dataset (typically the training split). Requires size >= 2.
  void fit(const Dataset& train);

  [[nodiscard]] bool fitted() const noexcept { return !mean_.empty(); }

  /// Transform one feature vector. Requires fitted() and matching dim.
  [[nodiscard]] la::Vector transform(const la::Vector& x) const;

  /// Transform every instance of a dataset (labels preserved).
  [[nodiscard]] Dataset transform(const Dataset& d) const;

  [[nodiscard]] const la::Vector& mean() const noexcept { return mean_; }
  [[nodiscard]] const la::Vector& scale() const noexcept { return scale_; }

 private:
  la::Vector mean_;
  la::Vector scale_;  // per-feature std, floored at epsilon
};

}  // namespace pg::data
