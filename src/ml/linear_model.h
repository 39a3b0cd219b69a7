// Linear binary classifier: sign(w . x + b).
//
// The hinge-loss SVM (the paper's victim model) produces this model type;
// every payoff in the game is an accuracy of a LinearModel on held-out
// data.
#pragma once

#include <span>

#include "data/dataset.h"
#include "la/vector_ops.h"

namespace pg::ml {

class LinearModel {
 public:
  LinearModel() = default;

  /// Requires a non-empty weight vector.
  LinearModel(la::Vector w, double b);

  [[nodiscard]] std::size_t dim() const noexcept { return w_.size(); }
  [[nodiscard]] const la::Vector& weights() const noexcept { return w_; }
  [[nodiscard]] double bias() const noexcept { return b_; }

  /// Signed score w . x + b. Requires matching dimension. The Vector
  /// overloads forward to the span ones (a Dataset row needs no copy).
  [[nodiscard]] double decision_function(std::span<const double> x) const;
  [[nodiscard]] double decision_function(const la::Vector& x) const;

  /// Predicted label: +1 if the score is >= 0, else -1.
  [[nodiscard]] int predict(std::span<const double> x) const;
  [[nodiscard]] int predict(const la::Vector& x) const;

  /// Fraction of correctly classified instances. Requires non-empty data.
  [[nodiscard]] double accuracy(const data::Dataset& d) const;

  /// Functional margin y * (w . x + b) of one labeled point.
  [[nodiscard]] double margin(const la::Vector& x, int label) const;

  /// Geometric distance of x to the decision hyperplane.
  /// Requires a non-zero weight vector.
  [[nodiscard]] double distance_to_boundary(const la::Vector& x) const;

 private:
  la::Vector w_;
  double b_ = 0.0;
};

}  // namespace pg::ml
