#include "ml/linear_model.h"

#include <cmath>

#include "util/error.h"

namespace pg::ml {

LinearModel::LinearModel(la::Vector w, double b) : w_(std::move(w)), b_(b) {
  PG_CHECK(!w_.empty(), "LinearModel requires a non-empty weight vector");
}

double LinearModel::decision_function(std::span<const double> x) const {
  return la::dot(w_, x) + b_;
}

double LinearModel::decision_function(const la::Vector& x) const {
  return decision_function(std::span<const double>(x));
}

int LinearModel::predict(std::span<const double> x) const {
  return decision_function(x) >= 0.0 ? 1 : -1;
}

int LinearModel::predict(const la::Vector& x) const {
  return predict(std::span<const double>(x));
}

double LinearModel::accuracy(const data::Dataset& d) const {
  PG_CHECK(!d.empty(), "accuracy on empty dataset");
  std::size_t correct = 0;
  for (std::size_t i = 0; i < d.size(); ++i) {
    if (predict(d.features().row(i)) == d.labels()[i]) ++correct;
  }
  return static_cast<double>(correct) / static_cast<double>(d.size());
}

double LinearModel::margin(const la::Vector& x, int label) const {
  PG_CHECK(label == 1 || label == -1, "label must be -1 or +1");
  return static_cast<double>(label) * decision_function(x);
}

double LinearModel::distance_to_boundary(const la::Vector& x) const {
  const double wn = la::norm(w_);
  PG_CHECK(wn > 0.0, "distance_to_boundary requires non-zero weights");
  return std::abs(decision_function(x)) / wn;
}

}  // namespace pg::ml
