// Labeled dataset container for binary classification.
//
// Labels are +1 (spam / positive class) and -1 (ham / negative class),
// matching the hinge-loss convention of the SVM substrate. The container is
// a value type: attacks return new datasets of poison points, defenses
// return filtered copies, and the original is never mutated in place.
#pragma once

#include <cstddef>
#include <utility>
#include <vector>

#include "la/matrix.h"
#include "la/vector_ops.h"
#include "util/rng.h"

namespace pg::data {

class Dataset {
 public:
  Dataset() = default;

  /// Requires features.rows() == labels.size() and labels in {-1, +1}.
  Dataset(la::Matrix features, std::vector<int> labels);

  [[nodiscard]] std::size_t size() const noexcept { return labels_.size(); }
  [[nodiscard]] std::size_t dim() const noexcept { return features_.cols(); }
  [[nodiscard]] bool empty() const noexcept { return labels_.empty(); }

  [[nodiscard]] const la::Matrix& features() const noexcept {
    return features_;
  }
  [[nodiscard]] const std::vector<int>& labels() const noexcept {
    return labels_;
  }

  /// Feature vector of instance i (bounds-checked).
  [[nodiscard]] la::Vector instance(std::size_t i) const;

  /// Label of instance i (bounds-checked); -1 or +1.
  [[nodiscard]] int label(std::size_t i) const;

  /// Append one labeled instance. Requires x.size() == dim() (or empty set)
  /// and label in {-1, +1}.
  void append(const la::Vector& x, int label);

  /// Indices of all instances with the given label.
  [[nodiscard]] std::vector<std::size_t> indices_of_label(int label) const;

  /// Number of instances with the given label.
  [[nodiscard]] std::size_t count_label(int label) const;

  /// Fraction of +1 instances.
  [[nodiscard]] double positive_fraction() const;

  /// Subset by instance indices.
  [[nodiscard]] Dataset select(const std::vector<std::size_t>& idx) const;

  /// Mean feature vector of instances with the given label.
  /// Requires at least one such instance.
  [[nodiscard]] la::Vector class_mean(int label) const;

  /// Coordinate-wise median of instances with the given label -- the
  /// robust centroid the distance-based defense uses. An even count takes
  /// the mean of the two middle values. Requires at least one such
  /// instance.
  [[nodiscard]] la::Vector class_coordinate_median(int label) const;

  /// Euclidean distance of each instance with the given label to the given
  /// center.
  [[nodiscard]] std::vector<double> distances_to(const la::Vector& center,
                                                 int label) const;

  /// Euclidean distance of every instance to the given center.
  [[nodiscard]] std::vector<double> distances_to(const la::Vector& center) const;

 private:
  la::Matrix features_;
  std::vector<int> labels_;
};

/// Random train/test split. train_fraction in (0, 1); both parts non-empty
/// for any non-trivial input. The split is a permutation split: every
/// instance lands in exactly one side.
struct TrainTestSplit {
  Dataset train;
  Dataset test;
};

[[nodiscard]] TrainTestSplit split_train_test(const Dataset& all,
                                              double train_fraction,
                                              util::Rng& rng);

/// Rows split_train_test puts on the train side of an n-row dataset:
/// clamp(floor(train_fraction * n), 1, n - 1). Known before any data
/// exists. Throws on train_fraction outside (0, 1) or n < 2.
[[nodiscard]] std::size_t train_split_size(std::size_t n,
                                           double train_fraction);

/// Concatenate two datasets (e.g. clean training data + poison points).
[[nodiscard]] Dataset concatenate(const Dataset& a, const Dataset& b);

}  // namespace pg::data
