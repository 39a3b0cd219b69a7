#include "data/dataset.h"

#include <algorithm>

#include "util/error.h"
#include "util/stats.h"

namespace pg::data {

Dataset::Dataset(la::Matrix features, std::vector<int> labels)
    : features_(std::move(features)), labels_(std::move(labels)) {
  PG_CHECK(features_.rows() == labels_.size(),
           "Dataset: feature/label count mismatch");
  for (int y : labels_) {
    PG_CHECK(y == 1 || y == -1, "Dataset: labels must be -1 or +1");
  }
}

la::Vector Dataset::instance(std::size_t i) const {
  PG_CHECK(i < size(), "Dataset::instance out of range");
  return features_.row_copy(i);
}

int Dataset::label(std::size_t i) const {
  PG_CHECK(i < size(), "Dataset::label out of range");
  return labels_[i];
}

void Dataset::append(const la::Vector& x, int label) {
  PG_CHECK(label == 1 || label == -1, "Dataset: labels must be -1 or +1");
  if (!empty()) {
    PG_CHECK(x.size() == dim(), "Dataset::append dimension mismatch");
  }
  features_.append_row(x);
  labels_.push_back(label);
}

std::vector<std::size_t> Dataset::indices_of_label(int label) const {
  std::vector<std::size_t> idx;
  for (std::size_t i = 0; i < labels_.size(); ++i) {
    if (labels_[i] == label) idx.push_back(i);
  }
  return idx;
}

std::size_t Dataset::count_label(int label) const {
  std::size_t n = 0;
  for (int y : labels_) {
    if (y == label) ++n;
  }
  return n;
}

double Dataset::positive_fraction() const {
  if (empty()) return 0.0;
  return static_cast<double>(count_label(1)) / static_cast<double>(size());
}

Dataset Dataset::select(const std::vector<std::size_t>& idx) const {
  la::Matrix f = features_.select_rows(idx);
  std::vector<int> y;
  y.reserve(idx.size());
  for (std::size_t i : idx) {
    PG_CHECK(i < size(), "Dataset::select index out of range");
    y.push_back(labels_[i]);
  }
  return Dataset(std::move(f), std::move(y));
}

la::Vector Dataset::class_mean(int label) const {
  const auto idx = indices_of_label(label);
  PG_CHECK(!idx.empty(), "class_mean: no instances with the given label");
  la::Vector mu(dim(), 0.0);
  for (std::size_t i : idx) {
    const auto row = features_.row(i);
    for (std::size_t c = 0; c < dim(); ++c) mu[c] += row[c];
  }
  la::scale(mu, 1.0 / static_cast<double>(idx.size()));
  return mu;
}

la::Vector Dataset::class_coordinate_median(int label) const {
  const auto idx = indices_of_label(label);
  PG_CHECK(!idx.empty(),
           "class_coordinate_median: no instances with the given label");
  la::Vector out(dim(), 0.0);
  for (std::size_t c = 0; c < dim(); ++c) {
    std::vector<double> column(idx.size());
    for (std::size_t k = 0; k < idx.size(); ++k) {
      column[k] = features_(idx[k], c);
    }
    // Selection, not a sort: the same middle elements, so the same bits.
    out[c] = util::median(std::move(column));
  }
  return out;
}

std::vector<double> Dataset::distances_to(const la::Vector& center,
                                          int label) const {
  PG_CHECK(center.size() == dim(), "distances_to: dimension mismatch");
  std::vector<double> out;
  for (std::size_t i = 0; i < size(); ++i) {
    if (labels_[i] != label) continue;
    out.push_back(la::distance(features_.row(i), center));
  }
  return out;
}

std::vector<double> Dataset::distances_to(const la::Vector& center) const {
  PG_CHECK(center.size() == dim(), "distances_to: dimension mismatch");
  std::vector<double> out(size());
  for (std::size_t i = 0; i < size(); ++i) {
    out[i] = la::distance(features_.row(i), center);
  }
  return out;
}

std::size_t train_split_size(std::size_t n, double train_fraction) {
  PG_CHECK(train_fraction > 0.0 && train_fraction < 1.0,
           "train_fraction must be in (0, 1)");
  PG_CHECK(n >= 2, "split requires at least two instances");
  const auto n_train =
      static_cast<std::size_t>(train_fraction * static_cast<double>(n));
  return std::max<std::size_t>(1, std::min(n_train, n - 1));
}

TrainTestSplit split_train_test(const Dataset& all, double train_fraction,
                                util::Rng& rng) {
  const std::size_t n_train = train_split_size(all.size(), train_fraction);
  std::vector<std::size_t> idx(all.size());
  for (std::size_t i = 0; i < idx.size(); ++i) idx[i] = i;
  rng.shuffle(idx);
  const std::vector<std::size_t> train_idx(idx.begin(),
                                           idx.begin() + static_cast<std::ptrdiff_t>(n_train));
  const std::vector<std::size_t> test_idx(idx.begin() + static_cast<std::ptrdiff_t>(n_train),
                                          idx.end());
  return {all.select(train_idx), all.select(test_idx)};
}

Dataset concatenate(const Dataset& a, const Dataset& b) {
  if (a.empty()) return b;
  if (b.empty()) return a;
  PG_CHECK(a.dim() == b.dim(), "concatenate: dimension mismatch");
  la::Matrix features(a.size() + b.size(), a.dim());
  std::vector<int> labels;
  labels.reserve(a.size() + b.size());
  // Rows are contiguous: each operand is one block copy.
  double* out = features.row(0).data();
  for (const Dataset* part : {&a, &b}) {
    const std::vector<double>& x = part->features().data();
    out = std::copy(x.begin(), x.end(), out);
    labels.insert(labels.end(), part->labels().begin(), part->labels().end());
  }
  return Dataset(std::move(features), std::move(labels));
}

}  // namespace pg::data
