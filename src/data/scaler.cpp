#include "data/scaler.h"

#include <cmath>

#include "util/error.h"

namespace pg::data {

namespace {
constexpr double kMinScale = 1e-12;
}

void StandardScaler::fit(const Dataset& train) {
  PG_CHECK(train.size() >= 2, "StandardScaler::fit needs at least 2 samples");
  const auto& X = train.features();
  mean_ = X.column_means();
  scale_.assign(train.dim(), 0.0);
  for (std::size_t r = 0; r < X.rows(); ++r) {
    const auto row = X.row(r);
    for (std::size_t c = 0; c < X.cols(); ++c) {
      const double d = row[c] - mean_[c];
      scale_[c] += d * d;
    }
  }
  for (double& s : scale_) {
    s = std::sqrt(s / static_cast<double>(X.rows() - 1));
    if (s < kMinScale) s = 1.0;  // constant feature: leave centered at 0
  }
}

la::Vector StandardScaler::transform(const la::Vector& x) const {
  PG_CHECK(fitted(), "StandardScaler not fitted");
  PG_CHECK(x.size() == mean_.size(), "StandardScaler: dimension mismatch");
  la::Vector z(x.size());
  for (std::size_t i = 0; i < x.size(); ++i) {
    z[i] = (x[i] - mean_[i]) / scale_[i];
  }
  return z;
}

Dataset StandardScaler::transform(const Dataset& d) const {
  if (d.empty()) return Dataset{};
  PG_CHECK(fitted(), "StandardScaler not fitted");
  PG_CHECK(d.dim() == mean_.size(), "StandardScaler: dimension mismatch");
  const la::Matrix& X = d.features();
  la::Matrix Z(X.rows(), X.cols());
  for (std::size_t r = 0; r < X.rows(); ++r) {
    const auto x = X.row(r);
    const auto z = Z.row(r);
    for (std::size_t c = 0; c < x.size(); ++c) {
      z[c] = (x[c] - mean_[c]) / scale_[c];
    }
  }
  return Dataset(std::move(Z), d.labels());
}

la::Vector StandardScaler::inverse_transform(const la::Vector& z) const {
  PG_CHECK(fitted(), "StandardScaler not fitted");
  PG_CHECK(z.size() == mean_.size(), "StandardScaler: dimension mismatch");
  la::Vector x(z.size());
  for (std::size_t i = 0; i < z.size(); ++i) {
    x[i] = z[i] * scale_[i] + mean_[i];
  }
  return x;
}

}  // namespace pg::data
