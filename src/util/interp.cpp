#include "util/interp.h"

#include <algorithm>

#include "util/error.h"

namespace pg::util {

namespace {
void check_knots(const std::vector<double>& xs, const std::vector<double>& ys) {
  PG_CHECK(xs.size() == ys.size(), "xs and ys must have equal size");
  PG_CHECK(xs.size() >= 2, "need at least two knots");
  for (std::size_t i = 1; i < xs.size(); ++i) {
    PG_CHECK(xs[i] > xs[i - 1], "xs must be strictly increasing");
  }
}
}  // namespace

PiecewiseLinear::PiecewiseLinear(std::vector<double> xs, std::vector<double> ys)
    : xs_(std::move(xs)), ys_(std::move(ys)) {
  check_knots(xs_, ys_);
}

std::size_t PiecewiseLinear::segment_of(double x) const {
  // Index i such that xs_[i] <= x < xs_[i+1]; clamped to valid segments.
  const auto it = std::upper_bound(xs_.begin(), xs_.end(), x);
  if (it == xs_.begin()) return 0;
  const auto i = static_cast<std::size_t>(it - xs_.begin()) - 1;
  return std::min(i, xs_.size() - 2);
}

double PiecewiseLinear::operator()(double x) const {
  PG_CHECK(!xs_.empty(), "interpolant is empty");
  if (x <= xs_.front()) return ys_.front();
  if (x >= xs_.back()) return ys_.back();
  const std::size_t i = segment_of(x);
  const double t = (x - xs_[i]) / (xs_[i + 1] - xs_[i]);
  return ys_[i] + t * (ys_[i + 1] - ys_[i]);
}

double PiecewiseLinear::x_min() const {
  PG_CHECK(!xs_.empty(), "interpolant is empty");
  return xs_.front();
}

double PiecewiseLinear::x_max() const {
  PG_CHECK(!xs_.empty(), "interpolant is empty");
  return xs_.back();
}

}  // namespace pg::util
