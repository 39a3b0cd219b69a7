// 1-D piecewise-linear interpolation used to turn measured accuracy
// sweeps into the continuous payoff curves E(p) and Gamma(p) consumed by
// Algorithm 1. It is exact at the knots and never overshoots measured
// data.
#pragma once

#include <cstddef>
#include <vector>

namespace pg::util {

/// Piecewise-linear interpolant through (x_i, y_i) with strictly
/// increasing x. Evaluation outside [x_front, x_back] clamps to the end
/// values (payoff curves are defined on a closed interval).
class PiecewiseLinear {
 public:
  PiecewiseLinear() = default;

  /// Requires xs.size() == ys.size() >= 2 and xs strictly increasing.
  PiecewiseLinear(std::vector<double> xs, std::vector<double> ys);

  [[nodiscard]] double operator()(double x) const;

  [[nodiscard]] std::size_t size() const noexcept { return xs_.size(); }
  [[nodiscard]] bool empty() const noexcept { return xs_.empty(); }
  [[nodiscard]] double x_min() const;
  [[nodiscard]] double x_max() const;
  [[nodiscard]] const std::vector<double>& xs() const noexcept { return xs_; }
  [[nodiscard]] const std::vector<double>& ys() const noexcept { return ys_; }

 private:
  [[nodiscard]] std::size_t segment_of(double x) const;

  std::vector<double> xs_;
  std::vector<double> ys_;
};

}  // namespace pg::util
