// Descriptive statistics, quantiles and empirical CDFs.
//
// The defender's filter strength is defined as a quantile of the clean
// distance-to-centroid distribution, and the attacker's "radius percentile"
// is the inverse transform, so quantile/ECDF code is on the critical path of
// the game model and must be exact and well-tested.
#pragma once

#include <cstddef>
#include <vector>

namespace pg::util {

/// Arithmetic mean. Requires non-empty input.
[[nodiscard]] double mean(const std::vector<double>& v);

/// Unbiased sample variance (n-1 denominator). Requires size >= 2.
[[nodiscard]] double variance(const std::vector<double>& v);

/// Median (average of central pair for even sizes). Requires non-empty.
[[nodiscard]] double median(std::vector<double> v);

/// Linear-interpolated quantile (type 7, the numpy/R default).
/// q in [0, 1]; requires non-empty input.
[[nodiscard]] double quantile(std::vector<double> v, double q);

/// Empirical cumulative distribution function of a sample.
///
/// F(x) = (number of sample points <= x) / n, plus the inverse transform
/// (quantile). Used to convert between filter radius and removal fraction.
class EmpiricalCdf {
 public:
  EmpiricalCdf() = default;

  /// Requires a non-empty sample.
  explicit EmpiricalCdf(std::vector<double> sample);

  /// F(x) in [0, 1].
  [[nodiscard]] double operator()(double x) const;

  /// Smallest sample value v with F(v) >= q, q in [0, 1].
  [[nodiscard]] double inverse(double q) const;

  [[nodiscard]] std::size_t size() const noexcept { return sorted_.size(); }
  [[nodiscard]] bool empty() const noexcept { return sorted_.empty(); }

 private:
  std::vector<double> sorted_;
};

}  // namespace pg::util
