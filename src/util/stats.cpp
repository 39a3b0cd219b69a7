#include "util/stats.h"

#include <algorithm>
#include <cmath>

#include "util/error.h"

namespace pg::util {

double mean(const std::vector<double>& v) {
  PG_CHECK(!v.empty(), "mean of empty vector");
  double s = 0.0;
  for (double x : v) s += x;
  return s / static_cast<double>(v.size());
}

double variance(const std::vector<double>& v) {
  PG_CHECK(v.size() >= 2, "variance needs at least two samples");
  const double m = mean(v);
  double s = 0.0;
  for (double x : v) s += (x - m) * (x - m);
  return s / static_cast<double>(v.size() - 1);
}

double median(std::vector<double> v) {
  PG_CHECK(!v.empty(), "median of empty vector");
  const std::size_t n = v.size();
  const std::size_t mid = n / 2;
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(mid),
                   v.end());
  const double hi = v[mid];
  if (n % 2 == 1) return hi;
  const double lo =
      *std::max_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(mid));
  return 0.5 * (lo + hi);
}

double quantile(std::vector<double> v, double q) {
  PG_CHECK(!v.empty(), "quantile of empty vector");
  PG_CHECK(q >= 0.0 && q <= 1.0, "quantile requires q in [0, 1]");
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const auto hi = static_cast<std::size_t>(std::ceil(pos));
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + frac * (v[hi] - v[lo]);
}

EmpiricalCdf::EmpiricalCdf(std::vector<double> sample)
    : sorted_(std::move(sample)) {
  PG_CHECK(!sorted_.empty(), "EmpiricalCdf requires a non-empty sample");
  std::sort(sorted_.begin(), sorted_.end());
}

double EmpiricalCdf::operator()(double x) const {
  PG_CHECK(!sorted_.empty(), "EmpiricalCdf is empty");
  const auto it = std::upper_bound(sorted_.begin(), sorted_.end(), x);
  return static_cast<double>(it - sorted_.begin()) /
         static_cast<double>(sorted_.size());
}

double EmpiricalCdf::inverse(double q) const {
  PG_CHECK(!sorted_.empty(), "EmpiricalCdf is empty");
  PG_CHECK(q >= 0.0 && q <= 1.0, "inverse requires q in [0, 1]");
  if (q <= 0.0) return sorted_.front();
  const auto n = static_cast<double>(sorted_.size());
  const auto k = static_cast<std::size_t>(std::ceil(q * n));
  return sorted_[std::min(k == 0 ? 0 : k - 1, sorted_.size() - 1)];
}

}  // namespace pg::util
