// Dense BLAS-1 style kernels on std::vector<double>.
//
// The library deliberately uses plain std::vector<double> as its vector
// type: every consumer (SVM weights, centroids, poison points) is a flat
// contiguous array and free functions keep the API minimal and composable.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace pg::la {

using Vector = std::vector<double>;

/// Dot product. Requires equal sizes. The Vector overload forwards to
/// the span one, so a matrix row and a Vector sum in the same order.
[[nodiscard]] double dot(std::span<const double> a, std::span<const double> b);
[[nodiscard]] double dot(const Vector& a, const Vector& b);

/// Euclidean norm.
[[nodiscard]] double norm(const Vector& a);

/// Squared Euclidean norm.
[[nodiscard]] double squared_norm(const Vector& a);

/// Euclidean distance between two points. Requires equal sizes. The
/// Vector overload forwards to the span one.
[[nodiscard]] double distance(std::span<const double> a,
                              std::span<const double> b);
[[nodiscard]] double distance(const Vector& a, const Vector& b);

/// y += alpha * x. Requires equal sizes.
void axpy(double alpha, const Vector& x, Vector& y);

/// x *= alpha.
void scale(Vector& x, double alpha);

/// Element-wise a + b. Requires equal sizes.
[[nodiscard]] Vector add(const Vector& a, const Vector& b);

/// Element-wise a - b. Requires equal sizes.
[[nodiscard]] Vector subtract(const Vector& a, const Vector& b);

/// alpha * a.
[[nodiscard]] Vector scaled(const Vector& a, double alpha);

/// Normalize to unit Euclidean norm. Requires a non-zero vector.
[[nodiscard]] Vector normalized(const Vector& a);

/// Linear interpolation (1-t)*a + t*b. Requires equal sizes.
[[nodiscard]] Vector lerp(const Vector& a, const Vector& b, double t);

/// All-zeros vector of the given dimension.
[[nodiscard]] Vector zeros(std::size_t dim);

}  // namespace pg::la
