// Unit and property tests for pg::la -- vector kernels, matrices, and the
// power-iteration eigensolver.
#include <gtest/gtest.h>

#include <cmath>

#include "la/eigen.h"
#include "la/matrix.h"
#include "la/vector_ops.h"
#include "util/rng.h"

namespace pg::la {
namespace {

// ----------------------------------------------------------- vector_ops.h

TEST(VectorOpsTest, DotAndNorm) {
  const Vector a{3.0, 4.0};
  EXPECT_DOUBLE_EQ(dot(a, a), 25.0);
  EXPECT_DOUBLE_EQ(norm(a), 5.0);
  EXPECT_DOUBLE_EQ(squared_norm(a), 25.0);
}

TEST(VectorOpsTest, DotRejectsMismatch) {
  EXPECT_THROW((void)dot({1.0}, {1.0, 2.0}), std::invalid_argument);
}

TEST(VectorOpsTest, DistanceIsSymmetricAndZeroOnSelf) {
  const Vector a{1.0, 2.0, 3.0};
  const Vector b{4.0, 6.0, 3.0};
  EXPECT_DOUBLE_EQ(distance(a, b), 5.0);
  EXPECT_DOUBLE_EQ(distance(b, a), 5.0);
  EXPECT_DOUBLE_EQ(distance(a, a), 0.0);
}

TEST(VectorOpsTest, AxpyAccumulates) {
  Vector y{1.0, 1.0};
  axpy(2.0, {3.0, 4.0}, y);
  EXPECT_DOUBLE_EQ(y[0], 7.0);
  EXPECT_DOUBLE_EQ(y[1], 9.0);
}

TEST(VectorOpsTest, AddSubtractScale) {
  const Vector a{1.0, 2.0};
  const Vector b{3.0, 5.0};
  EXPECT_EQ(add(a, b), (Vector{4.0, 7.0}));
  EXPECT_EQ(subtract(b, a), (Vector{2.0, 3.0}));
  EXPECT_EQ(scaled(a, 3.0), (Vector{3.0, 6.0}));
  Vector c = a;
  scale(c, -1.0);
  EXPECT_EQ(c, (Vector{-1.0, -2.0}));
}

TEST(VectorOpsTest, NormalizedHasUnitNorm) {
  const Vector v = normalized({3.0, 0.0, 4.0});
  EXPECT_NEAR(norm(v), 1.0, 1e-12);
  EXPECT_NEAR(v[0], 0.6, 1e-12);
}

TEST(VectorOpsTest, NormalizedRejectsZero) {
  EXPECT_THROW((void)normalized({0.0, 0.0}), std::invalid_argument);
}

TEST(VectorOpsTest, LerpEndpointsAndMidpoint) {
  const Vector a{0.0, 0.0};
  const Vector b{2.0, 4.0};
  EXPECT_EQ(lerp(a, b, 0.0), a);
  EXPECT_EQ(lerp(a, b, 1.0), b);
  EXPECT_EQ(lerp(a, b, 0.5), (Vector{1.0, 2.0}));
}

TEST(VectorOpsTest, ZerosHasCorrectShape) {
  const Vector z = zeros(4);
  EXPECT_EQ(z.size(), 4u);
  EXPECT_DOUBLE_EQ(norm(z), 0.0);
}

// --------------------------------------------------------------- matrix.h

TEST(MatrixTest, ConstructionAndAccess) {
  Matrix m(2, 3);
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 3u);
  m(1, 2) = 7.0;
  EXPECT_DOUBLE_EQ(m.at(1, 2), 7.0);
  EXPECT_DOUBLE_EQ(m.at(0, 0), 0.0);
}

TEST(MatrixTest, AtBoundsChecked) {
  Matrix m(2, 2);
  EXPECT_THROW((void)m.at(2, 0), std::invalid_argument);
  EXPECT_THROW((void)m.at(0, 2), std::invalid_argument);
}

TEST(MatrixTest, FromRowsRejectsRagged) {
  EXPECT_THROW((void)Matrix::from_rows({{1.0, 2.0}, {3.0}}),
               std::invalid_argument);
}

TEST(MatrixTest, RowViewAndCopy) {
  const Matrix m = Matrix::from_rows({{1.0, 2.0}, {3.0, 4.0}});
  EXPECT_EQ(m.row_copy(1), (Vector{3.0, 4.0}));
  EXPECT_EQ(m.col_copy(0), (Vector{1.0, 3.0}));
  EXPECT_DOUBLE_EQ(m.row(0)[1], 2.0);
}

TEST(MatrixTest, SetAndAppendRow) {
  Matrix m(1, 2);
  m.set_row(0, {5.0, 6.0});
  m.append_row({7.0, 8.0});
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.row_copy(1), (Vector{7.0, 8.0}));
  EXPECT_THROW(m.append_row({1.0}), std::invalid_argument);
}

TEST(MatrixTest, AppendToEmptySetsWidth) {
  Matrix m;
  m.append_row({1.0, 2.0, 3.0});
  EXPECT_EQ(m.rows(), 1u);
  EXPECT_EQ(m.cols(), 3u);
}

TEST(MatrixTest, MatvecAndTransposedMatvec) {
  const Matrix m = Matrix::from_rows({{1.0, 2.0}, {3.0, 4.0}, {5.0, 6.0}});
  EXPECT_EQ(m.matvec({1.0, 1.0}), (Vector{3.0, 7.0, 11.0}));
  EXPECT_EQ(m.matvec_transposed({1.0, 1.0, 1.0}), (Vector{9.0, 12.0}));
}

TEST(MatrixTest, FourRowKernelsMatchReferenceLoops) {
  // Both kernels process four rows per pass, yet every output element must
  // be the naive loop's sum bit for bit. Entries of either sign span 1e-8
  // to 1e8 in magnitude, so a reordered sum would round differently.
  util::Rng rng(57);
  const auto entry = [&rng] {
    const double magnitude = std::pow(10.0, rng.uniform(-8.0, 8.0));
    return rng.uniform() < 0.5 ? -magnitude : magnitude;
  };
  const auto check = [&](std::size_t rows, std::size_t cols) {
    Matrix m(rows, cols);
    for (std::size_t r = 0; r < rows; ++r) {
      for (std::size_t c = 0; c < cols; ++c) m(r, c) = entry();
    }
    Vector x(cols);
    Vector y(rows);
    for (double& v : x) v = entry();
    for (double& v : y) v = entry();

    Vector want(rows, 0.0);
    Vector want_transposed(cols, 0.0);
    for (std::size_t r = 0; r < rows; ++r) {
      double s = 0.0;
      for (std::size_t c = 0; c < cols; ++c) s += m(r, c) * x[c];
      want[r] = s;
    }
    for (std::size_t r = 0; r < rows; ++r) {
      for (std::size_t c = 0; c < cols; ++c) {
        want_transposed[c] += m(r, c) * y[r];
      }
    }

    const Vector got = m.matvec(x);
    const Vector got_transposed = m.matvec_transposed(y);
    for (std::size_t r = 0; r < rows; ++r) {
      EXPECT_EQ(got[r], want[r]) << rows << "x" << cols << " row " << r;
    }
    for (std::size_t c = 0; c < cols; ++c) {
      EXPECT_EQ(got_transposed[c], want_transposed[c])
          << rows << "x" << cols << " column " << c;
    }
  };
  for (std::size_t rows = 1; rows <= 9; ++rows) {
    for (std::size_t cols = 1; cols <= 9; ++cols) check(rows, cols);
    check(rows, 57);
  }
  check(1400, 57);
}

TEST(MatrixTest, TransposeInvolution) {
  const Matrix m = Matrix::from_rows({{1.0, 2.0, 3.0}, {4.0, 5.0, 6.0}});
  const Matrix mt = m.transposed();
  EXPECT_EQ(mt.rows(), 3u);
  EXPECT_EQ(mt.cols(), 2u);
  EXPECT_DOUBLE_EQ(mt(2, 1), 6.0);
  const Matrix mtt = mt.transposed();
  for (std::size_t r = 0; r < m.rows(); ++r) {
    for (std::size_t c = 0; c < m.cols(); ++c) {
      EXPECT_DOUBLE_EQ(mtt(r, c), m(r, c));
    }
  }
}

TEST(MatrixTest, ColumnMeans) {
  const Matrix m = Matrix::from_rows({{1.0, 10.0}, {3.0, 20.0}});
  EXPECT_EQ(m.column_means(), (Vector{2.0, 15.0}));
}

TEST(MatrixTest, CovarianceOfKnownData) {
  // Two perfectly correlated columns.
  const Matrix m =
      Matrix::from_rows({{0.0, 0.0}, {1.0, 2.0}, {2.0, 4.0}});
  const Matrix cov = m.covariance();
  EXPECT_NEAR(cov(0, 0), 1.0, 1e-12);
  EXPECT_NEAR(cov(1, 1), 4.0, 1e-12);
  EXPECT_NEAR(cov(0, 1), 2.0, 1e-12);
  EXPECT_NEAR(cov(1, 0), 2.0, 1e-12);
}

TEST(MatrixTest, SelectRows) {
  const Matrix m = Matrix::from_rows({{1.0}, {2.0}, {3.0}});
  const Matrix s = m.select_rows({2, 0});
  EXPECT_EQ(s.rows(), 2u);
  EXPECT_DOUBLE_EQ(s(0, 0), 3.0);
  EXPECT_DOUBLE_EQ(s(1, 0), 1.0);
  EXPECT_THROW((void)m.select_rows({5}), std::invalid_argument);
}

// ---------------------------------------------------------------- eigen.h

TEST(EigenTest, DominantEigenpairOfDiagonal) {
  Matrix d(3, 3);
  d(0, 0) = 1.0;
  d(1, 1) = 5.0;
  d(2, 2) = 2.0;
  util::Rng rng(1);
  const EigenPair p = power_iteration(d, rng);
  EXPECT_NEAR(p.value, 5.0, 1e-8);
  EXPECT_NEAR(std::abs(p.vector[1]), 1.0, 1e-6);
}

TEST(EigenTest, SymmetricTwoByTwo) {
  // [[2,1],[1,2]] has eigenvalues 3 and 1.
  Matrix m(2, 2);
  m(0, 0) = 2.0;
  m(0, 1) = 1.0;
  m(1, 0) = 1.0;
  m(1, 1) = 2.0;
  util::Rng rng(2);
  const auto pairs = top_eigenpairs(m, 2, rng);
  ASSERT_EQ(pairs.size(), 2u);
  EXPECT_NEAR(pairs[0].value, 3.0, 1e-8);
  EXPECT_NEAR(pairs[1].value, 1.0, 1e-6);
}

TEST(EigenTest, EigenvectorsOrthonormal) {
  util::Rng data_rng(3);
  Matrix x(50, 4);
  for (std::size_t r = 0; r < 50; ++r) {
    for (std::size_t c = 0; c < 4; ++c) x(r, c) = data_rng.normal();
  }
  const Matrix cov = x.covariance();
  util::Rng rng(4);
  const auto pairs = top_eigenpairs(cov, 3, rng);
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    EXPECT_NEAR(norm(pairs[i].vector), 1.0, 1e-8);
    for (std::size_t j = i + 1; j < pairs.size(); ++j) {
      EXPECT_NEAR(dot(pairs[i].vector, pairs[j].vector), 0.0, 1e-6);
    }
  }
  // Eigenvalues sorted (deflation removes the largest first).
  for (std::size_t i = 0; i + 1 < pairs.size(); ++i) {
    EXPECT_GE(pairs[i].value, pairs[i + 1].value - 1e-9);
  }
}

TEST(EigenTest, ProjectionOntoBasisIsIdempotent) {
  Matrix m(2, 2);
  m(0, 0) = 4.0;
  m(1, 1) = 1.0;
  util::Rng rng(5);
  const auto basis = top_eigenpairs(m, 1, rng);
  const Vector x{3.0, 7.0};
  const Vector p1 = project_onto_basis(x, basis);
  const Vector p2 = project_onto_basis(p1, basis);
  EXPECT_NEAR(distance(p1, p2), 0.0, 1e-10);
  // The top eigenvector of this diagonal matrix is e0 (up to the power
  // iteration's direction tolerance).
  EXPECT_NEAR(p1[0], 3.0, 1e-3);
  EXPECT_NEAR(p1[1], 0.0, 1e-3);
}

TEST(EigenTest, RejectsNonSquare) {
  Matrix m(2, 3);
  util::Rng rng(6);
  EXPECT_THROW((void)power_iteration(m, rng), std::invalid_argument);
  EXPECT_THROW((void)top_eigenpairs(m, 1, rng), std::invalid_argument);
}

TEST(EigenTest, RankDeficientMatrixYieldsZeroEigenvalue) {
  Matrix z(3, 3);  // zero matrix
  util::Rng rng(7);
  const EigenPair p = power_iteration(z, rng);
  EXPECT_NEAR(p.value, 0.0, 1e-12);
}

}  // namespace
}  // namespace pg::la
