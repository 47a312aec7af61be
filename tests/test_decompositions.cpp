#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>

#include "linalg/blas.hpp"
#include "linalg/cholesky.hpp"
#include "linalg/qr.hpp"
#include "linalg_reference.hpp"
#include "util/rng.hpp"

namespace f2pm::linalg {
namespace {

Matrix random_spd(std::size_t n, util::Rng& rng) {
  Matrix a(n, n);
  for (std::size_t r = 0; r < n; ++r) {
    for (std::size_t c = 0; c < n; ++c) a(r, c) = rng.uniform(-1.0, 1.0);
  }
  Matrix spd = gram(a);  // AᵀA is PSD; add I for strict PD
  for (std::size_t i = 0; i < n; ++i) spd(i, i) += static_cast<double>(n);
  return spd;
}

TEST(Cholesky, FactorReconstructsMatrix) {
  util::Rng rng(3);
  const Matrix a = random_spd(8, rng);
  const auto factor = cholesky(a);
  ASSERT_TRUE(factor.has_value());
  const Matrix reconstructed = gemm(factor->l, factor->l.transposed());
  EXPECT_LT(max_abs_diff(a, reconstructed), 1e-9);
}

TEST(Cholesky, SolveSatisfiesSystem) {
  util::Rng rng(4);
  const Matrix a = random_spd(10, rng);
  std::vector<double> b(10);
  for (double& v : b) v = rng.uniform(-5.0, 5.0);
  const auto x = cholesky(a)->solve(b);
  const auto ax = gemv(a, x);
  for (std::size_t i = 0; i < b.size(); ++i) EXPECT_NEAR(ax[i], b[i], 1e-8);
}

TEST(Cholesky, RejectsIndefiniteMatrix) {
  const Matrix indefinite{{1.0, 2.0}, {2.0, 1.0}};  // eigenvalues 3, -1
  EXPECT_FALSE(cholesky(indefinite).has_value());
}

TEST(Cholesky, RejectsNonSquare) {
  EXPECT_THROW(cholesky(Matrix(2, 3)), std::invalid_argument);
}

TEST(Cholesky, LogDetMatchesKnownValue) {
  const Matrix diag{{4.0, 0.0}, {0.0, 9.0}};
  EXPECT_NEAR(cholesky(diag)->log_det(), std::log(36.0), 1e-12);
}

/// The blocked, parallel factor must equal the column-by-column loop bit
/// for bit. The sizes straddle the 64-column panel and the 256-row
/// threshold at which the trailing update moves to the thread pool.
TEST(Cholesky, BlockedMatchesUnblockedReferenceBitForBit) {
  for (std::size_t n : {1, 2, 63, 64, 65, 255, 256, 257, 700}) {
    SCOPED_TRACE("n=" + std::to_string(n));
    util::Rng rng(100 + n);
    const Matrix a = random_spd(n, rng);
    const auto expected = reference::cholesky(a);
    const auto factor = cholesky(a);
    ASSERT_TRUE(expected.has_value());
    ASSERT_TRUE(factor.has_value());
    ASSERT_EQ(factor->l.rows(), n);
    ASSERT_EQ(factor->l.cols(), n);
    EXPECT_EQ(std::memcmp(factor->l.data().data(), expected->data().data(),
                          n * n * sizeof(double)),
              0);
  }
}

TEST(Cholesky, ReadsOnlyTheLowerTriangle) {
  util::Rng rng(11);
  const Matrix a = random_spd(130, rng);
  Matrix lower = a;
  for (std::size_t i = 0; i < lower.rows(); ++i) {
    for (std::size_t j = i + 1; j < lower.cols(); ++j) lower(i, j) = 0.0;
  }
  EXPECT_EQ(cholesky(lower)->l, cholesky(a)->l);
}

/// n = 400: the first two panels' trailing updates run on the pool.
TEST(Cholesky, RejectsNonPositivePivotInALaterBlock) {
  for (std::size_t pivot : {100, 390}) {
    SCOPED_TRACE("pivot=" + std::to_string(pivot));
    util::Rng rng(12);
    Matrix a = random_spd(400, rng);
    a(pivot, pivot) = 0.0;  // its Schur complement is now negative
    EXPECT_FALSE(reference::cholesky(a).has_value());
    EXPECT_FALSE(cholesky(a).has_value());
  }
}

TEST(Cholesky, RejectsNaN) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  util::Rng rng(13);
  const Matrix a = random_spd(400, rng);
  Matrix off_diagonal = a;
  off_diagonal(390, 70) = nan;  // a panel row of the second block
  EXPECT_FALSE(cholesky(off_diagonal).has_value());
  Matrix diagonal = a;
  diagonal(150, 150) = nan;
  EXPECT_FALSE(cholesky(diagonal).has_value());
}

TEST(SolveSpd, JitterRescuesSemidefinite) {
  // Rank-1 PSD matrix; plain Cholesky fails, jitter succeeds.
  const Matrix semi{{1.0, 1.0}, {1.0, 1.0}};
  const std::vector<double> b{1.0, 1.0};
  const auto x = solve_spd(semi, b);
  const auto ax = gemv(semi, x);
  EXPECT_NEAR(ax[0], 1.0, 1e-4);
}

TEST(Qr, LeastSquaresRecoversExactSolution) {
  // Square invertible system: LS solution is the exact solution.
  const Matrix a{{2.0, 1.0}, {1.0, 3.0}};
  const std::vector<double> b{5.0, 10.0};
  const auto x = least_squares(a, b);
  const auto ax = gemv(a, x);
  EXPECT_NEAR(ax[0], 5.0, 1e-10);
  EXPECT_NEAR(ax[1], 10.0, 1e-10);
}

TEST(Qr, OverdeterminedResidualIsOrthogonal) {
  util::Rng rng(9);
  Matrix a(30, 4);
  std::vector<double> b(30);
  for (std::size_t r = 0; r < 30; ++r) {
    for (std::size_t c = 0; c < 4; ++c) a(r, c) = rng.uniform(-1.0, 1.0);
    b[r] = rng.uniform(-1.0, 1.0);
  }
  const auto x = least_squares(a, b);
  // Normal equations must hold: Aᵀ(b - Ax) = 0.
  auto residual = b;
  const auto ax = gemv(a, x);
  for (std::size_t i = 0; i < residual.size(); ++i) residual[i] -= ax[i];
  const auto atr = gemv_transposed(a, residual);
  for (double v : atr) EXPECT_NEAR(v, 0.0, 1e-9);
}

TEST(Qr, UnderdeterminedThrows) {
  EXPECT_THROW(QrFactor(Matrix(2, 5)), std::invalid_argument);
}

TEST(Qr, RankDeficientSolveThrows) {
  Matrix a(4, 2);
  for (std::size_t r = 0; r < 4; ++r) {
    a(r, 0) = static_cast<double>(r);
    a(r, 1) = 2.0 * static_cast<double>(r);  // duplicate direction
  }
  const std::vector<double> b{1.0, 2.0, 3.0, 4.0};
  QrFactor factor(a);
  EXPECT_FALSE(factor.full_rank());
  EXPECT_THROW(factor.solve(b), std::runtime_error);
}

TEST(Lu, SolveMatchesKnownSystem) {
  const Matrix a{{0.0, 2.0}, {1.0, 0.0}};  // forces pivoting
  const std::vector<double> b{4.0, 3.0};
  const auto x = reference::solve(a, b);
  EXPECT_NEAR(x[0], 3.0, 1e-12);
  EXPECT_NEAR(x[1], 2.0, 1e-12);
}

TEST(Lu, DeterminantWithPivoting) {
  const Matrix a{{0.0, 1.0}, {1.0, 0.0}};
  EXPECT_NEAR(reference::LuFactor(a).determinant(), -1.0, 1e-12);
}

TEST(Lu, SingularThrows) {
  const Matrix singular{{1.0, 2.0}, {2.0, 4.0}};
  EXPECT_THROW(reference::LuFactor{singular}, std::runtime_error);
}

TEST(Lu, InverseTimesOriginalIsIdentity) {
  util::Rng rng(10);
  Matrix a(5, 5);
  for (std::size_t r = 0; r < 5; ++r) {
    for (std::size_t c = 0; c < 5; ++c) a(r, c) = rng.uniform(-1.0, 1.0);
    a(r, r) += 3.0;  // well conditioned
  }
  const Matrix prod = gemm(a, reference::inverse(a));
  EXPECT_LT(max_abs_diff(prod, Matrix::identity(5)), 1e-9);
}

TEST(Lu, SolvesSymmetricIndefiniteBorderedSystem) {
  // The LS-SVM bordered form: [[0, 1],[1, k]] is indefinite.
  const Matrix bordered{{0.0, 1.0}, {1.0, 2.0}};
  const std::vector<double> rhs{0.0, 3.0};
  const auto x = reference::solve(bordered, rhs);
  const auto ax = gemv(bordered, x);
  EXPECT_NEAR(ax[0], 0.0, 1e-12);
  EXPECT_NEAR(ax[1], 3.0, 1e-12);
}

}  // namespace
}  // namespace f2pm::linalg
