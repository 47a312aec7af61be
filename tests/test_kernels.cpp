#include "ml/kernels.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <sstream>
#include <vector>

#include "linalg/blas.hpp"
#include "linalg/cholesky.hpp"
#include "util/rng.hpp"

namespace f2pm::ml {
namespace {

TEST(Kernels, LinearKernelIsDotProduct) {
  KernelParams params{.type = KernelType::kLinear};
  const std::vector<double> a{1.0, 2.0};
  const std::vector<double> b{3.0, -1.0};
  EXPECT_DOUBLE_EQ(kernel_value(params, a, b), 1.0);
}

TEST(Kernels, RbfKernelProperties) {
  KernelParams params{.type = KernelType::kRbf, .gamma = 0.5};
  const std::vector<double> a{1.0, 2.0};
  const std::vector<double> b{2.0, 0.0};
  // k(x, x) = 1; k decreases with distance; symmetric.
  EXPECT_DOUBLE_EQ(kernel_value(params, a, a), 1.0);
  EXPECT_DOUBLE_EQ(kernel_value(params, a, b), kernel_value(params, b, a));
  EXPECT_NEAR(kernel_value(params, a, b), std::exp(-0.5 * 5.0), 1e-12);
}

TEST(Kernels, PolynomialKernel) {
  KernelParams params{
      .type = KernelType::kPolynomial, .gamma = 1.0, .coef0 = 1.0,
      .degree = 2};
  const std::vector<double> a{1.0};
  const std::vector<double> b{2.0};
  EXPECT_DOUBLE_EQ(kernel_value(params, a, b), 9.0);  // (2 + 1)^2
}

TEST(Kernels, SizeMismatchThrows) {
  KernelParams params;
  params.gamma = 1.0;
  EXPECT_THROW(kernel_value(params, std::vector<double>{1.0},
                            std::vector<double>{1.0, 2.0}),
               std::invalid_argument);
}

TEST(Kernels, GammaAutoResolution) {
  KernelParams params;  // gamma = 0 -> auto
  EXPECT_DOUBLE_EQ(resolve_gamma(params, 25), 0.04);
  params.gamma = 2.0;
  EXPECT_DOUBLE_EQ(resolve_gamma(params, 25), 2.0);
}

TEST(Kernels, KernelMatrixSymmetricWithUnitDiagonal) {
  util::Rng rng(1);
  linalg::Matrix x(20, 3);
  for (std::size_t r = 0; r < 20; ++r) {
    for (std::size_t c = 0; c < 3; ++c) x(r, c) = rng.uniform(-1.0, 1.0);
  }
  KernelParams params{.type = KernelType::kRbf, .gamma = 1.0};
  const linalg::Matrix k = kernel_matrix(params, x);
  for (std::size_t i = 0; i < 20; ++i) {
    EXPECT_DOUBLE_EQ(k(i, i), 1.0);
    for (std::size_t j = 0; j < 20; ++j) {
      EXPECT_DOUBLE_EQ(k(i, j), k(j, i));
    }
  }
}

TEST(Kernels, RbfKernelMatrixIsPositiveDefiniteOnDistinctPoints) {
  util::Rng rng(2);
  linalg::Matrix x(15, 2);
  for (std::size_t r = 0; r < 15; ++r) {
    x(r, 0) = rng.uniform(-3.0, 3.0);
    x(r, 1) = rng.uniform(-3.0, 3.0);
  }
  KernelParams params{.type = KernelType::kRbf, .gamma = 0.7};
  linalg::Matrix k = kernel_matrix(params, x);
  for (std::size_t i = 0; i < 15; ++i) k(i, i) += 1e-10;  // numeric slack
  EXPECT_TRUE(linalg::cholesky(k).has_value());
}

TEST(Kernels, CrossKernelMatchesElementwise) {
  util::Rng rng(3);
  linalg::Matrix a(5, 2);
  linalg::Matrix b(7, 2);
  for (std::size_t r = 0; r < 5; ++r) {
    a(r, 0) = rng.uniform(-1.0, 1.0);
    a(r, 1) = rng.uniform(-1.0, 1.0);
  }
  for (std::size_t r = 0; r < 7; ++r) {
    b(r, 0) = rng.uniform(-1.0, 1.0);
    b(r, 1) = rng.uniform(-1.0, 1.0);
  }
  KernelParams params{.type = KernelType::kRbf, .gamma = 0.3};
  const linalg::Matrix k = kernel_matrix(params, a, b);
  EXPECT_EQ(k.rows(), 5u);
  EXPECT_EQ(k.cols(), 7u);
  for (std::size_t i = 0; i < 5; ++i) {
    for (std::size_t j = 0; j < 7; ++j) {
      EXPECT_DOUBLE_EQ(k(i, j), kernel_value(params, a.row(i), b.row(j)));
    }
  }
}

/// kernel_row's axpy form must add each K(i, j)'s products in the order
/// linalg::dot does, for a whole row and for a lower-triangle prefix.
TEST(Kernels, KernelRowIsBitIdenticalToTheDotProductForm) {
  util::Rng rng(3);
  linalg::Matrix x(40, 30);
  for (std::size_t r = 0; r < x.rows(); ++r) {
    for (std::size_t c = 0; c < x.cols(); ++c) x(r, c) = rng.normal(0.0, 1.0);
  }
  const linalg::Matrix xt = x.transposed();
  const std::vector<double> norms = row_squared_norms(x);
  for (const KernelParams& params :
       {KernelParams{.type = KernelType::kLinear},
        KernelParams{.type = KernelType::kRbf, .gamma = 0.05},
        KernelParams{.type = KernelType::kPolynomial, .gamma = 0.1,
                     .coef0 = 1.0, .degree = 3}}) {
    SCOPED_TRACE(params.to_string());
    for (std::size_t i : {0, 17, 39}) {
      std::vector<double> expected(x.rows());
      for (std::size_t j = 0; j < x.rows(); ++j) {
        const double dot = linalg::dot(x.row(i), x.row(j));
        switch (params.type) {
          case KernelType::kLinear:
            expected[j] = dot;
            break;
          case KernelType::kRbf:
            expected[j] = std::exp(
                -params.gamma * std::max(0.0, norms[i] + norms[j] - 2.0 * dot));
            break;
          case KernelType::kPolynomial:
            expected[j] =
                std::pow(params.gamma * dot + params.coef0, params.degree);
            break;
        }
      }
      std::vector<double> row(x.rows());
      kernel_row(params, xt, i, norms, row);
      EXPECT_EQ(row, expected);
      std::vector<double> prefix(i + 1);
      kernel_row(params, xt, i, norms, prefix);
      EXPECT_TRUE(std::equal(prefix.begin(), prefix.end(), expected.begin()));
    }
  }
  std::vector<double> too_long(x.rows() + 1);
  EXPECT_THROW(kernel_row(KernelParams{}, xt, 0, norms, too_long),
               std::invalid_argument);
}

TEST(Kernels, ParamsSerializationRoundTrip) {
  KernelParams params{
      .type = KernelType::kPolynomial, .gamma = 0.25, .coef0 = 2.0,
      .degree = 4};
  std::stringstream buffer;
  {
    util::BinaryWriter writer(buffer);
    params.save(writer);
  }
  util::BinaryReader reader(buffer);
  const KernelParams loaded = KernelParams::load(reader);
  EXPECT_EQ(loaded.type, params.type);
  EXPECT_DOUBLE_EQ(loaded.gamma, params.gamma);
  EXPECT_DOUBLE_EQ(loaded.coef0, params.coef0);
  EXPECT_EQ(loaded.degree, params.degree);
}

TEST(Kernels, ToStringNamesKernels) {
  EXPECT_EQ(KernelParams{.type = KernelType::kLinear}.to_string(), "linear");
  EXPECT_NE(KernelParams{}.to_string().find("rbf"), std::string::npos);
}

}  // namespace
}  // namespace f2pm::ml
