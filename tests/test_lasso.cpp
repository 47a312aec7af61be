#include "ml/lasso.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <sstream>

#include "core/feature_selection.hpp"
#include "linalg/blas.hpp"
#include "linalg/stats.hpp"
#include "util/rng.hpp"

namespace f2pm::ml {
namespace {

/// What the reference solver returns for one fit.
struct ReferenceFit {
  std::vector<double> coefficients;
  double intercept = 0.0;
  std::size_t sweeps = 0;
  bool converged = false;
};

/// Residual-update coordinate descent: the solver `Lasso::fit` replaced
/// with covariance updates, kept as the reference it is compared against.
/// The sweep order, soft-threshold step, scaled max-step stopping rule,
/// sweep cap, warm start, zero-snapping and intercept are the library's;
/// only the bookkeeping differs (each update is an O(n) dot product plus an
/// O(n) axpy on the residual, instead of O(p) on Xᵀr).
ReferenceFit reference_lasso_fit(const linalg::Matrix& x,
                                 std::span<const double> y,
                                 const LassoOptions& options,
                                 const std::vector<double>& warm = {}) {
  const std::size_t n = x.rows();
  const std::size_t p = x.cols();
  std::vector<double> x_mean(p, 0.0);
  for (std::size_t r = 0; r < n; ++r) {
    for (std::size_t c = 0; c < p; ++c) x_mean[c] += x(r, c);
  }
  for (double& m : x_mean) m /= static_cast<double>(n);
  const double y_mean = linalg::mean(y);

  std::vector<std::vector<double>> cols(p, std::vector<double>(n));
  std::vector<double> z(p, 0.0);
  for (std::size_t r = 0; r < n; ++r) {
    for (std::size_t c = 0; c < p; ++c) {
      const double v = x(r, c) - x_mean[c];
      cols[c][r] = v;
      z[c] += v * v;
    }
  }

  std::vector<double> beta(p, 0.0);
  if (warm.size() == p) beta = warm;
  std::vector<double> residual(n);
  for (std::size_t r = 0; r < n; ++r) residual[r] = y[r] - y_mean;
  for (std::size_t c = 0; c < p; ++c) {
    if (beta[c] != 0.0) linalg::axpy(-beta[c], cols[c], residual);
  }

  ReferenceFit fit;
  const double threshold = options.lambda / 2.0;
  while (fit.sweeps < options.max_iterations && !fit.converged) {
    ++fit.sweeps;
    double max_step = 0.0;
    for (std::size_t j = 0; j < p; ++j) {
      if (z[j] == 0.0) {
        beta[j] = 0.0;
        continue;
      }
      const double old = beta[j];
      const double rho = linalg::dot(cols[j], residual) + z[j] * old;
      double updated = 0.0;
      if (rho > threshold) updated = (rho - threshold) / z[j];
      if (rho < -threshold) updated = (rho + threshold) / z[j];
      if (updated != old) {
        linalg::axpy(old - updated, cols[j], residual);
        beta[j] = updated;
        max_step = std::max(max_step,
                            std::abs(updated - old) *
                                std::sqrt(z[j] / static_cast<double>(n)));
      }
    }
    fit.converged = max_step < options.tolerance;
  }

  for (double& b : beta) {
    if (std::abs(b) < options.zero_threshold) b = 0.0;
  }
  fit.intercept = y_mean;
  for (std::size_t c = 0; c < p; ++c) fit.intercept -= beta[c] * x_mean[c];
  fit.coefficients = std::move(beta);
  return fit;
}

/// y = 4*x0 - 2*x2 + 1, with x1 pure noise; mixed feature scales so the
/// raw-scale behaviour (bigger features survive longer) is exercised.
void make_sparse_data(std::size_t n, util::Rng& rng, linalg::Matrix& x,
                      std::vector<double>& y) {
  x = linalg::Matrix(n, 3);
  y.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    x(i, 0) = rng.uniform(-5.0, 5.0);
    x(i, 1) = rng.uniform(-1.0, 1.0);
    x(i, 2) = rng.uniform(0.0, 100.0);
    y[i] = 4.0 * x(i, 0) - 2.0 * x(i, 2) + 1.0 + rng.normal(0.0, 0.01);
  }
}

TEST(Lasso, TinyLambdaApproachesLeastSquares) {
  util::Rng rng(1);
  linalg::Matrix x;
  std::vector<double> y;
  make_sparse_data(300, rng, x, y);
  Lasso model(LassoOptions{.lambda = 1e-8, .max_iterations = 5000});
  model.fit(x, y);
  EXPECT_NEAR(model.coefficients()[0], 4.0, 0.01);
  EXPECT_NEAR(model.coefficients()[2], -2.0, 0.01);
  EXPECT_NEAR(model.coefficients()[1], 0.0, 0.05);
}

TEST(Lasso, HugeLambdaZerosEverything) {
  util::Rng rng(2);
  linalg::Matrix x;
  std::vector<double> y;
  make_sparse_data(100, rng, x, y);
  const double lambda_max = lasso_lambda_max(x, y);
  Lasso model(LassoOptions{.lambda = lambda_max * 1.01});
  model.fit(x, y);
  EXPECT_TRUE(model.selected_features().empty());
  // With all-zero β the model predicts the mean of y.
  double mean_y = 0.0;
  for (double v : y) mean_y += v;
  mean_y /= static_cast<double>(y.size());
  EXPECT_NEAR(model.predict_row(std::vector<double>{0.0, 0.0, 0.0}), mean_y,
              1e-6);
}

TEST(Lasso, JustBelowLambdaMaxSelectsSomething) {
  util::Rng rng(3);
  linalg::Matrix x;
  std::vector<double> y;
  make_sparse_data(100, rng, x, y);
  const double lambda_max = lasso_lambda_max(x, y);
  Lasso model(LassoOptions{.lambda = lambda_max * 0.5,
                           .max_iterations = 5000});
  model.fit(x, y);
  EXPECT_FALSE(model.selected_features().empty());
}

TEST(Lasso, NoiseFeatureDiesBeforeSignalFeatures) {
  util::Rng rng(4);
  linalg::Matrix x;
  std::vector<double> y;
  make_sparse_data(500, rng, x, y);
  Lasso model(LassoOptions{.lambda = 50.0, .max_iterations = 5000});
  model.fit(x, y);
  const auto selected = model.selected_features();
  EXPECT_EQ(std::count(selected.begin(), selected.end(), 1u), 0);
  EXPECT_TRUE(std::count(selected.begin(), selected.end(), 2u) == 1);
}

TEST(Lasso, ConstantColumnNeverSelected) {
  linalg::Matrix x(20, 2);
  std::vector<double> y(20);
  for (std::size_t i = 0; i < 20; ++i) {
    x(i, 0) = static_cast<double>(i);
    x(i, 1) = 7.0;  // constant
    y[i] = 3.0 * static_cast<double>(i);
  }
  Lasso model(LassoOptions{.lambda = 1e-6});
  model.fit(x, y);
  const auto selected = model.selected_features();
  EXPECT_EQ(std::count(selected.begin(), selected.end(), 1u), 0);
}

TEST(Lasso, SweepCapOfOneReportsNotConverged) {
  util::Rng rng(6);
  linalg::Matrix x;
  std::vector<double> y;
  make_sparse_data(200, rng, x, y);
  Lasso model(LassoOptions{.lambda = 1.0, .max_iterations = 1});
  model.fit(x, y);
  EXPECT_EQ(model.sweeps(), 1u);
  EXPECT_FALSE(model.converged());
}

TEST(Lasso, SparseFixtureConvergesBelowTheCap) {
  util::Rng rng(6);
  linalg::Matrix x;
  std::vector<double> y;
  make_sparse_data(200, rng, x, y);
  Lasso model(LassoOptions{.lambda = 1.0});
  model.fit(x, y);
  EXPECT_TRUE(model.converged());
  EXPECT_GE(model.sweeps(), 1u);
  EXPECT_LT(model.sweeps(), model.options().max_iterations);
}

TEST(Lasso, InvalidOptionsRejected) {
  EXPECT_THROW(Lasso(LassoOptions{.lambda = -1.0}), std::invalid_argument);
  EXPECT_THROW(Lasso(LassoOptions{.lambda = 1.0, .max_iterations = 0}),
               std::invalid_argument);
}

TEST(Lasso, SaveLoadRoundTrip) {
  util::Rng rng(5);
  linalg::Matrix x;
  std::vector<double> y;
  make_sparse_data(100, rng, x, y);
  Lasso model(LassoOptions{.lambda = 10.0});
  model.fit(x, y);
  std::stringstream buffer;
  save_model(model, buffer);
  const auto loaded = load_model(buffer);
  EXPECT_EQ(loaded->name(), "lasso");
  const std::vector<double> probe{1.0, 0.5, 50.0};
  EXPECT_DOUBLE_EQ(loaded->predict_row(probe), model.predict_row(probe));
}

/// Property: along a λ grid, the number of selected features is (weakly)
/// decreasing — the paper's Fig. 4 monotonicity.
class LassoPathMonotonicity
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(LassoPathMonotonicity, SelectionShrinksAsLambdaGrows) {
  util::Rng rng(GetParam());
  linalg::Matrix x;
  std::vector<double> y;
  make_sparse_data(200, rng, x, y);
  std::vector<double> lambdas;
  for (int e = -4; e <= 6; ++e) lambdas.push_back(std::pow(10.0, e));
  const auto path = lasso_path(x, y, lambdas);
  ASSERT_EQ(path.size(), lambdas.size());
  // Allow one-off fluctuations from convergence tolerance, but the overall
  // trend must be decreasing and the extremes must be correct.
  EXPECT_GE(path.front().selected.size(), path.back().selected.size());
  for (std::size_t i = 1; i < path.size(); ++i) {
    EXPECT_LE(path[i].selected.size(), path[i - 1].selected.size() + 1);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, LassoPathMonotonicity,
                         ::testing::Values(11, 22, 33, 44));

TEST(LassoPath, EntriesAlignWithRequestedOrder) {
  util::Rng rng(7);
  linalg::Matrix x;
  std::vector<double> y;
  make_sparse_data(100, rng, x, y);
  const std::vector<double> lambdas{100.0, 0.001, 10.0};
  const auto path = lasso_path(x, y, lambdas);
  ASSERT_EQ(path.size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_DOUBLE_EQ(path[i].lambda, lambdas[i]);
  }
  EXPECT_GE(path[1].selected.size(), path[0].selected.size());
}

TEST(LassoPath, MatchesDirectFitAtEachLambda) {
  util::Rng rng(8);
  linalg::Matrix x;
  std::vector<double> y;
  make_sparse_data(150, rng, x, y);
  const std::vector<double> lambdas{1.0, 100.0};
  const auto path = lasso_path(x, y, lambdas);
  for (std::size_t k = 0; k < lambdas.size(); ++k) {
    Lasso direct(LassoOptions{.lambda = lambdas[k]});
    direct.fit(x, y);
    ASSERT_EQ(path[k].coefficients.size(), direct.coefficients().size());
    for (std::size_t j = 0; j < direct.coefficients().size(); ++j) {
      EXPECT_NEAR(path[k].coefficients[j], direct.coefficients()[j], 1e-3);
    }
  }
}

/// A monitoring-like design on raw scales, n × 8: a memory level in KiB
/// (~1e5..1e6) and its near-complement (like mem_used / mem_free, which
/// makes the small-λ fits run to the sweep cap), a percentage, a constant
/// column, a slope and its exact negation (like swap_used_slope /
/// swap_free_slope), a fraction and a noise column. The target is an
/// RTTF-like linear mix plus noise.
void make_monitoring_data(std::size_t n, util::Rng& rng, linalg::Matrix& x,
                          std::vector<double>& y) {
  x = linalg::Matrix(n, 8);
  y.resize(n);
  double level = rng.uniform(2e5, 4e5);
  for (std::size_t i = 0; i < n; ++i) {
    const double slope = rng.normal(600.0, 250.0);
    level += slope;
    x(i, 0) = level;
    x(i, 1) = 1e6 - level + rng.normal(0.0, 200.0);
    x(i, 2) = rng.uniform(0.0, 100.0);
    x(i, 3) = 4096.0;
    x(i, 4) = slope;
    x(i, 5) = -slope;
    x(i, 6) = rng.uniform(0.0, 1.0);
    x(i, 7) = rng.normal(0.0, 1e3);
    y[i] = 3000.0 - 0.004 * level + 4.0 * x(i, 2) - 0.8 * slope +
           150.0 * x(i, 6) + rng.normal(0.0, 40.0);
  }
}

/// Relative agreement of two coefficient vectors: the largest
/// |a_j - b_j| / max(|a_j|, |b_j|) over coordinates where either is non-zero.
double max_relative_difference(const std::vector<double>& a,
                               const std::vector<double>& b) {
  double worst = 0.0;
  for (std::size_t j = 0; j < a.size(); ++j) {
    const double scale = std::max(std::abs(a[j]), std::abs(b[j]));
    if (scale > 0.0) worst = std::max(worst, std::abs(a[j] - b[j]) / scale);
  }
  return worst;
}

std::vector<std::size_t> non_zero(const std::vector<double>& beta) {
  std::vector<std::size_t> indices;
  for (std::size_t j = 0; j < beta.size(); ++j) {
    if (beta[j] != 0.0) indices.push_back(j);
  }
  return indices;
}

/// Covariance mode and the residual reference take the same steps in exact
/// arithmetic, so they differ by rounding alone. Over these seeds the
/// largest relative coefficient difference seen was 1.1e-9 (on fits that
/// stop at the sweep cap); the bound leaves two decades of margin.
constexpr double kReferenceRelTolerance = 1e-7;

void expect_matches_reference(const std::vector<double>& coefficients,
                              std::size_t sweeps, bool converged,
                              const ReferenceFit& reference) {
  EXPECT_EQ(non_zero(coefficients), non_zero(reference.coefficients));
  EXPECT_LE(max_relative_difference(coefficients, reference.coefficients),
            kReferenceRelTolerance);
  EXPECT_EQ(sweeps, reference.sweeps);
  EXPECT_EQ(converged, reference.converged);
}

/// Property: on monitoring-like data (mixed raw scales, a constant column,
/// an exactly anti-correlated pair), ml::Lasso matches the residual-update
/// reference at every λ of the paper grid: cold fits, the warm-started
/// path, and an explicit warm start.
class LassoMatchesReference
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(LassoMatchesReference, ColdFitsOnThePaperGrid) {
  util::Rng rng(GetParam());
  linalg::Matrix x;
  std::vector<double> y;
  make_monitoring_data(400, rng, x, y);
  for (double lambda : core::paper_lambda_grid()) {
    SCOPED_TRACE("lambda=" + std::to_string(lambda));
    const LassoOptions options{.lambda = lambda};
    Lasso model(options);
    model.fit(x, y);
    const ReferenceFit reference = reference_lasso_fit(x, y, options);
    expect_matches_reference(model.coefficients(), model.sweeps(),
                             model.converged(), reference);
    EXPECT_NEAR(model.intercept(), reference.intercept,
                kReferenceRelTolerance * std::abs(reference.intercept));
    const auto selected = model.selected_features();
    EXPECT_EQ(std::count(selected.begin(), selected.end(), 3u), 0);
  }
}

TEST_P(LassoMatchesReference, WarmStartedPath) {
  util::Rng rng(GetParam());
  linalg::Matrix x;
  std::vector<double> y;
  make_monitoring_data(400, rng, x, y);
  const auto lambdas = core::paper_lambda_grid();
  const auto path = lasso_path(x, y, lambdas);
  // The grid ascends; the path is solved from its largest λ down.
  std::vector<double> warm;
  for (std::size_t k = lambdas.size(); k-- > 0;) {
    SCOPED_TRACE("lambda=" + std::to_string(lambdas[k]));
    const ReferenceFit reference =
        reference_lasso_fit(x, y, LassoOptions{.lambda = lambdas[k]}, warm);
    warm = reference.coefficients;
    expect_matches_reference(path[k].coefficients, path[k].sweeps,
                             path[k].converged, reference);
    EXPECT_EQ(path[k].selected, non_zero(reference.coefficients));
  }
}

TEST_P(LassoMatchesReference, ExplicitWarmStart) {
  util::Rng rng(GetParam());
  linalg::Matrix x;
  std::vector<double> y;
  make_monitoring_data(400, rng, x, y);
  // Arbitrary start, non-zero on the constant and both anti-correlated
  // columns, so the initial Xᵀr carries every term.
  const std::vector<double> warm{-0.003, 0.001, 2.0, 5.0,
                                 -0.4,   0.4,   90.0, 0.01};
  for (double lambda : {1e2, 1e5, 1e8}) {
    SCOPED_TRACE("lambda=" + std::to_string(lambda));
    const LassoOptions options{.lambda = lambda};
    Lasso model(options);
    model.warm_start(warm);
    model.fit(x, y);
    expect_matches_reference(model.coefficients(), model.sweeps(),
                             model.converged(),
                             reference_lasso_fit(x, y, options, warm));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, LassoMatchesReference,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

}  // namespace
}  // namespace f2pm::ml
