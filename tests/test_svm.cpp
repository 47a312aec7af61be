#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <sstream>

#include "data/standardizer.hpp"
#include "linalg_reference.hpp"
#include "ml/lssvm.hpp"
#include "ml/metrics.hpp"
#include "ml/registry.hpp"
#include "ml/svr.hpp"
#include "util/rng.hpp"

namespace f2pm::ml {
namespace {

/// Smooth non-linear target: y = sin(2x) + 0.5x over [-2, 2].
void make_sine_data(std::size_t n, double noise, util::Rng& rng,
                    linalg::Matrix& x, std::vector<double>& y) {
  x = linalg::Matrix(n, 1);
  y.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    x(i, 0) = rng.uniform(-2.0, 2.0);
    y[i] = std::sin(2.0 * x(i, 0)) + 0.5 * x(i, 0) + rng.normal(0.0, noise);
  }
}

SvrOptions strong_svr() {
  // A deliberately strong configuration for accuracy-focused tests (the
  // library default mimics weaker WEKA-style settings).
  SvrOptions options;
  options.c = 50.0;
  options.epsilon = 0.01;
  options.kernel.gamma = 2.0;
  return options;
}

TEST(Svr, FitsNonlinearFunction) {
  util::Rng rng(1);
  linalg::Matrix x;
  std::vector<double> y;
  make_sine_data(300, 0.01, rng, x, y);
  KernelSvr model(strong_svr());
  model.fit(x, y);
  for (double probe : {-1.5, -0.5, 0.0, 0.7, 1.8}) {
    const double expected = std::sin(2.0 * probe) + 0.5 * probe;
    EXPECT_NEAR(model.predict_row(std::vector<double>{probe}), expected,
                0.15);
  }
}

TEST(Svr, WiderTubeYieldsFewerSupportVectors) {
  util::Rng rng(2);
  linalg::Matrix x;
  std::vector<double> y;
  make_sine_data(200, 0.05, rng, x, y);
  SvrOptions narrow = strong_svr();
  narrow.epsilon = 0.01;
  SvrOptions wide = strong_svr();
  wide.epsilon = 0.5;
  KernelSvr narrow_model(narrow);
  KernelSvr wide_model(wide);
  narrow_model.fit(x, y);
  wide_model.fit(x, y);
  EXPECT_LT(wide_model.num_support_vectors(),
            narrow_model.num_support_vectors());
}

TEST(Svr, ReportsIterationsAndRespectsCap) {
  util::Rng rng(3);
  linalg::Matrix x;
  std::vector<double> y;
  make_sine_data(150, 0.01, rng, x, y);
  SvrOptions capped = strong_svr();
  capped.max_iterations = 10;
  KernelSvr model(capped);
  model.fit(x, y);
  EXPECT_LE(model.iterations_used(), 10u);
}

TEST(Svr, InvalidOptionsRejected) {
  SvrOptions bad_c;
  bad_c.c = 0.0;
  EXPECT_THROW(KernelSvr{bad_c}, std::invalid_argument);
  SvrOptions bad_eps;
  bad_eps.epsilon = -0.1;
  EXPECT_THROW(KernelSvr{bad_eps}, std::invalid_argument);
}

TEST(Svr, SaveLoadPreservesPredictions) {
  util::Rng rng(4);
  linalg::Matrix x;
  std::vector<double> y;
  make_sine_data(150, 0.02, rng, x, y);
  KernelSvr model(strong_svr());
  model.fit(x, y);
  std::stringstream buffer;
  save_model(model, buffer);
  const auto loaded = load_model(buffer);
  EXPECT_EQ(loaded->name(), "svm");
  for (double probe : {-1.2, 0.0, 1.3}) {
    const std::vector<double> row{probe};
    EXPECT_NEAR(loaded->predict_row(row), model.predict_row(row), 1e-9);
  }
}

TEST(Svr, ConstantTargetPredictsConstant) {
  linalg::Matrix x(20, 1);
  for (std::size_t i = 0; i < 20; ++i) x(i, 0) = static_cast<double>(i);
  const std::vector<double> y(20, 4.0);
  KernelSvr model;
  model.fit(x, y);
  EXPECT_NEAR(model.predict_row(std::vector<double>{10.0}), 4.0, 1e-6);
}

TEST(Svr, ShrinkingAndTinyCacheMatchDenseSolver) {
  // The kernel cache and shrinking are pure optimizations: at a tight
  // solver tolerance both configurations must land on the same solution.
  // A generous cache with shrinking off reproduces the old dense-matrix
  // solver's trajectory; an 8 KB cache (a handful of rows at n = 120)
  // with shrinking on exercises eviction and gradient reconstruction.
  // The data is 3-dimensional so the kernel matrix is well conditioned and
  // the dual optimum is sharp — on near-singular problems two KKT-optimal
  // points can legitimately predict differently.
  util::Rng rng(31);
  const std::size_t n = 120;
  linalg::Matrix x(n, 3);
  std::vector<double> y(n);
  for (std::size_t i = 0; i < n; ++i) {
    x(i, 0) = rng.uniform(-2.0, 2.0);
    x(i, 1) = rng.uniform(-2.0, 2.0);
    x(i, 2) = rng.uniform(-2.0, 2.0);
    y[i] = std::sin(x(i, 0)) + 0.3 * x(i, 1) * x(i, 1) - 0.5 * x(i, 2) +
           rng.normal(0.0, 0.05);
  }
  SvrOptions reference;
  reference.c = 5.0;
  reference.epsilon = 0.05;
  reference.kernel.gamma = 0.5;
  reference.tolerance = 1e-10;
  reference.cache_bytes = 1ull << 30;
  reference.shrinking = false;
  SvrOptions optimized = reference;
  optimized.cache_bytes = 8 * 1024;
  optimized.shrinking = true;
  KernelSvr reference_model(reference);
  KernelSvr optimized_model(optimized);
  reference_model.fit(x, y);
  optimized_model.fit(x, y);
  ASSERT_LT(reference_model.iterations_used(), reference.max_iterations);
  ASSERT_LT(optimized_model.iterations_used(), optimized.max_iterations);
  EXPECT_GT(optimized_model.cache_stats().evictions, 0u);
  util::Rng probe_rng(7);
  for (int probe = 0; probe < 100; ++probe) {
    const std::vector<double> row{probe_rng.uniform(-2.0, 2.0),
                                  probe_rng.uniform(-2.0, 2.0),
                                  probe_rng.uniform(-2.0, 2.0)};
    EXPECT_NEAR(optimized_model.predict_row(row),
                reference_model.predict_row(row), 1e-8);
  }
}

TEST(Svr, CacheStatsReportedAndBounded) {
  util::Rng rng(32);
  linalg::Matrix x;
  std::vector<double> y;
  make_sine_data(150, 0.02, rng, x, y);
  SvrOptions options = strong_svr();
  options.cache_bytes = 8 * 1024;  // ~6 rows at n = 150
  KernelSvr model(options);
  model.fit(x, y);
  const KernelCacheStats& stats = model.cache_stats();
  EXPECT_GT(stats.misses, 0u);
  EXPECT_GT(stats.hits, 0u);
  EXPECT_LE(stats.peak_bytes, options.cache_bytes);
  EXPECT_EQ(stats.budget_bytes, options.cache_bytes);
}

TEST(Svr, BatchPredictMatchesRowPredict) {
  util::Rng rng(33);
  linalg::Matrix x;
  std::vector<double> y;
  make_sine_data(150, 0.02, rng, x, y);
  KernelSvr model(strong_svr());
  model.fit(x, y);
  linalg::Matrix probes(40, 1);
  for (std::size_t i = 0; i < probes.rows(); ++i) {
    probes(i, 0) = rng.uniform(-2.0, 2.0);
  }
  const std::vector<double> batched = model.predict(probes);
  ASSERT_EQ(batched.size(), probes.rows());
  for (std::size_t i = 0; i < probes.rows(); ++i) {
    EXPECT_NEAR(batched[i], model.predict_row(probes.row(i)), 1e-9);
  }
}

TEST(Svr, SaveLoadRoundTripsExtremeFeatureScales) {
  // A feature with a huge mean and a tiny spread breaks the old
  // refit-on-synthetic-rows deserialization (catastrophic cancellation);
  // from_moments must reproduce predictions exactly.
  util::Rng rng(34);
  const std::size_t n = 60;
  linalg::Matrix x(n, 2);
  std::vector<double> y(n);
  for (std::size_t i = 0; i < n; ++i) {
    x(i, 0) = rng.uniform(-2.0, 2.0);
    x(i, 1) = 1e9 + rng.uniform(0.0, 1e-4);  // constant-ish extreme column
    y[i] = std::sin(2.0 * x(i, 0)) + rng.normal(0.0, 0.01);
  }
  KernelSvr model(strong_svr());
  model.fit(x, y);
  std::stringstream buffer;
  save_model(model, buffer);
  const auto loaded = load_model(buffer);
  for (std::size_t i = 0; i < 10; ++i) {
    const std::vector<double> row{rng.uniform(-2.0, 2.0),
                                  1e9 + rng.uniform(0.0, 1e-4)};
    EXPECT_DOUBLE_EQ(loaded->predict_row(row), model.predict_row(row));
  }
}

TEST(LsSvm, FitsNonlinearFunction) {
  util::Rng rng(5);
  linalg::Matrix x;
  std::vector<double> y;
  make_sine_data(250, 0.01, rng, x, y);
  LsSvmOptions options;
  options.gamma = 1000.0;
  options.kernel.gamma = 2.0;
  LsSvm model(options);
  model.fit(x, y);
  for (double probe : {-1.5, 0.0, 1.5}) {
    const double expected = std::sin(2.0 * probe) + 0.5 * probe;
    EXPECT_NEAR(model.predict_row(std::vector<double>{probe}), expected,
                0.1);
  }
}

TEST(LsSvm, SmallGammaUnderfitsTowardMean) {
  util::Rng rng(6);
  linalg::Matrix x;
  std::vector<double> y;
  make_sine_data(200, 0.01, rng, x, y);
  LsSvmOptions smooth;
  smooth.gamma = 1e-6;
  smooth.kernel.gamma = 2.0;
  LsSvm model(smooth);
  model.fit(x, y);
  // With negligible gamma, the fit collapses toward the bias ~= mean(y).
  double mean_y = 0.0;
  for (double v : y) mean_y += v;
  mean_y /= static_cast<double>(y.size());
  EXPECT_NEAR(model.predict_row(std::vector<double>{1.0}), mean_y, 0.3);
}

TEST(LsSvm, RegularizationMonotonicallyImprovesTrainFit) {
  util::Rng rng(7);
  linalg::Matrix x;
  std::vector<double> y;
  make_sine_data(150, 0.05, rng, x, y);
  double previous = 1e18;
  for (double gamma : {0.01, 1.0, 100.0, 10000.0}) {
    LsSvmOptions options;
    options.gamma = gamma;
    options.kernel.gamma = 2.0;
    LsSvm model(options);
    model.fit(x, y);
    const double train_mae = mean_absolute_error(model.predict(x), y);
    // Allow a sliver of numerical slack: at large gamma consecutive fits
    // are near-identical and solver round-off can tie-break either way.
    EXPECT_LE(train_mae, previous * 1.01 + 1e-6);
    previous = train_mae;
  }
}

TEST(LsSvm, InvalidGammaRejected) {
  LsSvmOptions bad;
  bad.gamma = 0.0;
  EXPECT_THROW(LsSvm{bad}, std::invalid_argument);
}

TEST(LsSvm, SaveLoadPreservesPredictions) {
  util::Rng rng(8);
  linalg::Matrix x;
  std::vector<double> y;
  make_sine_data(120, 0.02, rng, x, y);
  LsSvmOptions options;
  options.gamma = 100.0;
  options.kernel.gamma = 1.0;
  LsSvm model(options);
  model.fit(x, y);
  std::stringstream buffer;
  save_model(model, buffer);
  const auto loaded = load_model(buffer);
  EXPECT_EQ(loaded->name(), "svm2");
  for (double probe : {-1.0, 0.4, 1.9}) {
    const std::vector<double> row{probe};
    EXPECT_NEAR(loaded->predict_row(row), model.predict_row(row), 1e-9);
  }
}

TEST(LsSvm, RejectsPolynomialKernelsThatNeedNotBePositiveSemidefinite) {
  LsSvmOptions negative_coef0;
  negative_coef0.kernel = {.type = KernelType::kPolynomial, .gamma = 1.0,
                           .coef0 = -0.5, .degree = 2};
  EXPECT_THROW(LsSvm{negative_coef0}, std::invalid_argument);
  LsSvmOptions zero_degree = negative_coef0;
  zero_degree.kernel.coef0 = 1.0;
  zero_degree.kernel.degree = 0;
  EXPECT_THROW(LsSvm{zero_degree}, std::invalid_argument);
  LsSvmOptions smallest_valid = negative_coef0;
  smallest_valid.kernel.coef0 = 0.0;
  smallest_valid.kernel.degree = 1;
  EXPECT_NO_THROW(LsSvm{smallest_valid});
  util::Config params;
  params.set("svm2.kernel", "poly");
  params.set("svm2.coef0", "-1");
  EXPECT_THROW(make_model("svm2", params), std::invalid_argument);
}

/// (b, α) from the bordered system [0 1ᵀ; 1 K + I/γ][b; α] = [0; y],
/// solved directly by LU on the standardized data.
struct BorderedSolution {
  double bias = 0.0;
  std::vector<double> alphas;
};

BorderedSolution bordered_lu_fit(const LsSvmOptions& options,
                                 const linalg::Matrix& x,
                                 const std::vector<double>& y) {
  const linalg::Matrix xs = data::Standardizer::fit(x).transform(x);
  const std::vector<double> ys = data::TargetScaler::fit(y).transform(y);
  KernelParams kernel = options.kernel;
  kernel.gamma = resolve_gamma(kernel, xs.cols());
  const linalg::Matrix k = kernel_matrix(kernel, xs);
  const std::size_t n = xs.rows();
  linalg::Matrix system(n + 1, n + 1);
  std::vector<double> rhs(n + 1, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    system(0, i + 1) = 1.0;
    system(i + 1, 0) = 1.0;
    for (std::size_t j = 0; j < n; ++j) system(i + 1, j + 1) = k(i, j);
    system(i + 1, i + 1) += 1.0 / options.gamma;
    rhs[i + 1] = ys[i];
  }
  const std::vector<double> solution = linalg::reference::solve(system, rhs);
  return {solution[0], {solution.begin() + 1, solution.end()}};
}

/// The Schur-complement Cholesky solve must reproduce the bordered LU
/// solution within 1e-9 relative: bias and every α relative to the
/// solution's largest magnitude (with a linear kernel on standardized
/// data the bias is zero up to round-off), predictions each to its own.
class LsSvmMatchesBorderedLu : public ::testing::TestWithParam<KernelType> {
};

TEST_P(LsSvmMatchesBorderedLu, BiasAlphasAndPredictions) {
  util::Rng rng(41);
  // Large enough that the factor's first trailing updates run on the pool.
  const std::size_t n = 400;
  linalg::Matrix x(n, 4);
  std::vector<double> y(n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t c = 0; c < 4; ++c) x(i, c) = rng.uniform(-2.0, 2.0);
    y[i] = 3.0 + std::sin(x(i, 0)) + 0.3 * x(i, 1) * x(i, 1) -
           0.5 * x(i, 2) + rng.normal(0.0, 0.05);
  }
  LsSvmOptions options;
  options.gamma = 10.0;
  options.kernel = {.type = GetParam(), .gamma = 0.25, .coef0 = 1.0,
                    .degree = 3};
  LsSvm model(options);
  model.fit(x, y);
  const BorderedSolution expected = bordered_lu_fit(options, x, y);

  constexpr double kRel = 1e-9;
  double scale = std::abs(expected.bias);
  for (double alpha : expected.alphas) scale = std::max(scale, std::abs(alpha));
  EXPECT_NEAR(model.bias(), expected.bias, kRel * scale);
  ASSERT_EQ(model.alphas().size(), n);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_NEAR(model.alphas()[i], expected.alphas[i], kRel * scale)
        << "alpha " << i;
  }
  // Predictions of the reference (b, α), through the fitted model's own
  // scalers and kernel.
  linalg::Matrix probes(50, 4);
  for (std::size_t r = 0; r < probes.rows(); ++r) {
    for (std::size_t c = 0; c < 4; ++c) probes(r, c) = rng.uniform(-2.0, 2.0);
  }
  const std::vector<double> predicted = model.predict(probes);
  const auto scaler = data::Standardizer::fit(x);
  const auto target = data::TargetScaler::fit(y);
  KernelParams kernel = options.kernel;
  kernel.gamma = resolve_gamma(kernel, x.cols());
  const linalg::Matrix k =
      kernel_matrix(kernel, scaler.transform(probes), scaler.transform(x));
  for (std::size_t r = 0; r < probes.rows(); ++r) {
    double value = expected.bias;
    for (std::size_t i = 0; i < n; ++i) {
      value += expected.alphas[i] * k(r, i);
    }
    const double reference = target.inverse(value);
    EXPECT_NEAR(predicted[r], reference, kRel * std::abs(reference))
        << "probe " << r;
  }
}

INSTANTIATE_TEST_SUITE_P(Kernels, LsSvmMatchesBorderedLu,
                         ::testing::Values(KernelType::kRbf,
                                           KernelType::kLinear,
                                           KernelType::kPolynomial));

/// Both SVM variants must beat the mean predictor on non-linear data —
/// the basic sanity the paper's Table II ranking presumes.
class SvmFamilyBeatsMean : public ::testing::TestWithParam<std::string> {};

TEST_P(SvmFamilyBeatsMean, RaeBelowOne) {
  util::Rng rng(9);
  linalg::Matrix x;
  std::vector<double> y;
  make_sine_data(200, 0.05, rng, x, y);
  linalg::Matrix x_val;
  std::vector<double> y_val;
  make_sine_data(100, 0.05, rng, x_val, y_val);
  std::unique_ptr<Regressor> model;
  if (GetParam() == "svm") {
    model = std::make_unique<KernelSvr>(strong_svr());
  } else {
    LsSvmOptions options;
    options.gamma = 1000.0;
    options.kernel.gamma = 2.0;
    model = std::make_unique<LsSvm>(options);
  }
  model->fit(x, y);
  EXPECT_LT(relative_absolute_error(model->predict(x_val), y_val), 0.5);
}

INSTANTIATE_TEST_SUITE_P(Variants, SvmFamilyBeatsMean,
                         ::testing::Values("svm", "svm2"));

}  // namespace
}  // namespace f2pm::ml
