#include "ml/metrics.hpp"

#include <gtest/gtest.h>

#include "ml/linear_regression.hpp"

#include <cmath>
namespace f2pm::ml {
namespace {

const std::vector<double> kPredicted{10.0, 20.0, 35.0};
const std::vector<double> kActual{12.0, 20.0, 30.0};

TEST(Metrics, MaeMatchesHandComputation) {
  // |10-12| + |20-20| + |35-30| = 7 -> / 3.
  EXPECT_NEAR(mean_absolute_error(kPredicted, kActual), 7.0 / 3.0, 1e-12);
}

TEST(Metrics, MaxAe) {
  EXPECT_DOUBLE_EQ(max_absolute_error(kPredicted, kActual), 5.0);
}

TEST(Metrics, RaeAgainstMeanBaseline) {
  // Ȳ = (12+20+30)/3 = 62/3. Baseline error:
  // |62/3-12| + |62/3-20| + |62/3-30| = 26/3 + 2/3 + 28/3 = 56/3.
  EXPECT_NEAR(relative_absolute_error(kPredicted, kActual), 7.0 / (56.0 / 3.0),
              1e-12);
}

TEST(Metrics, RaeOfMeanPredictorIsOne) {
  const std::vector<double> actual{1.0, 2.0, 3.0};
  const std::vector<double> predicted(3, 2.0);  // mean of y
  EXPECT_NEAR(relative_absolute_error(predicted, actual), 1.0, 1e-12);
}

TEST(Metrics, RaeBaselineUsesSignedMean) {
  // With signed targets, the denominator must be Σ|Ȳ - y_i| with the
  // signed mean Ȳ, not the mean of |y|. Here Ȳ = (-1-1+4)/3 = 2/3, so the
  // baseline error is |2/3+1|*2 + |2/3-4| = 10/3 + 10/3 = 20/3 and the
  // zero predictor scores 6 / (20/3) = 0.9. The old mean-of-|y| baseline
  // (2, giving 3+3+2 = 8) would have reported 0.75.
  const std::vector<double> actual{-1.0, -1.0, 4.0};
  const std::vector<double> predicted{0.0, 0.0, 0.0};
  EXPECT_NEAR(relative_absolute_error(predicted, actual), 0.9, 1e-12);
}

TEST(Metrics, SoftMaeZeroesSmallErrors) {
  // Threshold 3: only |35-30| = 5 survives -> 5/3.
  EXPECT_NEAR(soft_mean_absolute_error(kPredicted, kActual, 3.0), 5.0 / 3.0,
              1e-12);
  // Threshold above every error: zero.
  EXPECT_DOUBLE_EQ(soft_mean_absolute_error(kPredicted, kActual, 10.0), 0.0);
  // Threshold zero: degenerates to the plain MAE.
  EXPECT_NEAR(soft_mean_absolute_error(kPredicted, kActual, 0.0),
              mean_absolute_error(kPredicted, kActual), 1e-12);
}

TEST(Metrics, SoftMaeIsMonotoneInThreshold) {
  double previous = 1e18;
  for (double threshold : {0.0, 1.0, 2.0, 4.0, 6.0}) {
    const double value =
        soft_mean_absolute_error(kPredicted, kActual, threshold);
    EXPECT_LE(value, previous);
    previous = value;
  }
}

TEST(Metrics, NegativeSoftThresholdThrows) {
  EXPECT_THROW(soft_mean_absolute_error(kPredicted, kActual, -1.0),
               std::invalid_argument);
}

TEST(Metrics, RmseAndR2) {
  // errors: -2, 0, 5 -> mse = 29/3.
  EXPECT_NEAR(root_mean_squared_error(kPredicted, kActual),
              std::sqrt(29.0 / 3.0), 1e-12);
  const std::vector<double> perfect = kActual;
  EXPECT_DOUBLE_EQ(r_squared(perfect, kActual), 1.0);
}

TEST(Metrics, SizeMismatchAndEmptyThrow) {
  EXPECT_THROW(mean_absolute_error(kPredicted, std::vector<double>{1.0}),
               std::invalid_argument);
  EXPECT_THROW(mean_absolute_error({}, {}), std::invalid_argument);
}

TEST(EvaluateModel, FillsReportAndTimings) {
  linalg::Matrix x_train(50, 1);
  std::vector<double> y_train(50);
  for (std::size_t i = 0; i < 50; ++i) {
    x_train(i, 0) = static_cast<double>(i);
    y_train[i] = 3.0 * static_cast<double>(i) + 1.0;
  }
  linalg::Matrix x_val(10, 1);
  std::vector<double> y_val(10);
  for (std::size_t i = 0; i < 10; ++i) {
    x_val(i, 0) = static_cast<double>(100 + i);
    y_val[i] = 3.0 * static_cast<double>(100 + i) + 1.0;
  }
  LinearRegression model;
  std::vector<double> predicted;
  const EvaluationReport report =
      evaluate_model(model, x_train, y_train, x_val, y_val, 0.5, &predicted);
  EXPECT_EQ(predicted, model.predict(x_val));
  EXPECT_EQ(report.model_name, "linear");
  EXPECT_EQ(report.train_rows, 50u);
  EXPECT_EQ(report.validation_rows, 10u);
  EXPECT_NEAR(report.mae, 0.0, 1e-6);
  EXPECT_DOUBLE_EQ(report.soft_mae, 0.0);
  EXPECT_GE(report.training_seconds, 0.0);
  EXPECT_GE(report.validation_seconds, 0.0);
  EXPECT_NEAR(report.r2, 1.0, 1e-9);
}

}  // namespace
}  // namespace f2pm::ml
