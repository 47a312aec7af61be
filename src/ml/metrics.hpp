// Model quality metrics (paper §III-D): MAE, RAE, Maximum Absolute Error,
// the Soft-MAE that tolerates errors below a user threshold, plus RMSE/R²
// as additional diagnostics, and the timed evaluation harness that fills
// the paper's Tables II-IV.
#pragma once

#include <span>
#include <string>
#include <vector>

#include "linalg/matrix.hpp"
#include "ml/model.hpp"

namespace f2pm::ml {

/// Mean Absolute Error, Eq. (5): (1/n) Σ |f_i - y_i|.
double mean_absolute_error(std::span<const double> predicted,
                           std::span<const double> actual);

/// Relative Absolute Error, Eq. (6): Σ|f_i - y_i| / Σ|Ȳ - y_i|, where Ȳ is
/// the mean of |y| (Eq. 7) — the error of the trivial mean predictor.
double relative_absolute_error(std::span<const double> predicted,
                               std::span<const double> actual);

/// Maximum Absolute Error: max_i |f_i - y_i|.
double max_absolute_error(std::span<const double> predicted,
                          std::span<const double> actual);

/// Soft-MAE: like MAE but errors below `threshold` count as zero. The
/// threshold encodes the lead time of a proactive correcting action: an
/// error smaller than the rejuvenation lead time is harmless.
double soft_mean_absolute_error(std::span<const double> predicted,
                                std::span<const double> actual,
                                double threshold);

/// Root Mean Squared Error.
double root_mean_squared_error(std::span<const double> predicted,
                               std::span<const double> actual);

/// Coefficient of determination; 0 when the target is constant.
double r_squared(std::span<const double> predicted,
                 std::span<const double> actual);

/// The full per-model scorecard F2PM hands to the user.
struct EvaluationReport {
  std::string model_name;
  std::size_t num_features = 0;
  std::size_t train_rows = 0;
  std::size_t validation_rows = 0;

  double mae = 0.0;
  double rae = 0.0;
  double max_ae = 0.0;
  double soft_mae = 0.0;
  double soft_mae_threshold = 0.0;
  double rmse = 0.0;
  double r2 = 0.0;

  double training_seconds = 0.0;
  double validation_seconds = 0.0;
};

/// Trains `model` on (x_train, y_train), validates on (x_val, y_val), and
/// measures both phases. `soft_threshold` is the S-MAE tolerance in the
/// target's units (the paper uses 10% of the maximum RTTF). If
/// `predicted_out` is not null, it receives the validation predictions.
EvaluationReport evaluate_model(Regressor& model, const linalg::Matrix& x_train,
                                std::span<const double> y_train,
                                const linalg::Matrix& x_val,
                                std::span<const double> y_val,
                                double soft_threshold,
                                std::vector<double>* predicted_out = nullptr);

}  // namespace f2pm::ml
