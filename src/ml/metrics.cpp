#include "ml/metrics.hpp"

#include <cmath>
#include <stdexcept>
#include <utility>

#include "obs/metrics.hpp"
#include "util/timer.hpp"

namespace f2pm::ml {

namespace {

void check_sizes(std::span<const double> predicted,
                 std::span<const double> actual) {
  if (predicted.size() != actual.size()) {
    throw std::invalid_argument("metrics: predicted/actual size mismatch");
  }
  if (predicted.empty()) {
    throw std::invalid_argument("metrics: empty validation set");
  }
}

}  // namespace

double mean_absolute_error(std::span<const double> predicted,
                           std::span<const double> actual) {
  check_sizes(predicted, actual);
  double acc = 0.0;
  for (std::size_t i = 0; i < predicted.size(); ++i) {
    acc += std::abs(predicted[i] - actual[i]);
  }
  return acc / static_cast<double>(predicted.size());
}

double relative_absolute_error(std::span<const double> predicted,
                               std::span<const double> actual) {
  check_sizes(predicted, actual);
  // Eq. (7): the baseline predictor is the mean of y — the error is
  // normalized by Σ|y_i − ȳ|. (Using mean(|y|) is identical on the
  // paper's non-negative RTTF targets but wrong for signed targets.)
  double mean_y = 0.0;
  for (double v : actual) mean_y += v;
  mean_y /= static_cast<double>(actual.size());
  double err = 0.0;
  double baseline = 0.0;
  for (std::size_t i = 0; i < predicted.size(); ++i) {
    err += std::abs(predicted[i] - actual[i]);
    baseline += std::abs(actual[i] - mean_y);
  }
  if (baseline == 0.0) return err == 0.0 ? 0.0 : HUGE_VAL;
  return err / baseline;
}

double max_absolute_error(std::span<const double> predicted,
                          std::span<const double> actual) {
  check_sizes(predicted, actual);
  double max_err = 0.0;
  for (std::size_t i = 0; i < predicted.size(); ++i) {
    max_err = std::max(max_err, std::abs(predicted[i] - actual[i]));
  }
  return max_err;
}

double soft_mean_absolute_error(std::span<const double> predicted,
                                std::span<const double> actual,
                                double threshold) {
  check_sizes(predicted, actual);
  if (threshold < 0.0) {
    throw std::invalid_argument("soft_mean_absolute_error: threshold < 0");
  }
  double acc = 0.0;
  for (std::size_t i = 0; i < predicted.size(); ++i) {
    const double err = std::abs(predicted[i] - actual[i]);
    if (err >= threshold) acc += err;
  }
  return acc / static_cast<double>(predicted.size());
}

double root_mean_squared_error(std::span<const double> predicted,
                               std::span<const double> actual) {
  check_sizes(predicted, actual);
  double acc = 0.0;
  for (std::size_t i = 0; i < predicted.size(); ++i) {
    const double err = predicted[i] - actual[i];
    acc += err * err;
  }
  return std::sqrt(acc / static_cast<double>(predicted.size()));
}

double r_squared(std::span<const double> predicted,
                 std::span<const double> actual) {
  check_sizes(predicted, actual);
  double mean_y = 0.0;
  for (double v : actual) mean_y += v;
  mean_y /= static_cast<double>(actual.size());
  double ss_res = 0.0;
  double ss_tot = 0.0;
  for (std::size_t i = 0; i < predicted.size(); ++i) {
    ss_res += (actual[i] - predicted[i]) * (actual[i] - predicted[i]);
    ss_tot += (actual[i] - mean_y) * (actual[i] - mean_y);
  }
  return ss_tot == 0.0 ? 0.0 : 1.0 - ss_res / ss_tot;
}

EvaluationReport evaluate_model(Regressor& model,
                                const linalg::Matrix& x_train,
                                std::span<const double> y_train,
                                const linalg::Matrix& x_val,
                                std::span<const double> y_val,
                                double soft_threshold,
                                std::vector<double>* predicted_out) {
  EvaluationReport report;
  report.model_name = model.name();
  report.num_features = x_train.cols();
  report.train_rows = x_train.rows();
  report.validation_rows = x_val.rows();
  report.soft_mae_threshold = soft_threshold;

  report.training_seconds = util::timed([&] { model.fit(x_train, y_train); });

  auto [predicted, validation_seconds] = util::timed(
      [&] { return model.predict(x_val); });
  // Validation time includes metric computation, as in the paper's Table IV.
  util::WallTimer metric_timer;
  report.mae = mean_absolute_error(predicted, y_val);
  report.rae = relative_absolute_error(predicted, y_val);
  report.max_ae = max_absolute_error(predicted, y_val);
  report.soft_mae = soft_mean_absolute_error(predicted, y_val, soft_threshold);
  report.rmse = root_mean_squared_error(predicted, y_val);
  report.r2 = r_squared(predicted, y_val);
  report.validation_seconds =
      validation_seconds + metric_timer.elapsed_seconds();

  // The Table III/IV timings double as per-model fit/predict latency
  // series in the shared obs registry, so a live service and the benches
  // read the same measurement substrate.
  auto& registry = obs::Registry::global();
  const std::string label = "model=\"" + report.model_name + "\"";
  registry
      .histogram("f2pm_ml_fit_seconds",
                 "Model training wall-clock time (Table III source).",
                 obs::Histogram::default_latency_bounds(), label)
      .observe(report.training_seconds);
  registry
      .histogram("f2pm_ml_validate_seconds",
                 "Model validation wall-clock time, prediction plus "
                 "metrics (Table IV source).",
                 obs::Histogram::default_latency_bounds(), label)
      .observe(report.validation_seconds);
  if (predicted_out != nullptr) *predicted_out = std::move(predicted);
  return report;
}

}  // namespace f2pm::ml
