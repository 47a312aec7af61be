#include "ml/lasso.hpp"

#include <algorithm>
#include <cmath>
#include <span>
#include <stdexcept>

#include "linalg/blas.hpp"
#include "linalg/stats.hpp"

namespace f2pm::ml {

namespace {

double soft_threshold(double value, double threshold) {
  if (value > threshold) return value - threshold;
  if (value < -threshold) return value + threshold;
  return 0.0;
}

}  // namespace

Lasso::Lasso(LassoOptions options) : options_(options) {
  if (options_.lambda < 0.0) {
    throw std::invalid_argument("Lasso: lambda must be >= 0");
  }
  if (options_.max_iterations == 0) {
    throw std::invalid_argument("Lasso: max_iterations must be > 0");
  }
}

void Lasso::warm_start(std::vector<double> coefficients) {
  warm_ = std::move(coefficients);
}

void Lasso::fit(const linalg::Matrix& x, std::span<const double> y) {
  check_fit_args(x, y);
  const std::size_t n = x.rows();
  const std::size_t p = x.cols();

  // Center columns and targets so the intercept is unpenalized.
  std::vector<double> x_mean(p, 0.0);
  for (std::size_t r = 0; r < n; ++r) {
    const auto row = x.row(r);
    for (std::size_t c = 0; c < p; ++c) x_mean[c] += row[c];
  }
  for (double& m : x_mean) m /= static_cast<double>(n);
  const double y_mean = linalg::mean(y);

  // Covariance mode (Friedman, Hastie & Tibshirani 2010): the sweeps only
  // ever need the centered Gram G = XcᵀXc and c = Xcᵀyc, formed once here
  // so that a coordinate update costs O(p) instead of two O(n) passes.
  // Each row is centered before it is multiplied: raw features reach
  // ~1e6 KiB, where XᵀX - nμμᵀ would cancel catastrophically. Every entry
  // is summed in row order, so G is exactly symmetric and G_jj is
  // bit-identical to Σ_r (x_rj - μ_j)².
  std::vector<double> gram(p * p, 0.0);
  std::vector<double> xty(p, 0.0);
  std::vector<double> centered(p);
  const auto gram_row = [&](std::size_t j) {
    return std::span<double>(gram.data() + j * p, p);
  };
  for (std::size_t r = 0; r < n; ++r) {
    const auto row = x.row(r);
    for (std::size_t c = 0; c < p; ++c) centered[c] = row[c] - x_mean[c];
    const double yc = y[r] - y_mean;
    for (std::size_t j = 0; j < p; ++j) {
      linalg::axpy(centered[j], centered, gram_row(j));
      xty[j] += centered[j] * yc;
    }
  }

  std::vector<double> beta(p, 0.0);
  if (warm_.size() == p) beta = warm_;

  // q = Xcᵀr for the residual r = yc - Xc·β, kept current as β moves.
  std::vector<double> q = xty;
  for (std::size_t c = 0; c < p; ++c) {
    if (beta[c] != 0.0) linalg::axpy(-beta[c], gram_row(c), q);
  }

  // Minimizing ||r||² + λ||β||₁ coordinate-wise gives
  // β_j = S(ρ_j, λ/2) / z_j with ρ_j = x_jᵀ r + z_j β_j and z_j = G_jj.
  // Note the objective uses the TOTAL squared error, not Eq. (2)'s mean:
  // the two differ only by rescaling λ by n, and the total-error form is
  // what makes the paper's 10^0..10^9 λ grid produce its Fig. 4 curve on
  // system features that live on KiB/percent scales.
  const double threshold = options_.lambda / 2.0;
  sweeps_ = 0;
  converged_ = false;
  while (sweeps_ < options_.max_iterations && !converged_) {
    ++sweeps_;
    double max_step = 0.0;
    for (std::size_t j = 0; j < p; ++j) {
      const double z = gram[j * p + j];
      if (z == 0.0) {
        beta[j] = 0.0;  // constant column: never selected
        continue;
      }
      const double old = beta[j];
      const double rho = q[j] + z * old;
      const double updated = soft_threshold(rho, threshold) / z;
      if (updated != old) {
        linalg::axpy(old - updated, gram_row(j), q);
        beta[j] = updated;
        // Scale the step by the column magnitude so convergence is
        // comparable across wildly different feature scales.
        max_step = std::max(
            max_step, std::abs(updated - old) *
                          std::sqrt(z / static_cast<double>(n)));
      }
    }
    converged_ = max_step < options_.tolerance;
  }

  for (double& b : beta) {
    if (std::abs(b) < options_.zero_threshold) b = 0.0;
  }
  coefficients_ = std::move(beta);
  intercept_ = y_mean;
  for (std::size_t c = 0; c < p; ++c) {
    intercept_ -= coefficients_[c] * x_mean[c];
  }
  warm_.clear();
  fitted_ = true;
}

double Lasso::predict_row(std::span<const double> row) const {
  check_predict_args(row);
  return linalg::dot(row, coefficients_) + intercept_;
}

std::vector<std::size_t> Lasso::selected_features() const {
  std::vector<std::size_t> selected;
  for (std::size_t i = 0; i < coefficients_.size(); ++i) {
    if (coefficients_[i] != 0.0) selected.push_back(i);
  }
  return selected;
}

void Lasso::save(util::BinaryWriter& writer) const {
  if (!fitted_) throw std::logic_error("Lasso::save before fit");
  writer.write_double(options_.lambda);
  writer.write_doubles(coefficients_);
  writer.write_double(intercept_);
}

std::unique_ptr<Lasso> Lasso::load(util::BinaryReader& reader) {
  LassoOptions options;
  options.lambda = reader.read_double();
  auto model = std::make_unique<Lasso>(options);
  model->coefficients_ = reader.read_doubles();
  model->intercept_ = reader.read_double();
  model->fitted_ = true;
  return model;
}

std::vector<LassoPathEntry> lasso_path(const linalg::Matrix& x,
                                       std::span<const double> y,
                                       const std::vector<double>& lambdas,
                                       const LassoOptions& base) {
  // Solve from the largest λ (sparsest, fastest) downwards with warm
  // starts, then restore the caller's ordering.
  std::vector<std::size_t> order(lambdas.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return lambdas[a] > lambdas[b];
  });

  std::vector<LassoPathEntry> entries(lambdas.size());
  std::vector<double> warm;
  for (std::size_t k : order) {
    LassoOptions options = base;
    options.lambda = lambdas[k];
    Lasso model(options);
    if (!warm.empty()) model.warm_start(warm);
    model.fit(x, y);
    warm = model.coefficients();
    entries[k].lambda = lambdas[k];
    entries[k].coefficients = model.coefficients();
    entries[k].intercept = model.intercept();
    entries[k].selected = model.selected_features();
    entries[k].sweeps = model.sweeps();
    entries[k].converged = model.converged();
  }
  return entries;
}

double lasso_lambda_max(const linalg::Matrix& x, std::span<const double> y) {
  const std::size_t n = x.rows();
  const std::size_t p = x.cols();
  if (n == 0 || p == 0) {
    throw std::invalid_argument("lasso_lambda_max: empty input");
  }
  std::vector<double> x_mean(p, 0.0);
  for (std::size_t r = 0; r < n; ++r) {
    const auto row = x.row(r);
    for (std::size_t c = 0; c < p; ++c) x_mean[c] += row[c];
  }
  for (double& m : x_mean) m /= static_cast<double>(n);
  const double y_mean = linalg::mean(y);
  double max_corr = 0.0;
  for (std::size_t c = 0; c < p; ++c) {
    double acc = 0.0;
    for (std::size_t r = 0; r < n; ++r) {
      acc += (x(r, c) - x_mean[c]) * (y[r] - y_mean);
    }
    max_corr = std::max(max_corr, std::abs(acc));
  }
  return 2.0 * max_corr;
}

}  // namespace f2pm::ml
