#include "ml/lssvm.hpp"

#include <stdexcept>

#include "linalg/blas.hpp"
#include "linalg/cholesky.hpp"
#include "parallel/thread_pool.hpp"

namespace f2pm::ml {

LsSvm::LsSvm(LsSvmOptions options) : options_(options) {
  if (options_.gamma <= 0.0) {
    throw std::invalid_argument("LsSvm: gamma must be > 0");
  }
  if (options_.kernel.type == KernelType::kPolynomial &&
      (options_.kernel.coef0 < 0.0 || options_.kernel.degree < 1)) {
    throw std::invalid_argument(
        "LsSvm: a polynomial kernel needs coef0 >= 0 and degree >= 1");
  }
}

void LsSvm::fit(const linalg::Matrix& x_raw, std::span<const double> y_raw) {
  check_fit_args(x_raw, y_raw);
  num_inputs_ = x_raw.cols();
  input_scaler_ = data::Standardizer::fit(x_raw);
  target_scaler_ = data::TargetScaler::fit(
      std::vector<double>(y_raw.begin(), y_raw.end()));
  support_ = input_scaler_.transform(x_raw);
  const std::vector<double> y = target_scaler_.transform(
      std::vector<double>(y_raw.begin(), y_raw.end()));

  fitted_kernel_ = options_.kernel;
  fitted_kernel_.gamma = resolve_gamma(options_.kernel, support_.cols());

  const std::size_t n = support_.rows();
  // Lower triangle of H = K + I/γ, one kernel-row prefix per row.
  const linalg::Matrix xt = support_.transposed();
  const std::vector<double> norms = row_squared_norms(support_);
  linalg::Matrix h(n, n);
  parallel::parallel_for_chunked(
      parallel::ThreadPool::global(), 0, n,
      [&](std::size_t lo, std::size_t hi) {
        for (std::size_t i = lo; i < hi; ++i) {
          const auto row = h.row(i).first(i + 1);
          kernel_row(fitted_kernel_, xt, i, norms, row);
          row[i] += 1.0 / options_.gamma;
        }
      });
  const auto factor = linalg::cholesky(std::move(h));
  if (!factor) {
    throw std::runtime_error("LsSvm: K + I/gamma is not positive definite");
  }
  const std::vector<double> eta = factor->solve(std::vector<double>(n, 1.0));
  const std::vector<double> nu = factor->solve(y);
  double sum_eta = 0.0;
  double sum_nu = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    sum_eta += eta[i];
    sum_nu += nu[i];
  }
  bias_ = sum_nu / sum_eta;
  alphas_.resize(n);
  for (std::size_t i = 0; i < n; ++i) alphas_[i] = nu[i] - bias_ * eta[i];
  fitted_ = true;
}

double LsSvm::predict_row(std::span<const double> row) const {
  check_predict_args(row);
  std::vector<double> scaled(row.size());
  const auto& means = input_scaler_.means();
  const auto& scales = input_scaler_.scales();
  for (std::size_t c = 0; c < row.size(); ++c) {
    scaled[c] = (row[c] - means[c]) / scales[c];
  }
  double value = bias_;
  for (std::size_t s = 0; s < support_.rows(); ++s) {
    value +=
        alphas_[s] * kernel_value(fitted_kernel_, support_.row(s), scaled);
  }
  return target_scaler_.inverse(value);
}

std::vector<double> LsSvm::predict(const linalg::Matrix& x) const {
  if (!fitted_) throw std::logic_error("Regressor: predict before fit");
  if (x.cols() != num_inputs_) {
    throw std::invalid_argument("Regressor: input width mismatch");
  }
  const linalg::Matrix scaled = input_scaler_.transform(x);
  const linalg::Matrix k = kernel_matrix(fitted_kernel_, scaled, support_);
  std::vector<double> out = linalg::gemv(k, alphas_);
  for (double& value : out) value = target_scaler_.inverse(value + bias_);
  return out;
}

void LsSvm::save(util::BinaryWriter& writer) const {
  if (!fitted_) throw std::logic_error("LsSvm::save before fit");
  writer.write_u64(num_inputs_);
  fitted_kernel_.save(writer);
  writer.write_double(options_.gamma);
  writer.write_double(bias_);
  writer.write_doubles(alphas_);
  writer.write_u64(support_.rows());
  for (std::size_t r = 0; r < support_.rows(); ++r) {
    const auto row = support_.row(r);
    writer.write_doubles(std::vector<double>(row.begin(), row.end()));
  }
  writer.write_doubles(input_scaler_.means());
  writer.write_doubles(input_scaler_.scales());
  writer.write_double(target_scaler_.mean);
  writer.write_double(target_scaler_.scale);
}

std::unique_ptr<LsSvm> LsSvm::load(util::BinaryReader& reader) {
  auto model = std::make_unique<LsSvm>();
  model->num_inputs_ = reader.read_u64();
  model->fitted_kernel_ = KernelParams::load(reader);
  model->options_.gamma = reader.read_double();
  model->bias_ = reader.read_double();
  model->alphas_ = reader.read_doubles();
  const std::uint64_t sv_count = reader.read_u64();
  if (sv_count != model->alphas_.size()) {
    throw std::runtime_error("LsSvm::load: inconsistent archive");
  }
  model->support_ = linalg::Matrix(sv_count, model->num_inputs_);
  for (std::uint64_t r = 0; r < sv_count; ++r) {
    const auto row = reader.read_doubles();
    if (row.size() != model->num_inputs_) {
      throw std::runtime_error("LsSvm::load: bad support vector width");
    }
    std::copy(row.begin(), row.end(), model->support_.row(r).begin());
  }
  const auto means = reader.read_doubles();
  const auto scales = reader.read_doubles();
  if (means.size() != model->num_inputs_ ||
      scales.size() != model->num_inputs_) {
    throw std::runtime_error("LsSvm::load: bad scaler data");
  }
  model->input_scaler_ = data::Standardizer::from_moments(means, scales);
  model->target_scaler_.mean = reader.read_double();
  model->target_scaler_.scale = reader.read_double();
  model->fitted_ = true;
  return model;
}

}  // namespace f2pm::ml
