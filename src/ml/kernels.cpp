#include "ml/kernels.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "linalg/blas.hpp"
#include "parallel/thread_pool.hpp"
#include "util/string_util.hpp"

namespace f2pm::ml {

std::string KernelParams::to_string() const {
  switch (type) {
    case KernelType::kLinear:
      return "linear";
    case KernelType::kRbf:
      return "rbf(gamma=" + util::format_double(gamma, 6) + ")";
    case KernelType::kPolynomial:
      return "poly(degree=" + std::to_string(degree) +
             ",gamma=" + util::format_double(gamma, 6) +
             ",coef0=" + util::format_double(coef0, 6) + ")";
  }
  return "unknown";
}

void KernelParams::save(util::BinaryWriter& writer) const {
  writer.write_u64(static_cast<std::uint64_t>(type));
  writer.write_double(gamma);
  writer.write_double(coef0);
  writer.write_i64(degree);
}

KernelParams KernelParams::load(util::BinaryReader& reader) {
  KernelParams params;
  const std::uint64_t type = reader.read_u64();
  if (type > static_cast<std::uint64_t>(KernelType::kPolynomial)) {
    throw std::runtime_error("KernelParams::load: unknown kernel type");
  }
  params.type = static_cast<KernelType>(type);
  params.gamma = reader.read_double();
  params.coef0 = reader.read_double();
  params.degree = static_cast<int>(reader.read_i64());
  return params;
}

double resolve_gamma(const KernelParams& params, std::size_t num_features) {
  if (params.gamma > 0.0) return params.gamma;
  return num_features == 0 ? 1.0 : 1.0 / static_cast<double>(num_features);
}

double kernel_value(const KernelParams& params, std::span<const double> a,
                    std::span<const double> b) {
  if (a.size() != b.size()) {
    throw std::invalid_argument("kernel_value: size mismatch");
  }
  switch (params.type) {
    case KernelType::kLinear:
      return linalg::dot(a, b);
    case KernelType::kRbf: {
      double dist_sq = 0.0;
      for (std::size_t i = 0; i < a.size(); ++i) {
        const double d = a[i] - b[i];
        dist_sq += d * d;
      }
      return std::exp(-params.gamma * dist_sq);
    }
    case KernelType::kPolynomial:
      return std::pow(params.gamma * linalg::dot(a, b) + params.coef0,
                      params.degree);
  }
  throw std::logic_error("kernel_value: unreachable");
}

linalg::Matrix kernel_matrix(const KernelParams& params,
                             const linalg::Matrix& x) {
  const std::size_t n = x.rows();
  linalg::Matrix k(n, n);
  parallel::parallel_for_chunked(
      parallel::ThreadPool::global(), 0, n,
      [&](std::size_t lo, std::size_t hi) {
        for (std::size_t i = lo; i < hi; ++i) {
          for (std::size_t j = 0; j <= i; ++j) {
            k(i, j) = kernel_value(params, x.row(i), x.row(j));
          }
        }
      });
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) k(i, j) = k(j, i);
  }
  return k;
}

std::vector<double> row_squared_norms(const linalg::Matrix& x) {
  std::vector<double> norms(x.rows());
  for (std::size_t i = 0; i < x.rows(); ++i) {
    const auto row = x.row(i);
    norms[i] = linalg::dot(row, row);
  }
  return norms;
}

void kernel_row(const KernelParams& params, const linalg::Matrix& xt,
                std::size_t i, std::span<const double> row_norms,
                std::span<double> out) {
  const std::size_t n = xt.cols();
  if (i >= n) {
    throw std::invalid_argument("kernel_row: row index out of range");
  }
  if (out.size() > n) {
    throw std::invalid_argument("kernel_row: output span longer than a row");
  }
  if (params.type == KernelType::kRbf && row_norms.size() != n) {
    throw std::invalid_argument("kernel_row: row_norms size mismatch");
  }
  std::fill(out.begin(), out.end(), 0.0);
  for (std::size_t k = 0; k < xt.rows(); ++k) {
    linalg::axpy(xt(k, i), xt.row(k).first(out.size()), out);
  }
  switch (params.type) {
    case KernelType::kLinear:
      break;
    case KernelType::kRbf: {
      // Squared-distance pass (vectorizable), then one exp pass. The
      // max(0, .) guards against tiny negative round-off; the diagonal
      // cancels exactly, so K(i, i) stays 1.
      const double ni = row_norms[i];
      for (std::size_t j = 0; j < out.size(); ++j) {
        out[j] =
            -params.gamma * std::max(0.0, ni + row_norms[j] - 2.0 * out[j]);
      }
      for (double& value : out) value = std::exp(value);
      break;
    }
    case KernelType::kPolynomial:
      for (double& value : out) {
        value = std::pow(params.gamma * value + params.coef0, params.degree);
      }
      break;
  }
}

linalg::Matrix kernel_matrix(const KernelParams& params,
                             const linalg::Matrix& a,
                             const linalg::Matrix& b) {
  linalg::Matrix k(a.rows(), b.rows());
  parallel::parallel_for_chunked(
      parallel::ThreadPool::global(), 0, a.rows(),
      [&](std::size_t lo, std::size_t hi) {
        for (std::size_t i = lo; i < hi; ++i) {
          for (std::size_t j = 0; j < b.rows(); ++j) {
            k(i, j) = kernel_value(params, a.row(i), b.row(j));
          }
        }
      });
  return k;
}

}  // namespace f2pm::ml
