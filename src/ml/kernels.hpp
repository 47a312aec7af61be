// Kernel functions shared by the SVM-family methods (SVR, LS-SVM): the
// non-linear map φ of the paper's Eq. (4) enters only through these inner
// products. Kernel-matrix assembly is parallel over row blocks.
#pragma once

#include <span>
#include <string>

#include "linalg/matrix.hpp"
#include "util/serialization.hpp"

namespace f2pm::ml {

enum class KernelType {
  kLinear,      ///< k(a, b) = a·b
  kRbf,         ///< k(a, b) = exp(-gamma ||a - b||²)
  kPolynomial,  ///< k(a, b) = (gamma a·b + coef0)^degree
};

/// Kernel selection + hyperparameters.
struct KernelParams {
  KernelType type = KernelType::kRbf;
  /// RBF width / polynomial scale. <= 0 means "auto": 1 / num_features,
  /// resolved at fit time.
  double gamma = 0.0;
  double coef0 = 1.0;
  int degree = 3;

  [[nodiscard]] std::string to_string() const;
  void save(util::BinaryWriter& writer) const;
  static KernelParams load(util::BinaryReader& reader);
};

/// k(a, b); spans must be equal length.
double kernel_value(const KernelParams& params, std::span<const double> a,
                    std::span<const double> b);

/// Symmetric n x n kernel matrix of the rows of x. Parallel over rows.
linalg::Matrix kernel_matrix(const KernelParams& params,
                             const linalg::Matrix& x);

/// Cross-kernel matrix: K(i, j) = k(a_i, b_j), size a.rows() x b.rows().
linalg::Matrix kernel_matrix(const KernelParams& params,
                             const linalg::Matrix& a,
                             const linalg::Matrix& b);

/// Per-row squared Euclidean norms ||x_i||², precomputed once so RBF rows
/// reduce to a dot-product pass plus a separate vectorizable exp pass
/// (||a - b||² = ||a||² + ||b||² - 2 a·b).
std::vector<double> row_squared_norms(const linalg::Matrix& x);

/// Writes K(i, j) for j = 0 .. out.size() - 1 into `out`, so a caller can
/// ask for a whole row (out.size() == n) or only its lower-triangle prefix.
/// `xt` is the transposed data matrix (features x n rows), and `row_norms`
/// must be row_squared_norms of the untransposed one; it is only read by
/// the RBF kernel. The dot products run as one axpy per feature over the
/// rows of `xt`, so each K(i, j) adds x(i, k) x(j, k) to 0.0 in
/// ascending k, bit-identical to linalg::dot, with the inner loop over j.
/// Specialised per kernel type — the transcendental is hoisted out of the
/// distance loop. Serial: callers that need many rows parallelize across
/// them. This is the on-demand primitive under KernelRowCache.
void kernel_row(const KernelParams& params, const linalg::Matrix& xt,
                std::size_t i, std::span<const double> row_norms,
                std::span<double> out);

/// Resolves gamma <= 0 to the 1/num_features default.
double resolve_gamma(const KernelParams& params, std::size_t num_features);

}  // namespace f2pm::ml
