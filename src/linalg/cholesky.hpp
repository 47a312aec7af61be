// Cholesky factorization and solves for symmetric positive-definite
// systems: normal equations (Linear Regression), ridge-regularized Gram
// matrices, and the LS-SVM's K + I/γ.
#pragma once

#include <optional>
#include <span>
#include <vector>

#include "linalg/matrix.hpp"

namespace f2pm::linalg {

/// Lower-triangular Cholesky factor L with A = L L^T.
struct CholeskyFactor {
  Matrix l;

  /// Solves A x = b given the factor (forward + back substitution).
  [[nodiscard]] std::vector<double> solve(std::span<const double> b) const;

  /// log(det(A)) = 2 * sum(log(L_ii)) — used by model-selection criteria.
  [[nodiscard]] double log_det() const;
};

/// Factorizes a symmetric positive-definite matrix in its own buffer: only
/// the lower triangle of `a` is read, and the factor comes back in the same
/// storage with the strict upper triangle zeroed (move a matrix in to avoid
/// the copy). Blocked and right-looking; large trailing updates run on the
/// global thread pool. Each L(i, j) starts from A(i, j) and subtracts
/// L(i, k) L(j, k) one product at a time in ascending k, so the factor is
/// bit-identical to the textbook column-by-column loop at every size and
/// worker count. Returns std::nullopt if a pivot is not positive and finite
/// (the matrix is not numerically positive definite, or holds a NaN).
std::optional<CholeskyFactor> cholesky(Matrix a);

/// Solves A x = b for SPD A, adding `jitter` * I retries (up to a few
/// orders of magnitude) if A is semi-definite. Throws std::runtime_error if
/// the system cannot be stabilized.
std::vector<double> solve_spd(const Matrix& a, std::span<const double> b,
                              double jitter = 0.0);

}  // namespace f2pm::linalg
