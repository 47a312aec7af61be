// Reference solvers the library's own are tested against: the unblocked,
// column-by-column Cholesky that linalg::cholesky must match bit for bit,
// and LU with partial pivoting, which solves the LS-SVM's bordered system
// [0 1ᵀ; 1 K + I/γ] directly (it is symmetric but indefinite).
#pragma once

#include <cmath>
#include <optional>
#include <span>
#include <stdexcept>
#include <utility>
#include <vector>

#include "linalg/matrix.hpp"

namespace f2pm::linalg::reference {

/// Textbook dot-form Cholesky: L(i, j) = (A(i, j) - Σ_{k<j} L(i, k) L(j, k))
/// / L(j, j), products subtracted one at a time in ascending k. Reads the
/// lower triangle only; std::nullopt on a pivot that is not positive and
/// finite.
inline std::optional<Matrix> cholesky(const Matrix& a) {
  const std::size_t n = a.rows();
  Matrix l(n, n);
  for (std::size_t j = 0; j < n; ++j) {
    double diag = a(j, j);
    for (std::size_t k = 0; k < j; ++k) diag -= l(j, k) * l(j, k);
    if (!(diag > 0.0) || !std::isfinite(diag)) return std::nullopt;
    const double ljj = std::sqrt(diag);
    l(j, j) = ljj;
    for (std::size_t i = j + 1; i < n; ++i) {
      double sum = a(i, j);
      for (std::size_t k = 0; k < j; ++k) sum -= l(i, k) * l(j, k);
      l(i, j) = sum / ljj;
    }
  }
  return l;
}

/// LU factorization with partial pivoting of a square matrix.
class LuFactor {
 public:
  /// Factorizes `a`. Throws std::invalid_argument for non-square input and
  /// std::runtime_error for (numerically) singular matrices.
  explicit LuFactor(const Matrix& a) : lu_(a), pivots_(a.rows()) {
    if (a.rows() != a.cols()) {
      throw std::invalid_argument("LuFactor: matrix must be square");
    }
    const std::size_t n = lu_.rows();
    for (std::size_t i = 0; i < n; ++i) pivots_[i] = i;
    for (std::size_t k = 0; k < n; ++k) {
      // Partial pivot: largest magnitude in column k at or below the
      // diagonal.
      std::size_t pivot = k;
      double best = std::abs(lu_(k, k));
      for (std::size_t i = k + 1; i < n; ++i) {
        const double mag = std::abs(lu_(i, k));
        if (mag > best) {
          best = mag;
          pivot = i;
        }
      }
      if (best == 0.0 || !std::isfinite(best)) {
        throw std::runtime_error("LuFactor: singular matrix");
      }
      if (pivot != k) {
        auto rk = lu_.row(k);
        auto rp = lu_.row(pivot);
        for (std::size_t j = 0; j < n; ++j) std::swap(rk[j], rp[j]);
        std::swap(pivots_[k], pivots_[pivot]);
        pivot_sign_ = -pivot_sign_;
      }
      const double diag = lu_(k, k);
      for (std::size_t i = k + 1; i < n; ++i) {
        const double factor = lu_(i, k) / diag;
        lu_(i, k) = factor;
        if (factor == 0.0) continue;
        for (std::size_t j = k + 1; j < n; ++j) {
          lu_(i, j) -= factor * lu_(k, j);
        }
      }
    }
  }

  /// Solves A x = b.
  [[nodiscard]] std::vector<double> solve(std::span<const double> b) const {
    const std::size_t n = lu_.rows();
    if (b.size() != n) {
      throw std::invalid_argument("LuFactor::solve: size mismatch");
    }
    // Apply the permutation, then forward/back substitution.
    std::vector<double> x(n);
    for (std::size_t i = 0; i < n; ++i) x[i] = b[pivots_[i]];
    for (std::size_t i = 1; i < n; ++i) {
      double sum = x[i];
      for (std::size_t j = 0; j < i; ++j) sum -= lu_(i, j) * x[j];
      x[i] = sum;
    }
    for (std::size_t i = n; i-- > 0;) {
      double sum = x[i];
      for (std::size_t j = i + 1; j < n; ++j) sum -= lu_(i, j) * x[j];
      x[i] = sum / lu_(i, i);
    }
    return x;
  }

  /// det(A) (sign from the permutation parity).
  [[nodiscard]] double determinant() const {
    double det = pivot_sign_;
    for (std::size_t i = 0; i < lu_.rows(); ++i) det *= lu_(i, i);
    return det;
  }

 private:
  Matrix lu_;
  std::vector<std::size_t> pivots_;
  int pivot_sign_ = 1;
};

/// One-shot square solve A x = b.
inline std::vector<double> solve(const Matrix& a, std::span<const double> b) {
  return LuFactor(a).solve(b);
}

/// Matrix inverse via LU (n solves).
inline Matrix inverse(const Matrix& a) {
  const LuFactor factor(a);
  const std::size_t n = a.rows();
  Matrix inv(n, n);
  std::vector<double> e(n, 0.0);
  for (std::size_t j = 0; j < n; ++j) {
    e[j] = 1.0;
    const auto col = factor.solve(e);
    for (std::size_t i = 0; i < n; ++i) inv(i, j) = col[i];
    e[j] = 0.0;
  }
  return inv;
}

}  // namespace f2pm::linalg::reference
