#include "linalg/cholesky.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "parallel/thread_pool.hpp"

namespace f2pm::linalg {

namespace {

/// Columns per panel.
constexpr std::size_t kBlock = 64;
/// Register tile of the trailing update, rows x columns.
constexpr std::size_t kTileRows = 4;
constexpr std::size_t kTileCols = 4;
/// Panels and trailing blocks of at least this many rows run on the pool.
constexpr std::size_t kParallelRows = 256;

/// Computes L(i, j) for j in [j0, j_end) of row i from the already
/// factored rows j of the block that starts at column j0. Every element
/// already has the products of columns k < j0 subtracted.
void solve_row(Matrix& a, std::size_t i, std::size_t j0, std::size_t j_end) {
  const auto ri = a.row(i);
  for (std::size_t j = j0; j < j_end; ++j) {
    const auto rj = a.row(j);
    double sum = ri[j];
    for (std::size_t k = j0; k < j; ++k) sum -= ri[k] * rj[k];
    ri[j] = sum / rj[j];
  }
}

/// Factors the diagonal block of columns [j0, j1) row by row. False on a
/// pivot that is not positive and finite.
bool factor_diagonal_block(Matrix& a, std::size_t j0, std::size_t j1) {
  for (std::size_t i = j0; i < j1; ++i) {
    solve_row(a, i, j0, i);
    const auto ri = a.row(i);
    double diag = ri[i];
    for (std::size_t k = j0; k < i; ++k) diag -= ri[k] * ri[k];
    if (!(diag > 0.0) || !std::isfinite(diag)) return false;
    ri[i] = std::sqrt(diag);
  }
  return true;
}

/// Start of panel column `col` (0 = column j1) in the packed panel: strips
/// of kTileCols columns, each stored as kb rows of kTileCols values, so a
/// tile reads one contiguous strip.
double* packed_column(double* panel, std::size_t col, std::size_t kb) {
  return panel + (col / kTileCols) * kTileCols * kb + col % kTileCols;
}

/// Solves rows [lo, hi) of the panel below the factored diagonal block
/// [j0, j1) and packs them, transposed, for the trailing update.
void solve_panel_rows(Matrix& a, std::size_t lo, std::size_t hi,
                      std::size_t j0, std::size_t j1, double* panel) {
  const std::size_t kb = j1 - j0;
  for (std::size_t i = lo; i < hi; ++i) {
    solve_row(a, i, j0, j1);
    const auto ri = a.row(i);
    double* packed = packed_column(panel, i - j1, kb);
    for (std::size_t k = 0; k < kb; ++k) packed[k * kTileCols] = ri[j0 + k];
  }
}

/// Subtracts the panel's products from the kRows x kTileCols tile at
/// (i, j). Each element has its own accumulator and takes the products in
/// ascending k, as the column-by-column loop does.
template <std::size_t kRows>
void update_tile(Matrix& a, std::size_t i, std::size_t j, std::size_t j0,
                 std::size_t kb, const double* strip) {
  double acc[kRows][kTileCols];
  for (std::size_t r = 0; r < kRows; ++r) {
    for (std::size_t c = 0; c < kTileCols; ++c) acc[r][c] = a(i + r, j + c);
  }
  for (std::size_t k = 0; k < kb; ++k) {
    const double* p = strip + k * kTileCols;
    for (std::size_t r = 0; r < kRows; ++r) {
      const double lik = a(i + r, j0 + k);
      for (std::size_t c = 0; c < kTileCols; ++c) acc[r][c] -= lik * p[c];
    }
  }
  for (std::size_t r = 0; r < kRows; ++r) {
    for (std::size_t c = 0; c < kTileCols; ++c) a(i + r, j + c) = acc[r][c];
  }
}

/// Trailing update of rows [i, i + kRows), columns j1 up to each row's
/// diagonal.
template <std::size_t kRows>
void update_rows(Matrix& a, std::size_t i, std::size_t j0, std::size_t j1,
                 double* panel) {
  const std::size_t kb = j1 - j0;
  std::size_t j = j1;
  // Whole tiles: every column lies at or left of the first row's diagonal.
  for (; j + kTileCols <= i + 1; j += kTileCols) {
    update_tile<kRows>(a, i, j, j0, kb, panel + (j - j1) * kb);
  }
  for (std::size_t r = 0; r < kRows; ++r) {
    const auto row = a.row(i + r);
    for (std::size_t col = j; col <= i + r; ++col) {
      const double* p = packed_column(panel, col - j1, kb);
      double sum = row[col];
      for (std::size_t k = 0; k < kb; ++k) {
        sum -= row[j0 + k] * p[k * kTileCols];
      }
      row[col] = sum;
    }
  }
}

void update_trailing(Matrix& a, std::size_t lo, std::size_t hi,
                     std::size_t j0, std::size_t j1, double* panel) {
  std::size_t i = lo;
  for (; i + kTileRows <= hi; i += kTileRows) {
    update_rows<kTileRows>(a, i, j0, j1, panel);
  }
  for (; i < hi; ++i) update_rows<1>(a, i, j0, j1, panel);
}

}  // namespace

std::optional<CholeskyFactor> cholesky(Matrix a) {
  if (a.rows() != a.cols()) {
    throw std::invalid_argument("cholesky: matrix must be square");
  }
  const std::size_t n = a.rows();
  std::vector<double> panel;
  for (std::size_t j0 = 0; j0 < n; j0 += kBlock) {
    const std::size_t j1 = std::min(n, j0 + kBlock);
    if (!factor_diagonal_block(a, j0, j1)) return std::nullopt;
    const std::size_t m = n - j1;
    if (m == 0) break;
    // Only the last block can be narrower than kBlock, and it has no
    // trailing rows, so the first panel is the largest.
    if (panel.empty()) {
      panel.resize((m + kTileCols - 1) / kTileCols * kTileCols * kBlock);
    }
    if (m < kParallelRows) {
      solve_panel_rows(a, j1, n, j0, j1, panel.data());
      update_trailing(a, j1, n, j0, j1, panel.data());
      continue;
    }
    auto& pool = parallel::ThreadPool::global();
    parallel::parallel_for_chunked(
        pool, j1, n, [&](std::size_t lo, std::size_t hi) {
          solve_panel_rows(a, lo, hi, j0, j1, panel.data());
        });
    // Row i of the trailing block costs ~(i - j1) tiles, so chunk c ends
    // at the fraction sqrt(c / chunks) of the rows: equal work per chunk.
    const std::size_t chunks = 4 * pool.num_threads();
    auto chunk_end = [&](std::size_t c) {
      if (c == chunks) return n;
      const double share = std::sqrt(static_cast<double>(c) /
                                     static_cast<double>(chunks));
      const auto tiles =
          static_cast<std::size_t>(share * static_cast<double>(m / kTileRows));
      return j1 + tiles * kTileRows;
    };
    parallel::parallel_for(pool, 0, chunks, [&](std::size_t c) {
      update_trailing(a, chunk_end(c), chunk_end(c + 1), j0, j1,
                      panel.data());
    });
  }
  for (std::size_t i = 0; i < n; ++i) {
    const auto row = a.row(i);
    std::fill(row.begin() + static_cast<std::ptrdiff_t>(i) + 1, row.end(),
              0.0);
  }
  return CholeskyFactor{std::move(a)};
}

std::vector<double> CholeskyFactor::solve(std::span<const double> b) const {
  const std::size_t n = l.rows();
  if (b.size() != n) {
    throw std::invalid_argument("CholeskyFactor::solve: size mismatch");
  }
  // Forward substitution: L y = b.
  std::vector<double> y(n);
  for (std::size_t i = 0; i < n; ++i) {
    double sum = b[i];
    for (std::size_t k = 0; k < i; ++k) sum -= l(i, k) * y[k];
    y[i] = sum / l(i, i);
  }
  // Back substitution: L^T x = y.
  std::vector<double> x(n);
  for (std::size_t i = n; i-- > 0;) {
    double sum = y[i];
    for (std::size_t k = i + 1; k < n; ++k) sum -= l(k, i) * x[k];
    x[i] = sum / l(i, i);
  }
  return x;
}

double CholeskyFactor::log_det() const {
  double acc = 0.0;
  for (std::size_t i = 0; i < l.rows(); ++i) acc += std::log(l(i, i));
  return 2.0 * acc;
}

std::vector<double> solve_spd(const Matrix& a, std::span<const double> b,
                              double jitter) {
  double added = jitter;
  for (int attempt = 0; attempt < 8; ++attempt) {
    Matrix work = a;
    if (added > 0.0) {
      for (std::size_t i = 0; i < work.rows(); ++i) {
        work(i, i) = a(i, i) + added;
      }
    }
    if (auto factor = cholesky(std::move(work))) return factor->solve(b);
    added = (added == 0.0) ? 1e-10 : added * 100.0;
  }
  throw std::runtime_error("solve_spd: matrix is not positive definite");
}

}  // namespace f2pm::linalg
