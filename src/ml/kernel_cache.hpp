// LRU kernel-row cache with a byte budget, in the style of LIBSVM's
// `Cache`: the SMO solver asks for rows of the (implicit) n x n kernel
// matrix and the cache computes them on demand with kernel_row(), keeping
// only the most recently used rows resident. Peak kernel storage is
// bounded by the configured budget (never fewer than two rows, which is
// what one SMO pair update needs at once), so training no longer
// materializes an O(n²) matrix — 800 MB at n = 10k rows under the old
// dense scheme.
#pragma once

#include <cstddef>
#include <cstdint>
#include <list>
#include <span>
#include <vector>

#include "linalg/matrix.hpp"
#include "ml/kernels.hpp"

namespace f2pm::ml {

/// Observability counters for the cache (reported by benches and exposed
/// by KernelSvr after a fit).
struct KernelCacheStats {
  std::size_t hits = 0;
  std::size_t misses = 0;       ///< Rows computed on demand.
  std::size_t evictions = 0;    ///< Rows dropped to stay within budget.
  std::size_t peak_bytes = 0;   ///< High-water kernel-row storage.
  std::size_t budget_bytes = 0; ///< Configured budget.
};

/// LRU cache of kernel-matrix rows. Not thread-safe: one instance per
/// solver.
class KernelRowCache {
 public:
  /// Keeps a transposed copy of `x` for kernel_row. At most
  /// max(2, budget_bytes / (8 n)) rows are resident at once (and never
  /// more than n).
  KernelRowCache(const KernelParams& params, const linalg::Matrix& x,
                 std::size_t budget_bytes);

  /// Row i of the kernel matrix, K(i, j) for all j. The span stays valid
  /// until i is evicted; the two most recently requested rows are always
  /// resident, so a caller may safely hold the rows of one SMO pair.
  std::span<const double> row(std::size_t i);

  /// K(i, i) for every i; precomputed, always resident.
  [[nodiscard]] std::span<const double> diagonal() const { return {diag_}; }

  /// ||x_i||² per row (shared with callers that invoke kernel_row
  /// themselves, e.g. for gradient reconstruction).
  [[nodiscard]] const std::vector<double>& row_norms() const { return norms_; }

  [[nodiscard]] std::size_t max_rows() const { return max_rows_; }
  [[nodiscard]] const KernelCacheStats& stats() const { return stats_; }

 private:
  KernelParams params_;
  linalg::Matrix xt_;                        ///< x transposed (p x n).
  std::vector<double> norms_;
  std::vector<double> diag_;
  std::size_t max_rows_ = 0;

  std::vector<std::vector<double>> slots_;   ///< Row payloads (stable).
  std::vector<std::int64_t> slot_of_row_;    ///< Row -> slot, -1 if absent.
  std::vector<std::size_t> row_of_slot_;     ///< Slot -> resident row.
  std::list<std::size_t> lru_;               ///< Slots, most recent first.
  std::vector<std::list<std::size_t>::iterator> lru_pos_;  ///< Slot -> node.
  KernelCacheStats stats_;
};

}  // namespace f2pm::ml
