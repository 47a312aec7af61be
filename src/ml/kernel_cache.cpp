#include "ml/kernel_cache.hpp"

#include <algorithm>
#include <stdexcept>

namespace f2pm::ml {

KernelRowCache::KernelRowCache(const KernelParams& params,
                               const linalg::Matrix& x,
                               std::size_t budget_bytes)
    : params_(params), xt_(x.transposed()) {
  const std::size_t n = x.rows();
  if (n == 0) {
    throw std::invalid_argument("KernelRowCache: empty matrix");
  }
  norms_ = row_squared_norms(x);
  diag_.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    diag_[i] = kernel_value(params_, x.row(i), x.row(i));
  }
  const std::size_t row_bytes = n * sizeof(double);
  // An SMO pair update touches two rows at once, so two rows is the floor
  // below which the cache cannot honour its span-validity contract.
  max_rows_ = std::clamp<std::size_t>(budget_bytes / row_bytes, 2, n);
  slot_of_row_.assign(n, -1);
  stats_.budget_bytes = budget_bytes;
}

std::span<const double> KernelRowCache::row(std::size_t i) {
  const std::size_t n = xt_.cols();
  if (i >= n) {
    throw std::invalid_argument("KernelRowCache::row: index out of range");
  }
  if (slot_of_row_[i] >= 0) {
    ++stats_.hits;
    const auto slot = static_cast<std::size_t>(slot_of_row_[i]);
    lru_.splice(lru_.begin(), lru_, lru_pos_[slot]);
    return {slots_[slot]};
  }
  ++stats_.misses;
  std::size_t slot;
  if (slots_.size() < max_rows_) {
    slot = slots_.size();
    slots_.emplace_back(n);
    row_of_slot_.push_back(i);
    lru_.push_front(slot);
    lru_pos_.push_back(lru_.begin());
    stats_.peak_bytes =
        std::max(stats_.peak_bytes, slots_.size() * n * sizeof(double));
  } else {
    // Reuse the least recently used slot. The most recent row (the other
    // half of the current SMO pair) is at the front, so with max_rows >= 2
    // it is never the one reclaimed.
    slot = lru_.back();
    slot_of_row_[row_of_slot_[slot]] = -1;
    row_of_slot_[slot] = i;
    lru_.splice(lru_.begin(), lru_, lru_pos_[slot]);
    ++stats_.evictions;
  }
  slot_of_row_[i] = static_cast<std::int64_t>(slot);
  kernel_row(params_, xt_, i, norms_, slots_[slot]);
  return {slots_[slot]};
}

}  // namespace f2pm::ml
