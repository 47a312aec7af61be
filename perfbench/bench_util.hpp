// Pure helpers of the repo benchmark: percentiles with the "ten samples
// beyond" rule, span self time, the open-loop schedule and the per-layer
// residual. Kept free of I/O and of the f2pm libraries so selftest.cpp can
// pin them without building a workload.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/// Nearest-rank index of percentile `p` (0 < p <= 1) in `n` sorted samples.
inline std::size_t rank_index(std::size_t n, double p) {
  const auto rank = static_cast<std::size_t>(std::ceil(p * static_cast<double>(n)));
  return rank == 0 ? 0 : std::min(rank, n) - 1;
}

/// Samples strictly above the nearest-rank percentile `p` of `n` samples.
inline std::size_t samples_beyond(std::size_t n, double p) {
  return n == 0 ? 0 : n - 1 - rank_index(n, p);
}

/// Latency histogram with 1% relative bucket width from 0.01 to ~1e8 (any
/// unit), so a run's memory does not grow with its sample count.
/// Percentiles are nearest-rank, placed inside their bucket by rank.
class LogHistogram {
 public:
  static constexpr double kMin = 0.01;
  static constexpr double kGrowth = 1.01;
  static constexpr std::size_t kBuckets = 2400;

  LogHistogram() : counts_(kBuckets, 0) {}

  void add(double value) {
    ++counts_[bucket_of(value)];
    ++count_;
  }
  void merge(const LogHistogram& other) {
    for (std::size_t b = 0; b < kBuckets; ++b) counts_[b] += other.counts_[b];
    count_ += other.count_;
  }
  [[nodiscard]] std::uint64_t count() const { return count_; }

  /// Percentile `p` (0 < p <= 1), or nullopt when fewer than `min_beyond`
  /// samples lie beyond it: a tail percentile resting on a handful of
  /// samples is noise, so it is not reported at all. The median of any
  /// non-empty sample is always reported.
  [[nodiscard]] std::optional<double> percentile(
      double p, std::size_t min_beyond = 10) const {
    if (count_ == 0) return std::nullopt;
    if (p > 0.5 && samples_beyond(count_, p) < min_beyond) return std::nullopt;
    const std::uint64_t rank = rank_index(count_, p);
    std::uint64_t before = 0;
    for (std::size_t b = 0; b < kBuckets; ++b) {
      if (rank < before + counts_[b]) {
        const double lo = lower_bound_of(b);
        const double hi = lower_bound_of(b + 1);
        const double within = (static_cast<double>(rank - before) + 0.5) /
                              static_cast<double>(counts_[b]);
        return lo + (hi - lo) * within;
      }
      before += counts_[b];
    }
    return std::nullopt;
  }

  [[nodiscard]] static std::size_t bucket_of(double value) {
    if (!(value > kMin)) return 0;
    const auto b = static_cast<std::size_t>(std::log(value / kMin) /
                                            std::log(kGrowth));
    return std::min(b, kBuckets - 1);
  }
  [[nodiscard]] static double lower_bound_of(std::size_t bucket) {
    return bucket == 0 ? 0.0
                       : kMin * std::pow(kGrowth, static_cast<double>(bucket));
  }

 private:
  std::vector<std::uint64_t> counts_;
  std::uint64_t count_ = 0;
};

/// Median (mean of the two middle values for an even count); 0 if empty.
inline double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                 : (values[mid - 1] + values[mid]) / 2.0;
}

/// One traced interval. Times are nanoseconds on one steady clock; a span
/// with parent == kNoParent is a root.
struct Span {
  static constexpr std::int64_t kNoParent = -1;
  std::string name;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int64_t parent = kNoParent;  ///< Index of the parent span.
};

/// Self time of every span: its duration minus the part of its interval
/// covered by its direct children (overlapping children count once, and
/// a child running past its parent's end is clipped to it).
inline std::vector<std::int64_t> self_times(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> children(
      spans.size());
  for (const Span& span : spans) {
    if (span.parent < 0 ||
        static_cast<std::size_t>(span.parent) >= spans.size()) {
      continue;
    }
    const Span& parent = spans[static_cast<std::size_t>(span.parent)];
    const std::int64_t lo = std::max(span.start_ns, parent.start_ns);
    const std::int64_t hi = std::min(span.end_ns, parent.end_ns);
    if (hi > lo) children[static_cast<std::size_t>(span.parent)].emplace_back(lo, hi);
  }
  std::vector<std::int64_t> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    auto& covered = children[i];
    std::sort(covered.begin(), covered.end());
    std::int64_t union_ns = 0;
    std::int64_t cursor = spans[i].start_ns;
    for (const auto& [lo, hi] : covered) {
      const std::int64_t from = std::max(lo, cursor);
      if (hi > from) {
        union_ns += hi - from;
        cursor = hi;
      }
    }
    self[i] = (spans[i].end_ns - spans[i].start_ns) - union_ns;
  }
  return self;
}

/// Open-loop schedule of one connection: datapoint `i` (counted from the
/// start of the segment) is due at start + offset + i / rate, whatever
/// happened to the earlier ones. `offset` staggers connections so their
/// sends interleave instead of arriving in lockstep.
struct OpenLoopSchedule {
  std::int64_t start_ns = 0;
  double rate_per_second = 1.0;
  double offset_seconds = 0.0;

  [[nodiscard]] std::int64_t due_ns(std::uint64_t i) const {
    return start_ns + static_cast<std::int64_t>(std::llround(
                          (offset_seconds + static_cast<double>(i) /
                                                rate_per_second) *
                          1e9));
  }
  /// How many datapoints are due at `now_ns` (those with due time <= now).
  [[nodiscard]] std::uint64_t due_count(std::int64_t now_ns) const {
    const double elapsed =
        static_cast<double>(now_ns - start_ns) * 1e-9 - offset_seconds;
    if (elapsed < 0.0) return 0;
    auto n = static_cast<std::uint64_t>(std::floor(elapsed * rate_per_second)) + 1;
    // Rounding in due_ns may disagree with the floor by one at an exact
    // boundary; the schedule is defined by due_ns.
    while (n > 0 && due_ns(n - 1) > now_ns) --n;
    while (due_ns(n) <= now_ns) ++n;
    return n;
  }
  /// Lateness of datapoint `i` sent at `sent_ns` (never negative: a
  /// datapoint is never sent before it is due).
  [[nodiscard]] std::int64_t lateness_ns(std::uint64_t i,
                                         std::int64_t sent_ns) const {
    return std::max<std::int64_t>(0, sent_ns - due_ns(i));
  }
};

/// The per-datapoint service CPU budget: what the replayed layers cost and
/// what is left for everything they do not cover (reactor, syscalls, the
/// scoring-pool hop). By construction the parts add up to the total.
struct CpuBudget {
  double total_ns_per_dp = 0.0;   ///< Measured service CPU per datapoint.
  double decode_ns_per_dp = 0.0;  ///< net: FrameDecoder feed + next_view.
  double observe_ns_per_dp = 0.0; ///< core: OnlinePredictor::observe.
  double encode_ns_per_dp = 0.0;  ///< net: encode_prediction, per datapoint.

  [[nodiscard]] double layers_ns_per_dp() const {
    return decode_ns_per_dp + observe_ns_per_dp + encode_ns_per_dp;
  }
  [[nodiscard]] double residual_ns_per_dp() const {
    return total_ns_per_dp - layers_ns_per_dp();
  }
};

/// (process CPU − benchmark-thread CPU) / datapoints: the service's CPU
/// per datapoint, read from outside the program.
inline double service_cpu_ns_per_dp(double process_cpu_ns,
                                    double benchmark_threads_cpu_ns,
                                    std::uint64_t datapoints) {
  if (datapoints == 0) return 0.0;
  return (process_cpu_ns - benchmark_threads_cpu_ns) /
         static_cast<double>(datapoints);
}

}  // namespace perfbench
