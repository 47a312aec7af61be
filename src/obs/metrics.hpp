// Process-wide observability primitives for the serving/training stack:
// monotonic counters, gauges and fixed-bucket latency histograms behind a
// named registry, plus a consistent snapshot API the Prometheus-style
// exposition (obs/exposition.hpp) renders from.
//
// Write-path design: counters and histograms are sharded across a small
// fixed set of cache-line-padded atomic slots, indexed by a thread-local
// shard id, so concurrent writers on the scoring pool never contend on one
// line and a hot-path update is a single relaxed fetch_add. Reads (the
// scrape path) sum the shards; they are racy only in the benign sense that
// a snapshot taken under concurrent writers lands between two serialized
// states — monotonicity of counters is preserved.
//
// Registry entries are created on first use and never removed, so the
// references handed out by counter()/gauge()/histogram() stay valid for
// the process lifetime and callers cache them in function-local statics.
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

namespace f2pm::obs {

/// Number of write shards per counter/histogram. A small power of two:
/// enough to keep a 16-thread scoring pool off each other's cache lines
/// without bloating every metric.
inline constexpr std::size_t kShards = 16;

namespace detail {

/// Stable per-thread shard slot in [0, kShards).
std::size_t shard_index() noexcept;

/// fetch_add for doubles via a CAS loop (portable; relaxed ordering).
void atomic_add(std::atomic<double>& target, double delta) noexcept;

struct alignas(64) CounterShard {
  std::atomic<std::uint64_t> value{0};
};

}  // namespace detail

/// Monotonically increasing counter.
class Counter {
 public:
  void add(std::uint64_t n = 1) noexcept {
    shards_[detail::shard_index()].value.fetch_add(
        n, std::memory_order_relaxed);
  }

  /// Sum over all shards.
  [[nodiscard]] std::uint64_t value() const noexcept {
    std::uint64_t total = 0;
    for (const auto& shard : shards_) {
      total += shard.value.load(std::memory_order_relaxed);
    }
    return total;
  }

 private:
  friend class Registry;
  Counter() = default;
  std::array<detail::CounterShard, kShards> shards_;
};

/// A value that can go up and down (active sessions, queue depth).
class Gauge {
 public:
  void set(double value) noexcept {
    value_.store(value, std::memory_order_relaxed);
  }
  void add(double delta) noexcept { detail::atomic_add(value_, delta); }
  void sub(double delta) noexcept { add(-delta); }

  [[nodiscard]] double value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  friend class Registry;
  Gauge() = default;
  std::atomic<double> value_{0.0};
};

/// Point-in-time view of one histogram.
struct HistogramSnapshot {
  std::vector<double> bounds;  ///< Upper bucket bounds (le), ascending.
  /// Cumulative counts per bound; the final entry is the +Inf bucket and
  /// equals `count`.
  std::vector<std::uint64_t> cumulative;
  std::uint64_t count = 0;
  double sum = 0.0;
};

/// Fixed-bucket histogram (Prometheus classic semantics: a sample lands in
/// every bucket whose upper bound is >= the value).
class Histogram {
 public:
  void observe(double value) noexcept;

  [[nodiscard]] const std::vector<double>& bounds() const noexcept {
    return bounds_;
  }
  [[nodiscard]] HistogramSnapshot snapshot() const;

  /// `count` bounds starting at `start`, each `factor` times the previous.
  static std::vector<double> exponential_bounds(double start, double factor,
                                                std::size_t count);

  /// 100 µs .. 10 s in 1-2.5-5 decade steps — fits both scoring batches
  /// and model fit/validation times.
  static const std::vector<double>& default_latency_bounds();

 private:
  friend class Registry;
  explicit Histogram(std::vector<double> bounds);

  struct alignas(64) Shard {
    explicit Shard(std::size_t num_buckets) : buckets(num_buckets) {}
    std::vector<std::atomic<std::uint64_t>> buckets;  ///< Non-cumulative.
    std::atomic<double> sum{0.0};
  };

  std::vector<double> bounds_;
  /// Heap-allocated: Shard holds atomics and cannot live in a resizable
  /// vector directly.
  std::vector<std::unique_ptr<Shard>> shards_;
};

enum class MetricType { kCounter, kGauge, kHistogram };

/// Point-in-time view of one registered metric.
struct MetricSnapshot {
  std::string name;
  std::string labels;  ///< Prometheus label body, e.g. `model="svr"`; may
                       ///< be empty.
  std::string help;
  MetricType type = MetricType::kCounter;
  double value = 0.0;  ///< Counter/gauge value.
  HistogramSnapshot histogram;
};

/// Named metric registry. Lookup/creation takes a mutex (cache the
/// returned references); updates through the returned handles are
/// lock-free. The same (name, labels) pair always returns the same
/// instance; re-registering it as a different type throws
/// std::invalid_argument.
class Registry {
 public:
  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  Counter& counter(const std::string& name, const std::string& help,
                   const std::string& labels = "");
  Gauge& gauge(const std::string& name, const std::string& help,
               const std::string& labels = "");
  /// `bounds` must be strictly ascending and non-empty; they are fixed at
  /// creation (later calls with different bounds return the original).
  Histogram& histogram(const std::string& name, const std::string& help,
                       std::vector<double> bounds,
                       const std::string& labels = "");

  /// Consistent-enough view for exposition: every metric is read once,
  /// sorted by (name, labels). Counter values are monotonic across
  /// successive snapshots even under concurrent writers.
  [[nodiscard]] std::vector<MetricSnapshot> snapshot() const;

  /// Snapshot of one (name, labels) entry, or nullopt when it was never
  /// registered. Lets an in-process consumer (the learn trainer reads the
  /// ml fit timers to estimate a retrain budget) query a single series
  /// without rendering the whole exposition.
  [[nodiscard]] std::optional<MetricSnapshot> find(
      const std::string& name, const std::string& labels = "") const;

  /// The process-wide registry every instrumented layer writes to. It is
  /// never destroyed, so threads may record into it until process exit.
  static Registry& global();

 private:
  struct Entry {
    MetricType type = MetricType::kCounter;
    std::string help;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };

  Entry& find_or_create(const std::string& name, const std::string& labels,
                        const std::string& help, MetricType type);

  mutable std::mutex mutex_;
  /// Keyed by (name, labels) so label variants of one family sort together.
  std::map<std::pair<std::string, std::string>, Entry> entries_;
};

/// Observes the wall-clock lifetime of a scope into a histogram (seconds).
class ScopedTimer {
 public:
  explicit ScopedTimer(Histogram& histogram)
      : histogram_(histogram), start_(std::chrono::steady_clock::now()) {}
  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;
  ~ScopedTimer() {
    histogram_.observe(std::chrono::duration<double>(
                           std::chrono::steady_clock::now() - start_)
                           .count());
  }

 private:
  Histogram& histogram_;
  std::chrono::steady_clock::time_point start_;
};

}  // namespace f2pm::obs
