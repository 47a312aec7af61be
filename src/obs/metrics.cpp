#include "obs/metrics.hpp"

#include <algorithm>
#include <stdexcept>

namespace f2pm::obs {

namespace detail {

std::size_t shard_index() noexcept {
  static std::atomic<std::size_t> next{0};
  thread_local const std::size_t index =
      next.fetch_add(1, std::memory_order_relaxed) % kShards;
  return index;
}

void atomic_add(std::atomic<double>& target, double delta) noexcept {
  double expected = target.load(std::memory_order_relaxed);
  while (!target.compare_exchange_weak(expected, expected + delta,
                                       std::memory_order_relaxed,
                                       std::memory_order_relaxed)) {
  }
}

}  // namespace detail

Histogram::Histogram(std::vector<double> bounds) : bounds_(std::move(bounds)) {
  if (bounds_.empty()) {
    throw std::invalid_argument("Histogram: bounds must be non-empty");
  }
  for (std::size_t i = 1; i < bounds_.size(); ++i) {
    if (!(bounds_[i] > bounds_[i - 1])) {
      throw std::invalid_argument("Histogram: bounds must ascend strictly");
    }
  }
  shards_.reserve(kShards);
  for (std::size_t s = 0; s < kShards; ++s) {
    // Trailing +Inf bucket.
    shards_.push_back(std::make_unique<Shard>(bounds_.size() + 1));
  }
}

void Histogram::observe(double value) noexcept {
  const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), value);
  const auto bucket =
      static_cast<std::size_t>(std::distance(bounds_.begin(), it));
  Shard& shard = *shards_[detail::shard_index()];
  shard.buckets[bucket].fetch_add(1, std::memory_order_relaxed);
  detail::atomic_add(shard.sum, value);
}

HistogramSnapshot Histogram::snapshot() const {
  HistogramSnapshot out;
  out.bounds = bounds_;
  out.cumulative.assign(bounds_.size() + 1, 0);
  for (const auto& shard_ptr : shards_) {
    const Shard& shard = *shard_ptr;
    for (std::size_t b = 0; b < out.cumulative.size(); ++b) {
      out.cumulative[b] += shard.buckets[b].load(std::memory_order_relaxed);
    }
    out.sum += shard.sum.load(std::memory_order_relaxed);
  }
  for (std::size_t b = 1; b < out.cumulative.size(); ++b) {
    out.cumulative[b] += out.cumulative[b - 1];
  }
  out.count = out.cumulative.back();
  return out;
}

std::vector<double> Histogram::exponential_bounds(double start, double factor,
                                                  std::size_t count) {
  if (!(start > 0.0) || !(factor > 1.0) || count == 0) {
    throw std::invalid_argument("Histogram: bad exponential_bounds shape");
  }
  std::vector<double> bounds;
  bounds.reserve(count);
  double bound = start;
  for (std::size_t i = 0; i < count; ++i) {
    bounds.push_back(bound);
    bound *= factor;
  }
  return bounds;
}

const std::vector<double>& Histogram::default_latency_bounds() {
  static const std::vector<double> bounds = {
      0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025,
      0.05,   0.1,     0.25,   0.5,   1.0,    2.5,   5.0,  10.0};
  return bounds;
}

Registry::Entry& Registry::find_or_create(const std::string& name,
                                          const std::string& labels,
                                          const std::string& help,
                                          MetricType type) {
  const auto key = std::make_pair(name, labels);
  auto it = entries_.find(key);
  if (it == entries_.end()) {
    Entry entry;
    entry.type = type;
    entry.help = help;
    it = entries_.emplace(key, std::move(entry)).first;
  } else if (it->second.type != type) {
    throw std::invalid_argument("Registry: metric '" + name +
                                "' already registered with another type");
  }
  return it->second;
}

Counter& Registry::counter(const std::string& name, const std::string& help,
                           const std::string& labels) {
  std::lock_guard<std::mutex> lock(mutex_);
  Entry& entry = find_or_create(name, labels, help, MetricType::kCounter);
  if (!entry.counter) entry.counter.reset(new Counter());
  return *entry.counter;
}

Gauge& Registry::gauge(const std::string& name, const std::string& help,
                       const std::string& labels) {
  std::lock_guard<std::mutex> lock(mutex_);
  Entry& entry = find_or_create(name, labels, help, MetricType::kGauge);
  if (!entry.gauge) entry.gauge.reset(new Gauge());
  return *entry.gauge;
}

Histogram& Registry::histogram(const std::string& name,
                               const std::string& help,
                               std::vector<double> bounds,
                               const std::string& labels) {
  std::lock_guard<std::mutex> lock(mutex_);
  Entry& entry = find_or_create(name, labels, help, MetricType::kHistogram);
  if (!entry.histogram) {
    entry.histogram.reset(new Histogram(std::move(bounds)));
  }
  return *entry.histogram;
}

std::vector<MetricSnapshot> Registry::snapshot() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<MetricSnapshot> out;
  out.reserve(entries_.size());
  for (const auto& [key, entry] : entries_) {
    MetricSnapshot snap;
    snap.name = key.first;
    snap.labels = key.second;
    snap.help = entry.help;
    snap.type = entry.type;
    switch (entry.type) {
      case MetricType::kCounter:
        snap.value = static_cast<double>(entry.counter->value());
        break;
      case MetricType::kGauge:
        snap.value = entry.gauge->value();
        break;
      case MetricType::kHistogram:
        snap.histogram = entry.histogram->snapshot();
        break;
    }
    out.push_back(std::move(snap));
  }
  return out;
}

std::optional<MetricSnapshot> Registry::find(const std::string& name,
                                             const std::string& labels) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = entries_.find(std::make_pair(name, labels));
  if (it == entries_.end()) return std::nullopt;
  const Entry& entry = it->second;
  MetricSnapshot snap;
  snap.name = name;
  snap.labels = labels;
  snap.help = entry.help;
  snap.type = entry.type;
  switch (entry.type) {
    case MetricType::kCounter:
      snap.value = static_cast<double>(entry.counter->value());
      break;
    case MetricType::kGauge:
      snap.value = entry.gauge->value();
      break;
    case MetricType::kHistogram:
      snap.histogram = entry.histogram->snapshot();
      break;
  }
  return snap;
}

Registry& Registry::global() {
  // Deliberately never destroyed. ThreadPool::global() is constructed
  // before its first enqueue touches this registry, so a function-local
  // static here would be destroyed before that pool joins its workers, and
  // a worker finishing a task (or draining the queue) at exit would record
  // into freed memory.
  static Registry* const registry = new Registry();
  return *registry;
}

}  // namespace f2pm::obs
