// perfbench: the one repo benchmark. Three workloads, each run from a
// single process against the library's public API:
//
//   serve_light    open-loop replay of a campaign trace, linear model:
//                  decode, reactor, pool hop and encode dominate.
//   serve_retrain  drifted traffic; completed runs feed a
//                  ContinuousTrainer, so retrains and hot swaps land while
//                  the service scores.
//   train_zoo      the paper's workflow: core::run_pipeline over the model
//                  zoo, then the chosen GBDT deployed and served.
//
// Every workload builds models and serves, so every end-to-end metric is
// measured on every workload. Load is open loop: each connection's
// datapoints are due on a fixed schedule, and a window's latency runs from
// the due time of the datapoint that closed it to the prediction's
// arrival. Every prediction is checked against an offline reference
// (data::aggregate + predict_row on the same stream). Service threads and
// generator threads run on disjoint CPUs, one CPU per service thread.
//
// `--trace 0` prints the end-to-end metrics. `--trace 1` is a separate run
// that prints the per-layer metrics: spans recorded around the benchmark's
// own calls into the library (written to .bench_build/traces/), a
// single-threaded replay of the identical stream through each layer's
// public functions, and deltas of the obs series the program exports.
//
// Usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//        perfbench --list-metrics | --describe
#include <dirent.h>
#include <poll.h>
#include <pthread.h>
#include <sched.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/stat.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "core/feature_selection.hpp"
#include "core/online.hpp"
#include "core/pipeline.hpp"
#include "data/aggregation.hpp"
#include "data/dataset.hpp"
#include "learn/trainer.hpp"
#include "ml/metrics.hpp"
#include "ml/registry.hpp"
#include "net/protocol.hpp"
#include "net/socket.hpp"
#include "obs/metrics.hpp"
#include "parallel/thread_pool.hpp"
#include "serve/model_store.hpp"
#include "serve/service.hpp"
#include "sim/campaign.hpp"
#include "util/logging.hpp"
#include "util/rng.hpp"

namespace {

using namespace f2pm;
using perfbench::median;
using perfbench::LogHistogram;
using perfbench::OpenLoopSchedule;

// ---------------------------------------------------------------------------
// Workloads. These values are part of the benchmark's definition: changing
// any of them makes results incomparable with earlier runs.

struct WorkloadSpec {
  const char* name;
  const char* served_model;  ///< Registry name of the served model.
  std::size_t trace_samples;  ///< Datapoints simulated per regime.
  std::size_t connections;
  std::size_t shards;
  std::size_t scoring_threads;
  double rate_dps;      ///< Fixed offered rate (all connections together).
  double p99_limit_us;  ///< Latency limit of the SLO rate search.
  double window_seconds;
  bool retrain;  ///< Drifting traffic feeding a ContinuousTrainer.
  bool zoo;      ///< Build phase = run_pipeline on the canonical study.
};

constexpr WorkloadSpec kWorkloads[] = {
    {"serve_light", "linear", 12'000, 4, 1, 1, 300'000.0, 10'000.0, 30.0,
     false, false},
    {"serve_retrain", "reptree", 6'000, 2, 1, 1, 200'000.0, 10'000.0, 10.0,
     true, false},
    {"train_zoo", "gbdt", 25'000, 4, 1, 1, 300'000.0, 10'000.0, 30.0,
     false, true},
};

/// Every workload runs one shard. A multi-shard workload would need
/// AcceptMode::kHandoff (kernel SO_REUSEPORT hashing of a handful of
/// ephemeral ports splits unevenly from run to run) and per-shard thread
/// counts in service_threads().
constexpr bool kAllSingleShard = [] {
  for (const WorkloadSpec& w : kWorkloads) {
    if (w.shards != 1) return false;
  }
  return true;
}();
static_assert(kAllSingleShard, "multi-shard workloads need kHandoff placement");

/// The canonical study shape of bench/common.hpp (60 browsers, 30 s
/// windows, 70/30 split with seed 7; its 30 runs hold about 25,000
/// datapoints). Campaigns run until a datapoint count rather than a run
/// count, so every seed yields inputs of the same size.
constexpr std::size_t kStudyBrowsers = 60;
constexpr double kStudyTrainFraction = 0.7;
constexpr std::uint64_t kStudySplitSeed = 7;
const std::vector<std::string> kZoo = {"linear", "m5p", "reptree", "lasso",
                                       "svm",    "svm2", "gbdt"};

/// Fraction of --seconds spent on the fixed-rate segments; the rest goes
/// to the SLO rate search (train_zoo first spends kZooBuildShare on
/// pipelines).
constexpr double kFixedShare = 0.45;
constexpr double kZooBuildShare = 0.45;
constexpr double kFitBuildShare = 0.08;
/// Fixed-rate segments: as many as give each about kSegmentWindows
/// windows, within [kMinSegments, kMaxSegments]. The end-to-end figures
/// are medians over segments, so a stall of the host spoils one segment,
/// not the run.
constexpr double kSegmentWindows = 2500.0;
constexpr int kMinSegments = 3;
constexpr int kMaxSegments = 16;
constexpr int kSearchSteps = 7;
constexpr double kSearchCeiling = 32.0;  ///< Search bracket: [R, 32R].
constexpr int kSearchAttempts = 3;  ///< Tries before a search step misses.
/// Set-ups timed per run: kSetupsAtStart back to back (the last one is the
/// deployment served), and kSetupsAtEnd more once it is torn down. None
/// runs between measured phases: a set-up there slows the next segment's
/// windows by 10-20%. See timed_setup() for why and how they are spread.
constexpr std::size_t kSetupsAtStart = 5;
constexpr std::size_t kSetupsAtEnd = 5;
/// Generator wake-up granularity: datapoints due within one tick go out in
/// one send. Reported lateness includes it.
constexpr std::int64_t kTickNs = 20'000;
/// A search step stops sending once the generator runs this many latency
/// limits behind schedule: the backlog is growing.
constexpr double kAbortLimits = 4.0;
constexpr double kDrainTimeoutSeconds = 10.0;
constexpr std::uint64_t kSpanSampling = 64;
/// Matched windows after a model swap during which its dropped window may
/// still show as missing (see match_prediction()).
constexpr std::uint64_t kSwapGraceWindows = 2;
constexpr std::size_t kMaxGeneratorThreads = 2;

std::string describe(const WorkloadSpec& w) {
  char buffer[256];
  std::snprintf(buffer, sizeof(buffer),
                "conns=%zu shards=%zu scoring=%zu rate=%.0fdp/s "
                "p99<=%.0fus",
                w.connections, w.shards, w.scoring_threads, w.rate_dps,
                w.p99_limit_us);
  return buffer;
}

const WorkloadSpec* find_workload(const std::string& name) {
  for (const WorkloadSpec& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

// ---------------------------------------------------------------------------
// Metric catalogue (what --list-metrics prints; run.py checks it against
// BENCHMARK.json).

struct MetricDef {
  std::string name;
  std::string unit;
};

const std::vector<MetricDef>& end_to_end_metrics() {
  static const std::vector<MetricDef> defs = {
      {"setup_s", "s"},          {"peak_rss_mb", "MB"},
      {"build_s", "s"},          {"slo_rate_dps", "dp/s"},
      {"window_p50_us", "us"},   {"window_p90_us", "us"},
      {"cpu_ns_per_dp", "ns"},
  };
  return defs;
}

const std::vector<MetricDef>& per_layer_metrics() {
  static const std::vector<MetricDef> defs = [] {
    std::vector<MetricDef> d = {
        {"net.decode_ns_per_dp", "ns"},
        {"net.encode_ns_per_window", "ns"},
        {"net.bytes_in_per_dp", "B/dp"},
        {"net.frames_out_per_window", "count"},
        {"data.window_features_ns", "ns"},
        {"data.aggregate_s", "s"},
        {"core.observe_ns_per_dp", "ns"},
        {"core.select_features_s", "s"},
        {"ml.predict_row_ns", "ns"},
    };
    for (const std::string& m : kZoo) d.push_back({"ml.fit_s." + m, "s"});
    for (const std::string& m : kZoo) {
      d.push_back({"ml.predict_ns_per_row." + m, "ns"});
    }
    const std::vector<MetricDef> rest = {
        {"serve.cpu_ns_per_dp", "ns"},
        {"serve.window_p99_us", "us"},
        {"serve.residual_ns_per_dp", "ns"},
        {"serve.dp_per_batch", "count"},
        {"parallel.task_wait_us", "us"},
        {"parallel.task_run_us", "us"},
        {"learn.drift_verdicts", "count"},
        {"learn.retrains", "count"},
        {"learn.publishes", "count"},
        {"learn.swaps", "count"},
        {"gen.lateness_p99_us", "us"},
        {"gen.cpu_ns_per_dp", "ns"},
        {"trace.overhead_frac", "ratio"},
    };
    d.insert(d.end(), rest.begin(), rest.end());
    return d;
  }();
  return defs;
}

// ---------------------------------------------------------------------------
// Clocks and spans.

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double clock_ns(clockid_t id) {
  timespec ts{};
  clock_gettime(id, &ts);
  return static_cast<double>(ts.tv_sec) * 1e9 + static_cast<double>(ts.tv_nsec);
}

double process_cpu_ns() { return clock_ns(CLOCK_PROCESS_CPUTIME_ID); }

/// CPU time of the calling thread, read through its pthread CPU clock.
double own_thread_cpu_ns() {
  clockid_t id{};
  if (pthread_getcpuclockid(pthread_self(), &id) != 0) {
    throw std::runtime_error("pthread_getcpuclockid failed");
  }
  return clock_ns(id);
}

double seconds_since(std::int64_t start_ns) {
  return static_cast<double>(now_ns() - start_ns) * 1e-9;
}

/// CPUs this process may run on.
std::vector<int> allowed_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  std::vector<int> cpus;
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &set)) cpus.push_back(c);
    }
  }
  return cpus;
}

/// Restricts the calling thread (and threads it creates afterwards).
void pin_self(const std::vector<int>& cpus) {
  if (cpus.empty()) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  for (int c : cpus) CPU_SET(c, &set);
  sched_setaffinity(0, sizeof(set), &set);
}

/// Thread ids of this process.
std::vector<pid_t> thread_ids() {
  std::vector<pid_t> ids;
  if (DIR* dir = ::opendir("/proc/self/task")) {
    while (const dirent* entry = ::readdir(dir)) {
      if (entry->d_name[0] != '.') ids.push_back(std::atoi(entry->d_name));
    }
    ::closedir(dir);
  }
  std::sort(ids.begin(), ids.end());
  return ids;
}

/// Service threads run on the first CPUs, generator threads on the rest,
/// so the load generator never competes with the service for a core. Each
/// service thread gets a CPU of its own: left to the scheduler, the
/// reactor and the scoring thread sometimes share a core and sometimes do
/// not, and the service's CPU per datapoint differs by half between the
/// two placements.
struct Placement {
  std::vector<int> all;
  std::vector<int> service;
  std::vector<int> generator;
};
Placement g_placement;

/// In-memory span recorder for the traced run. Main-thread spans nest
/// through a thread-local parent; generator threads fill their own
/// vectors and hand them over after the segment (append()).
class Tracer {
 public:
  void set_enabled(bool enabled) { enabled_ = enabled; }
  [[nodiscard]] bool enabled() const { return enabled_; }

  std::int64_t open(const std::string& name, std::int64_t parent) {
    std::lock_guard<std::mutex> lock(mutex_);
    spans_.push_back({name, now_ns(), 0, parent});
    return static_cast<std::int64_t>(spans_.size() - 1);
  }
  void close(std::int64_t id) {
    const std::int64_t end = now_ns();
    std::lock_guard<std::mutex> lock(mutex_);
    spans_[static_cast<std::size_t>(id)].end_ns = end;
  }
  void append(std::vector<perfbench::Span>& spans) {
    std::lock_guard<std::mutex> lock(mutex_);
    spans_.insert(spans_.end(), std::make_move_iterator(spans.begin()),
                  std::make_move_iterator(spans.end()));
    spans.clear();
  }
  [[nodiscard]] std::vector<perfbench::Span> spans() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return spans_;
  }

 private:
  bool enabled_ = false;
  mutable std::mutex mutex_;
  std::vector<perfbench::Span> spans_;
};

Tracer g_tracer;
thread_local std::int64_t t_parent = perfbench::Span::kNoParent;

/// RAII span on the calling thread (a no-op while tracing is off).
class SpanScope {
 public:
  explicit SpanScope(const std::string& name) : parent_(t_parent) {
    if (!g_tracer.enabled()) return;
    id_ = g_tracer.open(name, parent_);
    t_parent = id_;
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;
  ~SpanScope() {
    if (id_ < 0) return;
    g_tracer.close(id_);
    t_parent = parent_;
  }
  [[nodiscard]] std::int64_t id() const { return id_; }

 private:
  std::int64_t parent_;
  std::int64_t id_ = perfbench::Span::kNoParent;
};

// ---------------------------------------------------------------------------
// Streams and the offline reference.

struct ExpectedWindow {
  std::uint64_t closing_dp = 0;  ///< Cycle index of the datapoint closing it.
  double window_end = 0.0;
  double rttf = 0.0;  ///< Offline reference prediction.
};

/// One connection's repeating byte stream: its runs (datapoints, then a
/// FailEvent) in a fixed order, with the offline reference per window.
struct Cycle {
  std::vector<std::uint8_t> bytes;
  std::vector<std::uint64_t> dp_end;  ///< Byte offset after datapoint i (and
                                      ///< after its run's FailEvent).
  std::vector<std::uint32_t> dp_run;  ///< History run of datapoint i.
  std::vector<std::uint32_t> dp_in_run;
  std::vector<ExpectedWindow> windows;  ///< In closing order.
  std::vector<std::uint64_t> closed_before;  ///< Windows closed by dps < i.

  [[nodiscard]] std::uint64_t n_dp() const { return dp_end.size(); }
  [[nodiscard]] std::uint64_t global_end(std::uint64_t dp) const {
    return (dp / n_dp()) * bytes.size() + dp_end[dp % n_dp()];
  }
  [[nodiscard]] std::uint64_t expected_after(std::uint64_t sent_dp) const {
    return (sent_dp / n_dp()) * windows.size() +
           closed_before[sent_dp % n_dp()];
  }
  [[nodiscard]] const ExpectedWindow& window(std::uint64_t k) const {
    return windows[k % windows.size()];
  }
  [[nodiscard]] std::uint64_t closing_global(std::uint64_t k) const {
    return (k / windows.size()) * n_dp() + window(k).closing_dp;
  }
};

double window_start_of(double tgen, double width) {
  return std::floor(tgen / width) * width;
}

/// Offline reference for one run: data::aggregate over the run alone, then
/// predict_row on each window. A window yields a prediction online only
/// when a later datapoint of the same run closes it (the run's open window
/// is discarded by the FailEvent).
std::vector<ExpectedWindow> reference_windows(const data::Run& run,
                                              const ml::Regressor* model,
                                              double width) {
  data::DataHistory single;
  data::Run copy = run;
  copy.failed = true;
  single.add_run(std::move(copy));
  data::AggregationOptions options;
  options.window_seconds = width;
  options.include_unfailed_runs = true;
  std::vector<ExpectedWindow> out;
  std::size_t cursor = 0;
  for (const data::AggregatedDatapoint& point :
       data::aggregate(single, options)) {
    while (cursor < run.samples.size() &&
           !(window_start_of(run.samples[cursor].tgen, width) >
             point.window_start)) {
      ++cursor;
    }
    if (cursor == run.samples.size()) break;  // Open at the FailEvent.
    ExpectedWindow w;
    w.closing_dp = cursor;
    w.window_end = point.window_end;
    if (model != nullptr) {
      const auto row = data::to_input_vector(point);
      w.rttf = model->predict_row(row);
    }
    out.push_back(w);
  }
  return out;
}

Cycle build_cycle(const data::DataHistory& history,
                  const std::vector<std::size_t>& run_order,
                  const std::vector<std::vector<ExpectedWindow>>& reference) {
  Cycle cycle;
  for (std::size_t r : run_order) {
    const data::Run& run = history.runs()[r];
    const std::uint64_t base = cycle.dp_end.size();
    for (std::size_t i = 0; i < run.samples.size(); ++i) {
      net::FrameEncoder::encode_datapoint(cycle.bytes, run.samples[i]);
      if (i + 1 == run.samples.size()) {
        net::FrameEncoder::encode_fail_event(cycle.bytes, run.fail_time);
      }
      cycle.dp_end.push_back(cycle.bytes.size());
      cycle.dp_run.push_back(static_cast<std::uint32_t>(r));
      cycle.dp_in_run.push_back(static_cast<std::uint32_t>(i));
    }
    for (ExpectedWindow w : reference[r]) {
      w.closing_dp += base;
      cycle.windows.push_back(w);
    }
  }
  cycle.closed_before.assign(cycle.n_dp() + 1, 0);
  std::size_t k = 0;
  for (std::uint64_t i = 0; i <= cycle.n_dp(); ++i) {
    while (k < cycle.windows.size() && cycle.windows[k].closing_dp < i) ++k;
    cycle.closed_before[i] = k;
  }
  return cycle;
}

// ---------------------------------------------------------------------------
// Connections and the open-loop generator.

struct Checks {
  std::uint64_t matched = 0;
  std::uint64_t missing = 0;
  std::uint64_t missing_at_swap = 0;  ///< Allowed: one per model swap.
  std::uint64_t duplicate = 0;
  std::uint64_t out_of_order = 0;
  std::uint64_t mismatched = 0;

  [[nodiscard]] std::uint64_t failed() const {
    return missing + duplicate + out_of_order + mismatched;
  }
  void add(const Checks& o) {
    matched += o.matched;
    missing += o.missing;
    missing_at_swap += o.missing_at_swap;
    duplicate += o.duplicate;
    out_of_order += o.out_of_order;
    mismatched += o.mismatched;
  }
};

struct Connection {
  Connection(net::TcpStream s, const Cycle& c) : stream(std::move(s)), cycle(&c) {}

  net::TcpStream stream;
  const Cycle* cycle;
  net::FrameDecoder decoder;
  std::uint64_t sent_bytes = 0;
  std::uint64_t sent_dp = 0;
  std::uint64_t next_expected = 0;
  std::uint32_t model_version = 0;
  std::uint64_t swap_allowance = 0;  ///< Windows a recent swap may drop.
  std::uint64_t matches_since_swap = 0;
  double last_window_end = -1.0;
  bool check_values = true;
  bool closed = false;
  Checks checks;
  /// Schedules by first global datapoint index, newest last.
  std::vector<std::pair<std::uint64_t, OpenLoopSchedule>> schedules;

  [[nodiscard]] std::int64_t due_ns(std::uint64_t global_dp) const {
    for (auto it = schedules.rbegin(); it != schedules.rend(); ++it) {
      if (global_dp >= it->first) return it->second.due_ns(global_dp - it->first);
    }
    return 0;
  }
};

/// What one generator thread saw during one segment.
struct GenStats {
  LogHistogram latency_us;   ///< Window latencies (due -> arrival).
  LogHistogram lateness_us;  ///< Datapoint send lateness.
  std::uint64_t dp_sent = 0;
  double cpu_ns = 0.0;
  bool aborted = false;
  bool drained = true;
  std::vector<perfbench::Span> spans;
};

struct SegmentParams {
  double rate_dps = 0.0;  ///< All connections together.
  double seconds = 0.0;
  double abort_lateness_us = 0.0;  ///< 0 = never abort.
  std::int64_t parent_span = perfbench::Span::kNoParent;
};

/// Matches one received prediction against the connection's expected
/// sequence; returns the index of the matched window or nullopt.
std::optional<std::uint64_t> match_prediction(Connection& c,
                                              const net::Prediction& p) {
  const Cycle& cycle = *c.cycle;
  if (p.model_version != c.model_version) {
    // A session rebuilds its window state at most once per store version,
    // and may pass through several between two predictions, each time
    // dropping the window it had open.
    if (c.model_version != 0) {
      c.swap_allowance += p.model_version > c.model_version
                              ? p.model_version - c.model_version
                              : 1;
      c.matches_since_swap = 0;
    }
    c.model_version = p.model_version;
  }
  const std::uint64_t limit =
      std::min(cycle.expected_after(c.sent_dp), c.next_expected + 8);
  for (std::uint64_t k = c.next_expected; k < limit; ++k) {
    if (cycle.window(k).window_end != p.window_end) continue;
    const std::uint64_t skipped = k - c.next_expected;
    const std::uint64_t allowed = std::min(skipped, c.swap_allowance);
    c.checks.missing_at_swap += allowed;
    c.checks.missing += skipped - allowed;
    c.swap_allowance -= allowed;
    // Predictions carry no run id, and a short run's last window can end
    // at the same time as the next run's first. The first prediction after
    // a swap may then match the dropped window's twin, and the drop shows
    // one window later: the allowance lasts kSwapGraceWindows matches.
    if (++c.matches_since_swap >= kSwapGraceWindows) c.swap_allowance = 0;
    if (c.check_values &&
        std::memcmp(&cycle.window(k).rttf, &p.rttf, sizeof(double)) != 0) {
      ++c.checks.mismatched;
    } else {
      ++c.checks.matched;
    }
    c.next_expected = k + 1;
    c.last_window_end = p.window_end;
    return k;
  }
  if (p.window_end == c.last_window_end) {
    ++c.checks.duplicate;
  } else {
    ++c.checks.out_of_order;
  }
  return std::nullopt;
}

/// Reads whatever predictions have arrived; records window latencies.
void receive(Connection& c, std::int64_t arrival_ns, GenStats& stats) {
  std::array<std::uint8_t, 16384> chunk;
  while (!c.closed) {
    std::size_t got = 0;
    net::IoResult io = net::IoResult::kWouldBlock;
    try {
      io = c.stream.recv_some(chunk.data(), chunk.size(), got);
    } catch (const std::exception&) {
      c.closed = true;
      break;
    }
    if (io == net::IoResult::kWouldBlock) break;
    if (io == net::IoResult::kEof) {
      c.closed = true;
      break;
    }
    try {
      c.decoder.feed(chunk.data(), got);
      while (auto view = c.decoder.next_view()) {
        if (view->type() != net::FrameType::kPrediction) {
          ++c.checks.out_of_order;
          continue;
        }
        if (auto k = match_prediction(c, view->prediction())) {
          const std::int64_t due = c.due_ns(c.cycle->closing_global(*k));
          stats.latency_us.add(static_cast<double>(arrival_ns - due) * 1e-3);
        }
      }
    } catch (const net::ProtocolError&) {
      // A garbled reply stream: the windows it held count as missing.
      ++c.checks.out_of_order;
      c.closed = true;
    }
  }
}

/// Sends every datapoint due by `now` (one send per contiguous chunk).
void send_due(Connection& c, std::uint64_t target_dp, GenStats& stats) {
  const Cycle& cycle = *c.cycle;
  if (target_dp <= c.sent_dp || c.closed) return;
  const std::uint64_t target_bytes = cycle.global_end(target_dp - 1);
  while (c.sent_bytes < target_bytes) {
    const std::uint64_t at = c.sent_bytes % cycle.bytes.size();
    const std::uint64_t chunk =
        std::min<std::uint64_t>(target_bytes - c.sent_bytes,
                                cycle.bytes.size() - at);
    std::size_t sent = 0;
    net::IoResult io = net::IoResult::kWouldBlock;
    try {
      io = c.stream.send_some(cycle.bytes.data() + at, chunk, sent);
    } catch (const std::exception&) {
      c.closed = true;
      return;
    }
    if (io != net::IoResult::kOk) break;
    c.sent_bytes += sent;
  }
  const std::int64_t sent_at = now_ns();
  while (c.sent_dp < target_dp && cycle.global_end(c.sent_dp) <= c.sent_bytes) {
    stats.lateness_us.add(
        static_cast<double>(c.schedules.back().second.lateness_ns(
            c.sent_dp - c.schedules.back().first, sent_at)) *
        1e-3);
    ++c.sent_dp;
    ++stats.dp_sent;
  }
}

/// One generator thread driving its connections through one segment:
/// open-loop sends until the segment ends, then a drain until every window
/// closed by a sent datapoint has been answered.
void generator_segment(std::vector<Connection*> conns, std::int64_t start_ns,
                       const SegmentParams& params, bool traced,
                       GenStats& stats) {
  const double cpu_start = own_thread_cpu_ns();
  const std::int64_t end_ns =
      start_ns + static_cast<std::int64_t>(params.seconds * 1e9);
  const std::int64_t abort_ns =
      static_cast<std::int64_t>(params.abort_lateness_us * 1e3);
  std::vector<pollfd> fds(conns.size());
  for (std::size_t i = 0; i < conns.size(); ++i) {
    fds[i].fd = conns[i]->stream.fd();
    fds[i].events = POLLIN;
  }
  // Traced runs keep one generator tick in kSpanSampling: every tick
  // would be ~10^5 spans per second.
  std::uint64_t tick = 0;
  const auto span = [&](const char* name, std::int64_t from) {
    if (traced && tick % kSpanSampling == 0) {
      stats.spans.push_back({name, from, now_ns(), params.parent_span});
    }
  };
  bool sending = true;
  const std::int64_t drain_deadline =
      end_ns + static_cast<std::int64_t>(kDrainTimeoutSeconds * 1e9);
  while (true) {
    std::int64_t now = now_ns();
    if (sending && now >= end_ns) sending = false;
    std::int64_t next_due = end_ns;
    if (sending) {
      const std::int64_t from = now;
      for (Connection* c : conns) {
        const auto& [first, schedule] = c->schedules.back();
        const std::uint64_t target = first + schedule.due_count(now);
        send_due(*c, target, stats);
        if (abort_ns > 0 && c->sent_dp < target &&
            now - c->due_ns(c->sent_dp) > abort_ns) {
          stats.aborted = true;
        }
        next_due = std::min(next_due, c->due_ns(std::max(target, c->sent_dp)));
      }
      span("gen.send_batch", from);
      if (stats.aborted) sending = false;
    }
    {
      const std::int64_t from = now_ns();
      for (Connection* c : conns) receive(*c, from, stats);
      span("gen.recv_batch", from);
    }
    if (!sending) {
      bool done = true;
      for (Connection* c : conns) {
        if (!c->closed &&
            c->next_expected < c->cycle->expected_after(c->sent_dp)) {
          done = false;
        }
      }
      if (done) break;
      if (now_ns() > drain_deadline) {
        stats.drained = false;
        break;
      }
    }
    ++tick;
    now = now_ns();
    const std::int64_t wait_ns =
        sending ? std::max(kTickNs, next_due - now) : 1'000'000;
    timespec timeout{wait_ns / 1'000'000'000, wait_ns % 1'000'000'000};
    ::ppoll(fds.data(), fds.size(), &timeout, nullptr);
  }
  stats.cpu_ns = own_thread_cpu_ns() - cpu_start;
}

struct SegmentResult {
  double rate_dps = 0.0;      ///< Offered.
  double achieved_dps = 0.0;  ///< Sent / segment length.
  std::uint64_t dp_sent = 0;
  std::uint64_t windows = 0;
  std::optional<double> p50_us;
  std::optional<double> p99_us;
  std::optional<double> max_us;
  std::optional<double> p90_us;
  std::optional<double> lateness_p99_us;
  double service_cpu_ns_per_dp = 0.0;
  double gen_cpu_ns_per_dp = 0.0;
  bool aborted = false;
  bool drained = true;
};

// ---------------------------------------------------------------------------
// The deployment: trace, model, service and connected clients.

struct TraceData {
  data::DataHistory history;
  std::size_t normal_runs = 0;  ///< Leading runs of the undrifted regime.
  /// Run order of each connection's cycle.
  std::vector<std::vector<std::size_t>> orders;
};

/// Runs-to-crash until the campaign holds exactly `samples` datapoints
/// (per-run seeds drawn as sim::run_campaign draws them). The last run is
/// cut short of the target; its fail event keeps its real time, so every
/// window's RTTF label stays exact.
data::DataHistory simulate(std::size_t samples, std::uint64_t seed,
                           const std::optional<sim::CampaignShift>& shift) {
  sim::CampaignConfig config;
  config.seed = seed;
  config.workload.num_browsers = kStudyBrowsers;
  if (shift) {
    // The shift applies to every run: this campaign is the drifted regime.
    sim::CampaignShift s = *shift;
    s.after_run = 0;
    config.shift = s;
  }
  util::Rng seeder(seed);
  data::DataHistory history;
  for (std::size_t r = 0; history.num_samples() < samples; ++r) {
    data::Run run =
        sim::execute_run(sim::effective_config(config, r), seeder()).run;
    const std::size_t room = samples - history.num_samples();
    if (run.samples.size() > room) {
      run.samples.resize(room);
    }
    history.add_run(std::move(run));
  }
  return history;
}

/// The drifted regime of serve_retrain (as examples/continuous_learning):
/// leaks an order of magnitude larger, so runs die far sooner than the
/// pre-shift model expects.
sim::CampaignShift drift_shift() {
  sim::CampaignConfig base;
  sim::CampaignShift shift;
  shift.home_anomalies = base.home_anomalies;
  shift.home_anomalies.leak_min_kb *= 10.0;
  shift.home_anomalies.leak_max_kb *= 10.0;
  shift.home_anomalies.thread_probability = 0.3;
  shift.intensity_min = 2.0;
  shift.intensity_max = 4.0;
  return shift;
}

TraceData make_trace(const WorkloadSpec& w, std::uint64_t seed) {
  TraceData trace;
  if (!w.retrain) {
    trace.history = simulate(w.trace_samples, seed, std::nullopt);
    trace.normal_runs = trace.history.num_runs();
  } else {
    // Normal runs train the starting model; the drifted runs are streamed.
    const data::DataHistory normal =
        simulate(w.trace_samples, seed, std::nullopt);
    const data::DataHistory drifted =
        simulate(w.trace_samples, seed + 1, drift_shift());
    for (const data::Run& run : normal.runs()) trace.history.add_run(run);
    trace.normal_runs = normal.num_runs();
    for (const data::Run& run : drifted.runs()) trace.history.add_run(run);
  }
  // serve_retrain streams only the drifted runs; its served model starts
  // from the normal ones.
  const std::size_t first = w.retrain ? trace.normal_runs : 0;
  const std::size_t runs = trace.history.num_runs() - first;
  for (std::size_t c = 0; c < w.connections; ++c) {
    std::vector<std::size_t> order(runs);
    for (std::size_t i = 0; i < runs; ++i) {
      order[i] = first + (i + c * runs / w.connections) % runs;
    }
    trace.orders.push_back(std::move(order));
  }
  return trace;
}

data::AggregationOptions aggregation_of(const WorkloadSpec& w) {
  data::AggregationOptions options;
  options.window_seconds = w.window_seconds;
  return options;
}

/// Fits the served model on the trace's undrifted runs (serve_retrain's
/// drifted block then degrades it).
std::shared_ptr<const ml::Regressor> fit_served(const WorkloadSpec& w,
                                                const TraceData& trace) {
  data::DataHistory source;
  for (std::size_t r = 0; r < trace.normal_runs; ++r) {
    source.add_run(trace.history.runs()[r]);
  }
  const data::Dataset dataset =
      data::build_dataset(data::aggregate(source, aggregation_of(w)));
  std::shared_ptr<ml::Regressor> model =
      ml::make_model(w.served_model);
  model->fit(dataset.x, dataset.y);
  return model;
}

struct Deployment {
  TraceData trace;
  std::shared_ptr<const ml::Regressor> model;
  std::vector<std::vector<ExpectedWindow>> reference;  ///< Per history run.
  std::vector<Cycle> cycles;
  std::string archive_path;
  std::shared_ptr<serve::ModelStore> store;
  std::unique_ptr<parallel::ThreadPool> trainer_pool;
  std::unique_ptr<learn::ContinuousTrainer> trainer;
  std::unique_ptr<serve::PredictionService> service;
  std::vector<std::unique_ptr<Connection>> connections;

  ~Deployment() {
    // Clients first (the service then sees EOF and closes sessions fast),
    // then the service, then the trainer its run sink feeds.
    connections.clear();
    if (service) service->stop();
    service.reset();
    trainer.reset();
    trainer_pool.reset();
    if (!archive_path.empty()) std::remove(archive_path.c_str());
  }
};

/// The reactor, the scoring pool and (serve_retrain) the trainer's pool.
std::size_t service_threads(const WorkloadSpec& w) {
  return 1 + w.scoring_threads + (w.retrain ? 1 : 0);
}

std::size_t generator_threads(const WorkloadSpec& w) {
  const std::size_t cores = std::max(1u, std::thread::hardware_concurrency());
  const std::size_t service = service_threads(w);
  if (w.connections > cores || service + 1 > cores) {
    throw std::runtime_error(
        "thread budget: " + std::to_string(w.connections) + " connections, " +
        std::to_string(service) + " service threads on " +
        std::to_string(cores) + " cores");
  }
  return std::min({w.connections, cores - service, kMaxGeneratorThreads});
}

void place_threads(const WorkloadSpec& w) {
  g_placement.all = allowed_cpus();
  const std::size_t service = service_threads(w);
  if (g_placement.all.size() <= service) {
    g_placement.service = g_placement.all;
    g_placement.generator = g_placement.all;
    return;
  }
  g_placement.service.assign(g_placement.all.begin(),
                             g_placement.all.begin() + static_cast<std::ptrdiff_t>(service));
  g_placement.generator.assign(g_placement.all.begin() + static_cast<std::ptrdiff_t>(service),
                               g_placement.all.end());
}

/// Campaign simulation, model fitting, service start and client connect:
/// everything before the first measured operation. The offline reference
/// and the encoded streams are the benchmark's own bookkeeping and are
/// prepared outside the timed part. `setup_cpu_seconds` is the process CPU
/// time of the timed part (all threads): unlike its wall time it leaves out
/// waits for a CPU that other tenants of the host hold, and work moved into
/// set-up still shows in it.
std::unique_ptr<Deployment> set_up(const WorkloadSpec& w, std::uint64_t seed,
                                   const std::string& work_dir,
                                   double& setup_cpu_seconds) {
  auto d = std::make_unique<Deployment>();
  const std::int64_t start = now_ns();
  const double cpu_start = process_cpu_ns();
  {
    SpanScope s("setup.sim.run_campaign");
    d->trace = make_trace(w, seed);
  }
  const double sim_seconds = seconds_since(start);
  {
    SpanScope s("setup.ml.fit");
    d->model = fit_served(w, d->trace);
  }
  const double fit_seconds = seconds_since(start) - sim_seconds;
  double cpu_ns = process_cpu_ns() - cpu_start;

  const double width = w.window_seconds;
  for (const data::Run& run : d->trace.history.runs()) {
    d->reference.push_back(
        reference_windows(run, w.retrain ? nullptr : d->model.get(), width));
  }
  for (const auto& order : d->trace.orders) {
    d->cycles.push_back(build_cycle(d->trace.history, order, d->reference));
  }

  const std::int64_t start_service = now_ns();
  const double cpu_start_service = process_cpu_ns();
  // Threads the service (and trainer) create inherit this placement, and
  // are then given one service CPU each, in creation order.
  pin_self(g_placement.service);
  const std::vector<pid_t> threads_before = thread_ids();
  d->store = std::make_shared<serve::ModelStore>();
  {
    SpanScope s("setup.serve.ModelStore::swap");
    d->store->swap(d->model);
  }
  serve::ServiceOptions options;
  options.aggregation = aggregation_of(w);
  options.shards = w.shards;  // 1: see kAllSingleShard.
  options.scoring_threads = w.scoring_threads;
  options.max_sessions = std::max<std::size_t>(16, w.connections);
  options.drain_timeout_seconds = 2.0;
  if (w.retrain) {
    d->archive_path = work_dir + "/model-" + std::to_string(::getpid()) +
                      "-" + std::to_string(now_ns()) + ".bin";
    d->store->watch_file(d->archive_path);
    options.model_poll_seconds = 0.01;
    learn::TrainerOptions trainer;
    trainer.model_name = w.served_model;
    trainer.archive_path = d->archive_path;
    trainer.aggregation = aggregation_of(w);
    // A drift policy that always holds (any S-MAE is above half the best
    // seen) keeps the trainer retraining at a cadence set by the traffic:
    // a candidate per run or per 12 shadow windows, published when it
    // beats the live model. The corpus cap fixes the retrain's input size.
    trainer.min_corpus_runs = 4;
    trainer.candidate_min_windows = 12;
    trainer.drift.horizon = 20;
    trainer.drift.degrade_ratio = 0.5;
    trainer.drift.min_smae_seconds = 0.0;
    trainer.drift.consecutive = 1;
    trainer.smae_fraction = 0.0;  // Plain MAE: never zero, so drift holds.
    trainer.corpus.max_samples = 4000;
    // A private one-thread pool rather than the process-wide one: its
    // thread can then be given a service CPU of its own like the others.
    d->trainer_pool = std::make_unique<parallel::ThreadPool>(1);
    trainer.pool = d->trainer_pool.get();
    SpanScope s("setup.learn.ContinuousTrainer");
    d->trainer = std::make_unique<learn::ContinuousTrainer>(*d->store, trainer);
    options.run_sink = d->trainer->sink();
  }
  {
    SpanScope s("setup.serve.PredictionService");
    d->service = std::make_unique<serve::PredictionService>(options, d->store);
  }
  for (std::size_t c = 0; c < w.connections; ++c) {
    SpanScope s("setup.net.connect");
    net::TcpStream stream = net::TcpStream::connect("127.0.0.1", d->service->port());
    net::send_hello(stream, net::Hello{net::kProtocolVersion,
                                       "perfbench-" + std::to_string(c)});
    stream.set_nonblocking(true);
    auto conn = std::make_unique<Connection>(std::move(stream), d->cycles[c]);
    conn->check_values = !w.retrain;
    conn->model_version = 1;
    d->connections.push_back(std::move(conn));
  }
  pin_self(g_placement.all);
  std::size_t next_cpu = 0;
  for (pid_t tid : thread_ids()) {
    if (std::binary_search(threads_before.begin(), threads_before.end(), tid)) {
      continue;
    }
    cpu_set_t set;
    CPU_ZERO(&set);
    CPU_SET(g_placement.service[next_cpu++ % g_placement.service.size()], &set);
    ::sched_setaffinity(tid, sizeof(set), &set);
  }
  const double service_seconds = seconds_since(start_service);
  cpu_ns += process_cpu_ns() - cpu_start_service;
  setup_cpu_seconds = cpu_ns * 1e-9;
  std::printf(
      "setup: wall: simulation %.4f s, fit %.4f s, service + connect %.4f s; "
      "process cpu %.4f s\n",
      sim_seconds, fit_seconds, service_seconds, setup_cpu_seconds);
  return d;
}

/// Runs one open-loop segment on every connection at `params.rate_dps`.
SegmentResult run_segment(Deployment& d, std::size_t gen_threads,
                          const SegmentParams& params, bool traced,
                          const std::function<void()>& on_tick = {}) {
  const std::size_t conns = d.connections.size();
  const double per_conn = params.rate_dps / static_cast<double>(conns);
  const std::int64_t start = now_ns() + 2'000'000;
  for (std::size_t c = 0; c < conns; ++c) {
    Connection& conn = *d.connections[c];
    OpenLoopSchedule schedule;
    schedule.start_ns = start;
    schedule.rate_per_second = per_conn;
    schedule.offset_seconds =
        static_cast<double>(c) / params.rate_dps;  // Interleave connections.
    conn.schedules.emplace_back(conn.sent_dp, schedule);
    if (conn.schedules.size() > 4) conn.schedules.erase(conn.schedules.begin());
  }
  std::vector<GenStats> stats(gen_threads);
  std::atomic<std::size_t> finished{0};
  const double process_start = process_cpu_ns();
  const double main_start = own_thread_cpu_ns();
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < gen_threads; ++t) {
    std::vector<Connection*> mine;
    for (std::size_t c = t; c < conns; c += gen_threads) {
      mine.push_back(d.connections[c].get());
    }
    threads.emplace_back([&, t, mine] {
      pin_self(g_placement.generator);
      // Default timer slack (50 us) would dominate a 20 us send tick.
      ::prctl(PR_SET_TIMERSLACK, 1UL, 0, 0, 0);
      try {
        generator_segment(mine, start, params, traced, stats[t]);
      } catch (const std::exception& e) {
        std::fprintf(stderr, "generator thread failed: %s\n", e.what());
        for (Connection* c : mine) c->closed = true;
        stats[t].drained = false;
      }
      finished.fetch_add(1);
    });
  }
  while (finished.load() < gen_threads) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    if (on_tick) on_tick();
  }
  for (std::thread& thread : threads) thread.join();
  const double main_cpu = own_thread_cpu_ns() - main_start;
  const double process_cpu = process_cpu_ns() - process_start;

  SegmentResult r;
  r.rate_dps = params.rate_dps;
  LogHistogram latency;
  LogHistogram lateness;
  double gen_cpu = 0.0;
  for (GenStats& s : stats) {
    latency.merge(s.latency_us);
    lateness.merge(s.lateness_us);
    r.dp_sent += s.dp_sent;
    gen_cpu += s.cpu_ns;
    r.aborted = r.aborted || s.aborted;
    r.drained = r.drained && s.drained;
    if (traced) g_tracer.append(s.spans);
  }
  r.windows = latency.count();
  r.achieved_dps = static_cast<double>(r.dp_sent) / params.seconds;
  r.p50_us = latency.percentile(0.50);
  r.p99_us = latency.percentile(0.99);
  r.max_us = latency.percentile(1.0, 0);
  r.p90_us = latency.percentile(0.90);
  r.lateness_p99_us = lateness.percentile(0.99);
  r.service_cpu_ns_per_dp = perfbench::service_cpu_ns_per_dp(
      process_cpu, gen_cpu + main_cpu, r.dp_sent);
  r.gen_cpu_ns_per_dp =
      r.dp_sent > 0 ? gen_cpu / static_cast<double>(r.dp_sent) : 0.0;
  return r;
}

/// Ends every session with Bye, waits for the server's final flush, and
/// checks it against the reference for the partial run left open.
void finish_sessions(const WorkloadSpec& w, Deployment& d, Checks& checks) {
  for (auto& conn : d.connections) {
    Connection& c = *conn;
    const Cycle& cycle = *c.cycle;
    std::vector<std::uint8_t> bye;
    net::FrameEncoder::encode_bye(bye);
    c.stream.set_nonblocking(false);
    try {
      // A step that stopped on a growing backlog may have left a frame
      // half sent; finish it so Bye starts on a frame boundary.
      if (c.sent_bytes < cycle.global_end(c.sent_dp) &&
          (c.sent_dp == 0 || c.sent_bytes > cycle.global_end(c.sent_dp - 1))) {
        const std::uint64_t at = c.sent_bytes % cycle.bytes.size();
        c.stream.send_all(cycle.bytes.data() + at,
                          cycle.global_end(c.sent_dp) - c.sent_bytes);
        c.sent_bytes = cycle.global_end(c.sent_dp);
        ++c.sent_dp;
      }
      c.stream.send_all(bye.data(), bye.size());
    } catch (const std::exception&) {
      c.closed = true;
    }
    c.stream.shutdown_write();
    // Expected flush: the open window of the run the stream stopped in.
    std::optional<ExpectedWindow> flush;
    if (c.sent_dp > 0) {
      const std::uint64_t last = (c.sent_dp - 1) % cycle.n_dp();
      const data::Run& run = d.trace.history.runs()[cycle.dp_run[last]];
      const std::size_t prefix = cycle.dp_in_run[last] + 1;
      if (prefix < run.samples.size()) {
        data::Run partial;
        partial.samples.assign(run.samples.begin(),
                               run.samples.begin() +
                                   static_cast<std::ptrdiff_t>(prefix));
        const double open_start =
            window_start_of(partial.samples.back().tgen, w.window_seconds);
        // aggregate() keeps only windows the run outlived: let this one
        // end exactly at the open window's end.
        partial.fail_time = open_start + w.window_seconds;
        data::DataHistory single;
        single.add_run(partial);
        data::AggregationOptions options = aggregation_of(w);
        options.include_unfailed_runs = true;
        const auto points = data::aggregate(single, options);
        if (!points.empty() && points.back().window_start == open_start) {
          ExpectedWindow e;
          e.window_end = points.back().window_end;
          const auto row = data::to_input_vector(points.back());
          e.rttf = d.model->predict_row(row);
          flush = e;
        }
      }
    }
    std::vector<net::Prediction> tail;
    if (!c.closed) {
      try {
        while (auto frame = net::receive_frame(c.stream, c.decoder)) {
          if (const auto* p = std::get_if<net::Prediction>(&*frame)) {
            tail.push_back(*p);
          }
        }
      } catch (const std::exception&) {
        ++c.checks.out_of_order;
      }
    }
    // Anything still owed by the last segment arrives first.
    std::size_t i = 0;
    while (i < tail.size() &&
           c.next_expected < cycle.expected_after(c.sent_dp)) {
      match_prediction(c, tail[i++]);
    }
    // Windows still owed may have been dropped by swaps after the last
    // prediction this connection saw.
    const std::uint32_t version = d.store->version();
    if (c.model_version != 0 && version > c.model_version) {
      c.swap_allowance += version - c.model_version;
    }
    const std::uint64_t owed = cycle.expected_after(c.sent_dp) - c.next_expected;
    const std::uint64_t allowed = std::min(owed, c.swap_allowance);
    c.checks.missing_at_swap += allowed;
    c.checks.missing += owed - allowed;
    if (flush) {
      if (i < tail.size() && tail[i].window_end == flush->window_end) {
        if (c.check_values &&
            std::memcmp(&flush->rttf, &tail[i].rttf, sizeof(double)) != 0) {
          ++c.checks.mismatched;
        } else {
          ++c.checks.matched;
        }
        ++i;
      } else if (!w.retrain) {
        ++c.checks.missing;
      }
    }
    c.checks.out_of_order += tail.size() - i;
    checks.add(c.checks);
    c.closed = true;
  }
}

// ---------------------------------------------------------------------------
// Build phases.

bool all_finite(const std::vector<double>& values) {
  return std::all_of(values.begin(), values.end(),
                     [](double v) { return std::isfinite(v); });
}

struct BuildResult {
  std::vector<double> seconds;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
};

core::PipelineOptions zoo_options() {
  core::PipelineOptions options;
  options.models = kZoo;
  options.run_feature_selection = true;
  options.train_fraction = kStudyTrainFraction;
  options.seed = kStudySplitSeed;
  return options;
}

/// train_zoo: whole core::run_pipeline runs; a model that throws or
/// predicts a non-finite value counts as failed.
void build_zoo(const data::DataHistory& history, double budget_seconds,
               BuildResult& out) {
  const std::int64_t start = now_ns();
  while (out.seconds.size() < 3 || seconds_since(start) < budget_seconds) {
    const std::int64_t t = now_ns();
    try {
      const core::PipelineResult result =
          core::run_pipeline(history, zoo_options());
      out.seconds.push_back(seconds_since(t));
      for (const auto* outcomes :
           {&result.using_all_features, &result.using_selected_features}) {
        for (const core::ModelOutcome& m : *outcomes) {
          ++out.attempted;
          if (!all_finite(m.predicted)) ++out.failed;
        }
      }
    } catch (const std::exception& e) {
      std::fprintf(stderr, "run_pipeline failed: %s\n", e.what());
      ++out.attempted;
      ++out.failed;
      out.seconds.push_back(seconds_since(t));
    }
  }
}

/// serve_light: history -> aggregate -> fit of the served
/// model, repeated.
void build_served(const WorkloadSpec& w, const TraceData& trace,
                  double budget_seconds, BuildResult& out) {
  const std::int64_t start = now_ns();
  while (out.seconds.size() < 3 || seconds_since(start) < budget_seconds) {
    const std::int64_t t = now_ns();
    ++out.attempted;
    try {
      const auto model = fit_served(w, trace);
      out.seconds.push_back(seconds_since(t));
      std::array<double, data::kInputCount> probe{};
      if (!std::isfinite(model->predict_row(probe))) ++out.failed;
    } catch (const std::exception& e) {
      std::fprintf(stderr, "fit failed: %s\n", e.what());
      ++out.failed;
      out.seconds.push_back(seconds_since(t));
    }
  }
}

// ---------------------------------------------------------------------------
// Per-layer replay (traced run only).

/// Repeats `body` until at least `min_seconds` have passed; returns the
/// mean wall time per call in ns.
double time_per_call(const std::function<void()>& body, double min_seconds) {
  std::size_t calls = 0;
  const std::int64_t start = now_ns();
  do {
    body();
    ++calls;
  } while (seconds_since(start) < min_seconds);
  return static_cast<double>(now_ns() - start) / static_cast<double>(calls);
}

struct ReplayResult {
  double decode_ns_per_dp = 0.0;
  double encode_ns_per_window = 0.0;
  double window_features_ns = 0.0;
  double observe_ns_per_dp = 0.0;
  double predict_row_ns = 0.0;
  double windows_per_dp = 0.0;
};

/// The connection-0 byte stream, single-threaded, through each layer's
/// public per-datapoint / per-window functions.
ReplayResult replay_layers(const WorkloadSpec& w, const Deployment& d,
                           const ml::Regressor& model) {
  SpanScope root("replay");
  const Cycle& cycle = d.cycles.front();
  const data::DataHistory& history = d.trace.history;
  const auto& order = d.trace.orders.front();
  const auto dps = static_cast<double>(cycle.n_dp());
  constexpr double kMin = 0.25;
  ReplayResult r;

  // Window inputs of the stream, as the server would aggregate them.
  data::AggregationOptions options = aggregation_of(w);
  std::vector<data::AggregatedDatapoint> points;
  std::vector<std::pair<std::size_t, std::size_t>> spans;  // [first, count)
  std::vector<const data::RawDatapoint*> bases;
  for (std::size_t run_index : order) {
    const data::Run& run = history.runs()[run_index];
    data::DataHistory single;
    data::Run copy = run;
    copy.failed = true;
    single.add_run(copy);
    for (const auto& p : data::aggregate(single, options)) points.push_back(p);
    std::size_t i = 0;
    while (i < run.samples.size()) {
      const double start = window_start_of(run.samples[i].tgen, w.window_seconds);
      std::size_t j = i;
      while (j < run.samples.size() &&
             window_start_of(run.samples[j].tgen, w.window_seconds) == start) {
        ++j;
      }
      if (j - i >= options.min_samples_per_window) {
        bases.push_back(run.samples.data());
        spans.emplace_back(i, j - i);
      }
      i = j;
    }
  }
  r.windows_per_dp = static_cast<double>(cycle.windows.size()) / dps;

  {
    SpanScope s("replay.net.decode");
    r.decode_ns_per_dp =
        time_per_call(
            [&] {
              net::FrameDecoder decoder;
              data::RawDatapoint point;
              for (std::size_t at = 0; at < cycle.bytes.size(); at += 16384) {
                decoder.feed(cycle.bytes.data() + at,
                             std::min<std::size_t>(16384, cycle.bytes.size() - at));
                while (auto view = decoder.next_view()) {
                  if (view->type() == net::FrameType::kDatapoint) {
                    view->datapoint(point);
                  }
                }
              }
            },
            kMin) /
        dps;
  }
  {
    SpanScope s("replay.core.observe");
    r.observe_ns_per_dp =
        time_per_call(
            [&] {
              std::shared_ptr<const ml::Regressor> shared(&model,
                                                          [](const ml::Regressor*) {});
              core::OnlinePredictor predictor(shared, options);
              predictor.reserve_window(1024);
              for (std::size_t run_index : order) {
                for (const auto& sample : history.runs()[run_index].samples) {
                  (void)predictor.observe(sample);
                }
                predictor.reset();
              }
            },
            kMin) /
        dps;
  }
  {
    SpanScope s("replay.data.window_features");
    r.window_features_ns =
        time_per_call(
            [&] {
              data::AggregatedDatapoint point;
              for (std::size_t k = 0; k < spans.size(); ++k) {
                data::compute_window_features(bases[k] + spans[k].first,
                                              spans[k].second, nullptr, point);
              }
            },
            kMin) /
        static_cast<double>(std::max<std::size_t>(1, spans.size()));
  }
  {
    SpanScope s("replay.ml.predict_row");
    std::vector<std::array<double, data::kInputCount>> rows;
    rows.reserve(points.size());
    for (const auto& p : points) rows.push_back(data::to_input_vector(p));
    double sink = 0.0;
    r.predict_row_ns =
        time_per_call(
            [&] {
              for (const auto& row : rows) sink += model.predict_row(row);
            },
            kMin) /
        static_cast<double>(std::max<std::size_t>(1, rows.size()));
    if (!std::isfinite(sink)) r.predict_row_ns = -1.0;
  }
  {
    SpanScope s("replay.net.encode");
    std::vector<std::uint8_t> out;
    out.reserve(64);
    const std::size_t n = std::max<std::size_t>(1, points.size());
    r.encode_ns_per_window =
        time_per_call(
            [&] {
              for (std::size_t k = 0; k < n; ++k) {
                out.clear();
                net::Prediction p;
                p.window_end = points.empty() ? 0.0 : points[k].window_end;
                p.rttf = static_cast<double>(k);
                net::FrameEncoder::encode_prediction(out, p);
              }
            },
            kMin) /
        static_cast<double>(n);
  }
  return r;
}

struct ZooResult {
  double aggregate_s = 0.0;
  double select_features_s = 0.0;
  std::map<std::string, double> fit_s;
  std::map<std::string, double> predict_ns_per_row;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
};

/// The run_pipeline phases called one by one, each in its own span, on
/// the workload's history: aggregate + build_dataset, the 70/30 split,
/// select_features over the paper's λ grid, then fit and batched predict
/// per model (lasso over the whole λ grid, as the pipeline expands it).
ZooResult replay_zoo(const data::DataHistory& history, double window_seconds) {
  SpanScope root("zoo");
  ZooResult r;
  data::AggregationOptions options;
  options.window_seconds = window_seconds;
  data::Dataset dataset;
  {
    SpanScope s("zoo.data.aggregate");
    const std::int64_t t = now_ns();
    dataset = data::build_dataset(data::aggregate(history, options));
    r.aggregate_s = seconds_since(t);
  }
  util::Rng rng(kStudySplitSeed);
  data::TrainValidationSplit split;
  {
    SpanScope s("zoo.data.split");
    split = data::split_dataset(dataset, kStudyTrainFraction, rng);
  }
  {
    SpanScope s("zoo.core.select_features");
    const std::int64_t t = now_ns();
    (void)core::select_features(split.train, core::paper_lambda_grid());
    r.select_features_s = seconds_since(t);
  }
  for (const std::string& name : kZoo) {
    SpanScope s("zoo.ml." + name);
    std::vector<util::Config> variants;
    if (name == "lasso") {
      for (double lambda : core::paper_lambda_grid()) {
        util::Config params;
        char buffer[64];
        std::snprintf(buffer, sizeof(buffer), "%.9g", lambda);
        params.set("lasso.lambda", buffer);
        variants.push_back(params);
      }
    } else {
      variants.emplace_back();
    }
    double fit = 0.0;
    double predict = 0.0;
    for (const util::Config& params : variants) {
      ++r.attempted;
      try {
        auto model = ml::make_model(name, params);
        std::int64_t t = now_ns();
        {
          SpanScope f("zoo.ml.fit");
          model->fit(split.train.x, split.train.y);
        }
        fit += seconds_since(t);
        t = now_ns();
        std::vector<double> predicted;
        {
          SpanScope p("zoo.ml.predict");
          predicted = model->predict(split.validation.x);
        }
        predict += static_cast<double>(now_ns() - t);
        if (!all_finite(predicted)) ++r.failed;
      } catch (const std::exception& e) {
        std::fprintf(stderr, "zoo model %s failed: %s\n", name.c_str(), e.what());
        ++r.failed;
      }
    }
    r.fit_s[name] = fit;
    r.predict_ns_per_row[name] =
        predict / static_cast<double>(std::max<std::size_t>(1, split.validation.num_rows()));
  }
  return r;
}

// ---------------------------------------------------------------------------
// obs registry deltas.

struct SeriesTotals {
  double value = 0.0;           ///< Counter sum over label sets.
  std::uint64_t count = 0;      ///< Histogram count sum.
  double sum = 0.0;             ///< Histogram sum.
};

std::map<std::string, SeriesTotals> registry_totals() {
  std::map<std::string, SeriesTotals> totals;
  for (const obs::MetricSnapshot& m : obs::Registry::global().snapshot()) {
    SeriesTotals& t = totals[m.name];
    if (m.type == obs::MetricType::kHistogram) {
      t.count += m.histogram.count;
      t.sum += m.histogram.sum;
    } else {
      t.value += m.value;
    }
  }
  return totals;
}

struct RegistryDelta {
  std::map<std::string, SeriesTotals> before;
  std::map<std::string, SeriesTotals> after;

  [[nodiscard]] double value(const std::string& name) const {
    return get(after, name).value - get(before, name).value;
  }
  [[nodiscard]] double count(const std::string& name) const {
    return static_cast<double>(get(after, name).count - get(before, name).count);
  }
  [[nodiscard]] double sum(const std::string& name) const {
    return get(after, name).sum - get(before, name).sum;
  }
  [[nodiscard]] double mean(const std::string& name) const {
    const double n = count(name);
    return n > 0.0 ? sum(name) / n : 0.0;
  }

 private:
  static SeriesTotals get(const std::map<std::string, SeriesTotals>& m,
                          const std::string& name) {
    const auto it = m.find(name);
    return it == m.end() ? SeriesTotals{} : it->second;
  }
};

// ---------------------------------------------------------------------------
// Output.

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.17g", v);
  return buffer;
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const std::vector<MetricDef>& defs,
                  const std::map<std::string, double>& values) {
  std::string line = "{\"correct\": ";
  line += correct ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(attempted);
  line += ", \"failed\": " + std::to_string(failed);
  line += ", \"metrics\": {";
  bool first = true;
  for (const MetricDef& def : defs) {
    const auto it = values.find(def.name);
    const double v = it == values.end() ? std::nan("") : it->second;
    if (!first) line += ", ";
    first = false;
    line += "\"" + def.name + "\": {\"value\": " + json_number(v) +
            ", \"unit\": \"" + def.unit + "\"}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
}

void print_context(const WorkloadSpec& w, std::uint64_t seed, double seconds,
                   bool trace, const std::string& source) {
#ifdef PERFBENCH_BUILD_TYPE
  const char* build_type = PERFBENCH_BUILD_TYPE;
#else
  const char* build_type = "unknown";
#endif
#ifdef PERFBENCH_SIMD
  const char* simd = PERFBENCH_SIMD;
#else
  const char* simd = "unknown";
#endif
  std::printf(
      "context {\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %g, "
      "\"trace\": %d, \"host_cores\": %u, \"build_type\": \"%s\", "
      "\"F2PM_SIMD\": \"%s\", \"compiler\": \"%s\", \"source\": \"%s\", "
      "\"params\": \"%s\", \"generator_threads\": %zu, "
      "\"service_threads\": %zu}\n",
      w.name, static_cast<unsigned long long>(seed), seconds, trace ? 1 : 0,
      std::thread::hardware_concurrency(), build_type, simd,
      json_escape(__VERSION__).c_str(), json_escape(source).c_str(),
      describe(w).c_str(), generator_threads(w), service_threads(w));
}

void write_spans(const std::string& path) {
  const std::vector<perfbench::Span> spans = g_tracer.spans();
  const std::vector<std::int64_t> self = perfbench::self_times(spans);
  std::ofstream out(path);
  out << "[\n";
  for (std::size_t i = 0; i < spans.size(); ++i) {
    out << "  {\"id\": " << i << ", \"name\": \"" << spans[i].name
        << "\", \"start_ns\": " << spans[i].start_ns
        << ", \"end_ns\": " << spans[i].end_ns
        << ", \"parent\": " << spans[i].parent << ", \"self_ns\": " << self[i]
        << "}" << (i + 1 < spans.size() ? "," : "") << "\n";
  }
  out << "]\n";
  // Human-readable self-time summary by span name.
  std::map<std::string, std::pair<std::size_t, double>> by_name;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    auto& [count, total] = by_name[spans[i].name];
    ++count;
    total += static_cast<double>(self[i]) * 1e-9;
  }
  std::printf("spans: %zu written to %s; self time by name:\n", spans.size(),
              path.c_str());
  for (const auto& [name, entry] : by_name) {
    std::printf("  %-32s %8zu spans %12.6f s self\n", name.c_str(),
                entry.first, entry.second);
  }
}

// ---------------------------------------------------------------------------
// The two run modes.

/// Seed when none is given (README.md names the held-out seed).
constexpr std::uint64_t kDefaultSeed = 1;

struct Args {
  std::string workload;
  std::uint64_t seed = kDefaultSeed;
  double seconds = 10.0;
  bool trace = false;
  std::string source = "unknown";
  std::string work_dir = ".bench_build/run";
};

/// Shared tail of both modes: Bye, final flush, service counters.
void close_out(const WorkloadSpec& w, Deployment& d, Checks& checks,
               std::uint64_t& failed_sessions) {
  finish_sessions(w, d, checks);
  d.service->stop();
  const serve::ServiceStats stats = d.service->stats();
  failed_sessions = stats.sessions_rejected + stats.sessions_evicted +
                    stats.protocol_errors;
}

/// One timed set-up, its campaign and fit pinned to the next CPU in turn.
/// On a shared host each vCPU's speed differs from the others' by up to
/// half and changes over seconds, and a thread left alone stays on one
/// vCPU. Set-ups spread over every CPU and both ends of the run, reported
/// as their minimum, give a figure that holds still between runs: host
/// contention only ever adds time, and with set-ups on every CPU at least
/// one lands on a CPU running at full speed.
std::unique_ptr<Deployment> timed_setup(const WorkloadSpec& w, const Args& args,
                                        std::vector<double>& setups) {
  if (!g_placement.all.empty()) {
    pin_self({g_placement.all[setups.size() % g_placement.all.size()]});
  }
  double seconds = 0.0;
  std::unique_ptr<Deployment> d = set_up(w, args.seed, args.work_dir, seconds);
  setups.push_back(seconds);
  return d;
}

int run_untraced(const WorkloadSpec& w, const Args& args) {
  std::vector<double> setups;
  std::unique_ptr<Deployment> d;
  for (std::size_t i = 0; i < kSetupsAtStart; ++i) {
    d.reset();
    d = timed_setup(w, args, setups);
  }
  const std::size_t gens = generator_threads(w);
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  // Build phase.
  BuildResult build;
  double serve_seconds = args.seconds;
  if (w.zoo) {
    const data::DataHistory& history = d->trace.history;
    build_zoo(history, args.seconds * kZooBuildShare, build);
    serve_seconds = args.seconds * (1.0 - kZooBuildShare);
  } else if (!w.retrain) {
    build_served(w, d->trace, args.seconds * kFitBuildShare, build);
    serve_seconds = args.seconds * (1.0 - kFitBuildShare);
  }

  // Serve phase: fixed-rate segments, then the SLO rate search.
  std::vector<double> retrain_seconds;
  std::uint64_t last_completed = 0;
  const auto watch_retrains = [&] {
    if (!d->trainer) return;
    const learn::TrainerStats s = d->trainer->stats();
    if (s.retrains_completed != last_completed) {
      last_completed = s.retrains_completed;
      retrain_seconds.push_back(s.last_retrain_seconds);
    }
  };
  const Cycle& first = d->cycles.front();
  const double windows_per_dp = static_cast<double>(first.windows.size()) /
                                static_cast<double>(first.n_dp());
  const int segments = std::clamp(
      static_cast<int>(serve_seconds * kFixedShare * w.rate_dps *
                       windows_per_dp / kSegmentWindows),
      kMinSegments, kMaxSegments);
  const double fixed_seconds = serve_seconds * kFixedShare / segments;
  const double step_seconds = serve_seconds * (1.0 - kFixedShare) / kSearchSteps;
  std::vector<double> p50s;
  std::vector<double> p99s;
  std::vector<double> p90s;
  std::vector<double> cpus;
  bool fixed_pass = true;
  for (int i = 0; i < segments; ++i) {
    SegmentParams params;
    params.rate_dps = w.rate_dps;
    params.seconds = fixed_seconds;
    const SegmentResult r = run_segment(*d, gens, params, false, watch_retrains);
    std::printf(
        "fixed %d: %.0f dp/s offered, %.0f sent, %llu windows, p50 %.1f us, "
        "p90 %.1f us, p99 %.1f us, cpu %.1f ns/dp, gen lateness p99 %.1f us\n",
        i, r.rate_dps, r.achieved_dps, static_cast<unsigned long long>(r.windows),
        r.p50_us.value_or(NAN), r.p90_us.value_or(NAN), r.p99_us.value_or(NAN),
        r.service_cpu_ns_per_dp,
        r.lateness_p99_us.value_or(NAN));
    if (!r.p50_us || !r.p99_us) {
      std::fprintf(stderr, "too few windows for a p99 at the fixed rate\n");
      fixed_pass = false;
      continue;
    }
    p50s.push_back(*r.p50_us);
    p99s.push_back(*r.p99_us);
    p90s.push_back(*r.p90_us);
    cpus.push_back(r.service_cpu_ns_per_dp);
  }
  fixed_pass = fixed_pass && median(p99s) <= w.p99_limit_us;
  // Memory at the operating point: the search below overloads the service
  // on purpose, and what queues up then depends on how far past
  // saturation each step lands.
  const double rss_mb = peak_rss_mb();
  double lo = fixed_pass ? w.rate_dps : w.rate_dps / kSearchCeiling;
  double hi = fixed_pass ? w.rate_dps * kSearchCeiling : w.rate_dps;
  double slo_rate = 0.0;
  for (int step = 0; step < kSearchSteps; ++step) {
    SegmentParams params;
    params.rate_dps = std::sqrt(lo * hi);
    params.seconds = step_seconds;
    params.abort_lateness_us = kAbortLimits * w.p99_limit_us;
    SegmentResult r;
    bool pass = false;
    // A stall, or a spell on a slow vCPU, can push a step over; a rate
    // misses only when every try at it misses.
    for (int attempt = 0; attempt < kSearchAttempts && !pass; ++attempt) {
      r = run_segment(*d, gens, params, false, watch_retrains);
      // Below ~1000 windows a step has no p99; its slowest window must
      // then meet the limit.
      const std::optional<double> tail = r.p99_us ? r.p99_us : r.max_us;
      pass = !r.aborted && r.drained && tail && *tail <= w.p99_limit_us;
      std::printf(
          "search %d.%d: %.0f dp/s offered, %.0f sent, p99 %.1f us%s -> %s\n",
          step, attempt, r.rate_dps, r.achieved_dps, r.p99_us.value_or(NAN),
          r.aborted ? " (backlog grew)" : "", pass ? "meets" : "misses");
    }
    if (pass) {
      lo = params.rate_dps;
      slo_rate = std::max(slo_rate, r.achieved_dps);
    } else {
      hi = params.rate_dps;
    }
  }
  if (slo_rate == 0.0 && fixed_pass) slo_rate = w.rate_dps;
  watch_retrains();

  Checks checks;
  std::uint64_t failed_sessions = 0;
  close_out(w, *d, checks, failed_sessions);
  if (w.retrain) {
    watch_retrains();
    build.seconds = retrain_seconds;
    if (!retrain_seconds.empty()) {
      std::printf("retrains: %zu, median %.4f s, min %.4f s, max %.4f s\n",
                  retrain_seconds.size(), median(retrain_seconds),
                  *std::min_element(retrain_seconds.begin(), retrain_seconds.end()),
                  *std::max_element(retrain_seconds.begin(), retrain_seconds.end()));
    }
    build.attempted = retrain_seconds.size();
    const learn::TrainerStats s = d->trainer->stats();
    build.failed = s.retrains_failed;
    build.attempted += s.retrains_failed;
  }
  attempted += checks.matched + checks.failed() + failed_sessions + build.attempted;
  failed += checks.failed() + failed_sessions + build.failed;
  std::printf(
      "checks: %llu matched, %llu missing (+%llu at model swaps), %llu "
      "duplicate, %llu out of order, %llu mismatched, %llu failed sessions; "
      "builds: %zu, %llu failed\n",
      static_cast<unsigned long long>(checks.matched),
      static_cast<unsigned long long>(checks.missing),
      static_cast<unsigned long long>(checks.missing_at_swap),
      static_cast<unsigned long long>(checks.duplicate),
      static_cast<unsigned long long>(checks.out_of_order),
      static_cast<unsigned long long>(checks.mismatched),
      static_cast<unsigned long long>(failed_sessions), build.seconds.size(),
      static_cast<unsigned long long>(build.failed));

  d.reset();
  for (std::size_t i = 0; i < kSetupsAtEnd; ++i) timed_setup(w, args, setups);

  std::map<std::string, double> values;
  values["setup_s"] = *std::min_element(setups.begin(), setups.end());
  std::printf("setups: %zu, min %.4f s, median %.4f s cpu\n", setups.size(),
              values["setup_s"], median(setups));
  values["build_s"] = build.seconds.empty() ? std::nan("") : median(build.seconds);
  values["slo_rate_dps"] = slo_rate > 0.0 ? slo_rate : std::nan("");
  values["window_p50_us"] = p50s.empty() ? std::nan("") : median(p50s);
  values["window_p90_us"] = p90s.empty() ? std::nan("") : median(p90s);
  values["cpu_ns_per_dp"] = cpus.empty() ? std::nan("") : median(cpus);
  values["peak_rss_mb"] = rss_mb;
  bool complete = true;
  for (const auto& [name, v] : values) complete = complete && std::isfinite(v);
  print_result(complete && failed == 0, std::max<std::uint64_t>(1, attempted),
               failed, end_to_end_metrics(), values);
  return 0;
}

int run_traced(const WorkloadSpec& w, const Args& args) {
  double setup_seconds = 0.0;
  g_tracer.set_enabled(true);
  std::unique_ptr<Deployment> d;
  {
    SpanScope s("setup");
    d = set_up(w, args.seed, args.work_dir, setup_seconds);
  }
  const std::size_t gens = generator_threads(w);

  // Serve: untraced and traced fixed-rate segments, alternating; the obs
  // deltas and learn counts cover the traced ones.
  const double segment = args.seconds * 0.15;
  std::vector<double> plain_cpu;
  std::vector<double> traced_cpu;
  std::vector<double> traced_p99;
  std::vector<double> gen_cpu;
  std::vector<double> lateness;
  std::uint64_t traced_windows = 0;
  RegistryDelta registry;
  registry.before = registry_totals();
  const learn::TrainerStats learn_before =
      d->trainer ? d->trainer->stats() : learn::TrainerStats{};
  RegistryDelta traced_delta;
  for (int i = 0; i < 4; ++i) {
    const bool traced = i % 2 == 1;
    SegmentParams params;
    params.rate_dps = w.rate_dps;
    params.seconds = segment;
    g_tracer.set_enabled(traced);
    std::map<std::string, SeriesTotals> before;
    if (traced) before = registry_totals();
    SegmentResult r;
    {
      SpanScope s("serve.segment");
      params.parent_span = s.id();
      r = run_segment(*d, gens, params, traced);
    }
    if (traced) {
      const auto after = registry_totals();
      for (const auto& [name, t] : after) {
        SeriesTotals& acc = traced_delta.after[name];
        const auto it = before.find(name);
        const SeriesTotals b = it == before.end() ? SeriesTotals{} : it->second;
        acc.value += t.value - b.value;
        acc.count += t.count - b.count;
        acc.sum += t.sum - b.sum;
      }
      traced_cpu.push_back(r.service_cpu_ns_per_dp);
      traced_p99.push_back(r.p99_us.value_or(NAN));
      gen_cpu.push_back(r.gen_cpu_ns_per_dp);
      lateness.push_back(r.lateness_p99_us.value_or(NAN));
      traced_windows += r.windows;
    } else {
      plain_cpu.push_back(r.service_cpu_ns_per_dp);
    }
    std::printf("%s segment: cpu %.1f ns/dp, p99 %.1f us, %llu windows\n",
                traced ? "traced" : "plain", r.service_cpu_ns_per_dp,
                r.p99_us.value_or(NAN), static_cast<unsigned long long>(r.windows));
  }
  g_tracer.set_enabled(true);
  Checks checks;
  std::uint64_t failed_sessions = 0;
  {
    SpanScope s("serve.finish");
    close_out(w, *d, checks, failed_sessions);
  }
  const learn::TrainerStats learn_after =
      d->trainer ? d->trainer->stats() : learn::TrainerStats{};
  registry.after = registry_totals();

  std::shared_ptr<const ml::Regressor> served = d->model;
  if (w.retrain) {
    if (auto current = d->store->current()) served = current->regressor;
  }
  const ReplayResult replay = replay_layers(w, *d, *served);
  const ZooResult zoo = replay_zoo(d->trace.history, w.window_seconds);

  perfbench::CpuBudget budget;
  budget.total_ns_per_dp = median(traced_cpu);
  budget.decode_ns_per_dp = replay.decode_ns_per_dp;
  budget.observe_ns_per_dp = replay.observe_ns_per_dp;
  budget.encode_ns_per_dp = replay.encode_ns_per_window * replay.windows_per_dp;
  std::printf(
      "budget: service cpu %.1f ns/dp = decode %.1f + observe %.1f (of which "
      "predict %.1f) + encode %.1f + residual %.1f\n",
      budget.total_ns_per_dp, budget.decode_ns_per_dp, budget.observe_ns_per_dp,
      replay.predict_row_ns * replay.windows_per_dp, budget.encode_ns_per_dp,
      budget.residual_ns_per_dp());

  std::map<std::string, double> v;
  const double dp = traced_delta.value("f2pm_serve_datapoints_received_total");
  const double windows = traced_delta.value("f2pm_serve_predictions_sent_total");
  v["net.decode_ns_per_dp"] = replay.decode_ns_per_dp;
  v["net.encode_ns_per_window"] = replay.encode_ns_per_window;
  v["net.bytes_in_per_dp"] =
      dp > 0 ? traced_delta.value("f2pm_net_bytes_in_total") / dp : std::nan("");
  v["net.frames_out_per_window"] =
      windows > 0 ? traced_delta.value("f2pm_net_frames_out_total") / windows
                  : std::nan("");
  v["data.window_features_ns"] = replay.window_features_ns;
  v["data.aggregate_s"] = zoo.aggregate_s;
  v["core.observe_ns_per_dp"] = replay.observe_ns_per_dp;
  v["core.select_features_s"] = zoo.select_features_s;
  v["ml.predict_row_ns"] = replay.predict_row_ns;
  for (const std::string& m : kZoo) {
    v["ml.fit_s." + m] = zoo.fit_s.at(m);
    v["ml.predict_ns_per_row." + m] = zoo.predict_ns_per_row.at(m);
  }
  v["serve.cpu_ns_per_dp"] = budget.total_ns_per_dp;
  v["serve.window_p99_us"] = median(traced_p99);
  v["serve.residual_ns_per_dp"] = budget.residual_ns_per_dp();
  const double batches = traced_delta.count("f2pm_serve_scoring_batch_seconds");
  v["serve.dp_per_batch"] = batches > 0 ? dp / batches : std::nan("");
  v["parallel.task_wait_us"] = traced_delta.mean("f2pm_pool_task_wait_seconds") * 1e6;
  v["parallel.task_run_us"] = traced_delta.mean("f2pm_pool_task_run_seconds") * 1e6;
  v["learn.drift_verdicts"] =
      static_cast<double>(learn_after.drift_verdicts - learn_before.drift_verdicts);
  v["learn.retrains"] = static_cast<double>(learn_after.retrains_completed -
                                            learn_before.retrains_completed);
  v["learn.publishes"] =
      static_cast<double>(learn_after.publishes - learn_before.publishes);
  v["learn.swaps"] = registry.value("f2pm_serve_model_hot_swaps_total");
  v["gen.lateness_p99_us"] = median(lateness);
  v["gen.cpu_ns_per_dp"] = median(gen_cpu);
  v["trace.overhead_frac"] = median(traced_cpu) / median(plain_cpu) - 1.0;

  ::mkdir(".bench_build", 0755);
  ::mkdir(".bench_build/traces", 0755);
  write_spans(".bench_build/traces/" + std::string(w.name) + "-seed" +
              std::to_string(args.seed) + ".json");

  const std::uint64_t failed =
      checks.failed() + failed_sessions + zoo.failed + (replay.predict_row_ns < 0 ? 1 : 0);
  const std::uint64_t attempted =
      checks.matched + checks.failed() + failed_sessions + zoo.attempted;
  std::printf("checks: %llu matched, %llu failed, %llu traced windows\n",
              static_cast<unsigned long long>(checks.matched),
              static_cast<unsigned long long>(checks.failed()),
              static_cast<unsigned long long>(traced_windows));
  d.reset();
  bool complete = true;
  for (const auto& [name, value] : v) complete = complete && std::isfinite(value);
  print_result(complete && failed == 0, std::max<std::uint64_t>(1, attempted),
               failed, per_layer_metrics(), v);
  return 0;
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <name> --seed <n> --seconds <s> "
               "--trace <0|1> [--source <id>]\n"
               "       perfbench --list-metrics | --describe\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--list-metrics") {
      for (const MetricDef& m : end_to_end_metrics()) {
        std::printf("end_to_end %s %s\n", m.name.c_str(), m.unit.c_str());
      }
      for (const MetricDef& m : per_layer_metrics()) {
        std::printf("per_layer %s %s\n", m.name.c_str(), m.unit.c_str());
      }
      return 0;
    }
    if (flag == "--describe") {
      for (const WorkloadSpec& w : kWorkloads) {
        std::printf("%s %s\n", w.name, describe(w).c_str());
      }
      return 0;
    }
    if (i + 1 >= argc) return usage();
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      args.seconds = std::stod(value);
    } else if (flag == "--trace") {
      args.trace = value == "1";
    } else if (flag == "--source") {
      args.source = value;
    } else if (flag == "--work-dir") {
      args.work_dir = value;
    } else {
      return usage();
    }
  }
  const WorkloadSpec* w = find_workload(args.workload);
  if (w == nullptr || !(args.seconds > 0.0)) return usage();
  util::Logger::instance().set_min_level(util::LogLevel::kWarn);
  try {
    for (std::size_t at = args.work_dir.find('/'); ; at = args.work_dir.find('/', at + 1)) {
      ::mkdir(args.work_dir.substr(0, at).c_str(), 0755);
      if (at == std::string::npos) break;
    }
    place_threads(*w);
    print_context(*w, args.seed, args.seconds, args.trace, args.source);
    return args.trace ? run_traced(*w, args) : run_untraced(*w, args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
