// Self-test of the benchmark's own helpers (bench_util.hpp). Run through
// `python3 perfbench/run.py --selftest`, which also checks that the metric
// names the benchmark prints match BENCHMARK.json.
#include <cmath>
#include <cstdio>
#include <vector>

#include "bench_util.hpp"

namespace {

int failures = 0;

void check(bool ok, const char* what) {
  if (!ok) {
    std::printf("FAIL: %s\n", what);
    ++failures;
  }
}

perfbench::LogHistogram ramp(std::size_t n) {
  perfbench::LogHistogram h;
  for (std::size_t i = n; i >= 1; --i) h.add(static_cast<double>(i));
  return h;  // n, n-1, ..., 1
}

bool near(std::optional<double> v, double expected) {
  return v.has_value() && std::fabs(*v - expected) <= 0.01 * expected;
}

void test_percentile() {
  // 1000 samples: the nearest-rank p99 is the 990th value and has exactly
  // ten samples beyond it, the minimum the rule allows.
  check(perfbench::samples_beyond(1000, 0.99) == 10, "ten beyond at n=1000");
  check(near(ramp(1000).percentile(0.99), 990.0), "p99 of 1..1000 is 990");
  // One sample fewer leaves only nine beyond: not reported.
  check(!ramp(999).percentile(0.99).has_value(), "p99 refused at n=999");
  check(near(ramp(3).percentile(0.5), 2.0), "median of 3");
  check(near(ramp(1).percentile(0.5), 1.0), "median of 1");
  check(!perfbench::LogHistogram().percentile(0.5).has_value(), "empty");
  check(perfbench::median({4.0, 1.0, 3.0, 2.0}) == 2.5, "even median");
  // A looser rule is honoured too.
  check(near(ramp(100).percentile(0.9, 5), 90.0), "p90 of 1..100");
  // Merging is the same as adding every sample to one histogram.
  perfbench::LogHistogram merged = ramp(500);
  merged.merge(ramp(500));
  check(merged.count() == 1000 && near(merged.percentile(0.5), 250.0),
        "merge");
  // Out-of-range values land in the end buckets instead of failing.
  perfbench::LogHistogram edges;
  edges.add(0.0);
  edges.add(1e12);
  check(edges.count() == 2, "edge values counted");
}

void test_self_time() {
  using perfbench::Span;
  // root [0,100) with children [10,30) and [20,50) (overlapping: union 40)
  // and a child [90,120) clipped to the parent's end (10 more); the
  // grandchild [12,18) counts against its own parent only.
  const std::vector<Span> spans = {
      {"root", 0, 100, Span::kNoParent},
      {"a", 10, 30, 0},
      {"b", 20, 50, 0},
      {"c", 90, 120, 0},
      {"a.child", 12, 18, 1},
  };
  const auto self = perfbench::self_times(spans);
  check(self[0] == 50, "root self = 100 - 40 - 10");
  check(self[1] == 14, "a self = 20 - 6");
  check(self[2] == 30, "leaf self = duration");
  check(self[4] == 6, "grandchild self");
}

void test_open_loop() {
  perfbench::OpenLoopSchedule s;
  s.start_ns = 1'000'000;
  s.rate_per_second = 1000.0;  // one datapoint per ms
  s.offset_seconds = 0.0005;   // staggered by half a period
  check(s.due_ns(0) == 1'500'000, "first due at start + offset");
  check(s.due_ns(3) == 4'500'000, "due times are start + offset + i/rate");
  check(s.due_count(1'499'999) == 0, "nothing due before the first");
  check(s.due_count(1'500'000) == 1, "due at exactly its time");
  check(s.due_count(4'600'000) == 4, "four due after 3.1 periods");
  // Lateness is measured from the due time, never from the send attempt:
  // a 2 ms stall makes every datapoint it held back late.
  check(s.lateness_ns(0, 3'500'000) == 2'000'000, "stalled first datapoint");
  check(s.lateness_ns(1, 3'500'000) == 1'000'000, "stalled second datapoint");
  check(s.lateness_ns(2, 3'500'000) == 0, "on time is zero");
}

void test_residual() {
  perfbench::CpuBudget b;
  b.total_ns_per_dp = 1000.0;
  b.decode_ns_per_dp = 100.0;
  b.observe_ns_per_dp = 250.0;
  b.encode_ns_per_dp = 50.0;
  check(b.layers_ns_per_dp() == 400.0, "layer sum");
  check(b.residual_ns_per_dp() == 600.0, "residual = total - layers");
  check(b.layers_ns_per_dp() + b.residual_ns_per_dp() == b.total_ns_per_dp,
        "layers + residual add up to the total");
  // 3 s of process CPU, 1 s of it on benchmark threads, over 2e6 dp.
  check(perfbench::service_cpu_ns_per_dp(3e9, 1e9, 2'000'000) == 1000.0,
        "service cpu per datapoint");
  check(perfbench::service_cpu_ns_per_dp(3e9, 1e9, 0) == 0.0,
        "no datapoints, no cost");
}

}  // namespace

int main() {
  test_percentile();
  test_self_time();
  test_open_loop();
  test_residual();
  if (failures == 0) std::printf("perfbench selftest: all checks passed\n");
  return failures == 0 ? 0 : 1;
}
