// Helper process for test_thread_pool's exit check: runs a parallel region
// on the global pool, leaves tasks queued on it, and returns from main.
// The pool's destructor runs those tasks during static destruction, and
// every task records pool metrics, so the process exits cleanly (status 0)
// only if the metrics registry outlives the pool's threads.
#include <atomic>
#include <chrono>
#include <cstddef>
#include <thread>

#include "parallel/thread_pool.hpp"

int main() {
  std::atomic<std::size_t> sum{0};
  f2pm::parallel::parallel_for(0, 64, [&](std::size_t i) { sum += i; });
  auto& pool = f2pm::parallel::ThreadPool::global();
  for (int i = 0; i < 16; ++i) {
    (void)pool.submit(
        [] { std::this_thread::sleep_for(std::chrono::microseconds(20)); });
  }
  return sum.load() == 64 * 63 / 2 ? 0 : 2;
}
