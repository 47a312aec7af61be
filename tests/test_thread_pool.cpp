#include "parallel/thread_pool.hpp"

#include <gtest/gtest.h>
#include <spawn.h>
#include <sys/wait.h>

#include <atomic>
#include <numeric>
#include <stdexcept>
#include <string>
#include <vector>

extern char** environ;

namespace f2pm::parallel {
namespace {

TEST(ThreadPool, RunsSubmittedTasks) {
  ThreadPool pool(2);
  auto future = pool.submit([] { return 7; });
  EXPECT_EQ(future.get(), 7);
}

TEST(ThreadPool, DeliversExceptionsThroughFutures) {
  ThreadPool pool(2);
  auto future = pool.submit(
      []() -> int { throw std::runtime_error("boom"); });
  EXPECT_THROW(future.get(), std::runtime_error);
}

TEST(ThreadPool, CompletesAllTasksBeforeShutdown) {
  std::atomic<int> counter{0};
  {
    ThreadPool pool(3);
    for (int i = 0; i < 100; ++i) {
      pool.submit([&counter] { counter.fetch_add(1); });
    }
  }  // destructor drains the queue
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPool, ZeroThreadsMeansHardwareDefault) {
  ThreadPool pool(0);
  EXPECT_GE(pool.num_threads(), 1u);
}

TEST(ParallelFor, TouchesEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  parallel_for(pool, 0, hits.size(),
               [&hits](std::size_t i) { hits[i].fetch_add(1); });
  for (const auto& hit : hits) EXPECT_EQ(hit.load(), 1);
}

TEST(ParallelFor, EmptyAndReversedRangesAreNoOps) {
  ThreadPool pool(2);
  int calls = 0;
  parallel_for(pool, 5, 5, [&calls](std::size_t) { ++calls; });
  parallel_for(pool, 7, 3, [&calls](std::size_t) { ++calls; });
  EXPECT_EQ(calls, 0);
}

TEST(ParallelFor, PropagatesBodyExceptions) {
  ThreadPool pool(4);
  EXPECT_THROW(parallel_for(pool, 0, 100,
                            [](std::size_t i) {
                              if (i == 37) throw std::logic_error("bad");
                            }),
               std::logic_error);
}

TEST(ParallelForChunked, ChunksCoverRangeWithoutOverlap) {
  ThreadPool pool(4);
  std::mutex mutex;
  std::vector<std::pair<std::size_t, std::size_t>> chunks;
  parallel_for_chunked(pool, 10, 500,
                       [&](std::size_t lo, std::size_t hi) {
                         std::lock_guard<std::mutex> lock(mutex);
                         chunks.emplace_back(lo, hi);
                       });
  std::sort(chunks.begin(), chunks.end());
  EXPECT_EQ(chunks.front().first, 10u);
  EXPECT_EQ(chunks.back().second, 500u);
  for (std::size_t i = 1; i < chunks.size(); ++i) {
    EXPECT_EQ(chunks[i].first, chunks[i - 1].second);
  }
}

TEST(ParallelReduceSum, MatchesSerialSum) {
  ThreadPool pool(4);
  const double total = parallel_reduce_sum(
      pool, 1, 1001, [](std::size_t i) { return static_cast<double>(i); });
  EXPECT_DOUBLE_EQ(total, 500500.0);
}

TEST(ParallelReduceSum, EmptyRangeIsZero) {
  ThreadPool pool(2);
  EXPECT_DOUBLE_EQ(
      parallel_reduce_sum(pool, 3, 3, [](std::size_t) { return 1.0; }), 0.0);
}

TEST(GlobalPool, IsSingleton) {
  EXPECT_EQ(&ThreadPool::global(), &ThreadPool::global());
}

TEST(ParallelFor, NestedRegionsOnOnePoolComplete) {
  // Outer iterations block on inner parallel_for barriers while every
  // worker may itself be an outer iteration: without help-while-waiting
  // this deadlocks. Oversubscribe a tiny pool to force the situation.
  ThreadPool pool(2);
  std::vector<std::atomic<int>> hits(8 * 64);
  parallel_for(pool, 0, 8, [&](std::size_t outer) {
    parallel_for(pool, 0, 64, [&, outer](std::size_t inner) {
      hits[outer * 64 + inner].fetch_add(1);
    });
  });
  for (const auto& hit : hits) EXPECT_EQ(hit.load(), 1);
}

TEST(ThreadPool, TryRunOneDrainsQueue) {
  // With no workers contending (tasks held back by a slow pool), the
  // caller can execute queued work itself.
  ThreadPool pool(1);
  std::promise<void> gate;
  std::shared_future<void> gate_future = gate.get_future().share();
  // Occupy the single worker so submitted tasks stay queued. Wait until
  // the worker has actually started the blocker, else this thread could
  // pop it below and deadlock on its own gate.
  std::atomic<bool> blocker_started{false};
  auto blocker = pool.submit([gate_future, &blocker_started] {
    blocker_started.store(true);
    gate_future.wait();
  });
  while (!blocker_started.load()) {
    std::this_thread::yield();
  }
  std::atomic<int> ran{0};
  pool.submit([&ran] { ran.fetch_add(1); });
  pool.submit([&ran] { ran.fetch_add(1); });
  while (pool.try_run_one()) {
  }
  EXPECT_EQ(ran.load(), 2);
  EXPECT_FALSE(pool.try_run_one());
  gate.set_value();
  blocker.get();
}

std::string describe_status(int status) {
  if (WIFEXITED(status)) return "exit " + std::to_string(WEXITSTATUS(status));
  if (WIFSIGNALED(status)) return "signal " + std::to_string(WTERMSIG(status));
  return "status " + std::to_string(status);
}

/// A process that returns from main right after a parallel region, with
/// tasks still queued on the global pool, must exit 0: pool threads record
/// metrics until the pool's destructor joins them, after every later
/// static is gone. The helper runs in a fresh process each time (a forked
/// copy of this one would inherit a pool whose threads do not exist).
TEST(GlobalPool, ProcessExitsCleanlyAfterParallelRegion) {
  constexpr int kRuns = 300;
  for (int run = 0; run < kRuns; ++run) {
    char* argv[] = {const_cast<char*>(F2PM_POOL_EXIT_HELPER), nullptr};
    pid_t pid = 0;
    ASSERT_EQ(posix_spawn(&pid, argv[0], nullptr, nullptr, argv, environ), 0);
    int status = 0;
    ASSERT_EQ(waitpid(pid, &status, 0), pid);
    ASSERT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0)
        << "run " << run << ": " << describe_status(status);
  }
}

}  // namespace
}  // namespace f2pm::parallel
