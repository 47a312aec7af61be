// Fixed-size worker pool used by the model-generation phase (train many
// models concurrently) and the kernel-matrix / gemm row-block loops.
//
// Design follows the shared-memory fork/join model of the OpenMP examples:
// explicit decomposition into chunks, a barrier at the end of each parallel
// region, and no hidden global state. Exceptions thrown by tasks are
// captured and rethrown on the submitting thread.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <exception>
#include <functional>
#include <future>
#include <mutex>
#include <thread>
#include <vector>

namespace f2pm::parallel {

/// A fixed set of worker threads draining a FIFO task queue.
class ThreadPool {
 public:
  /// Spawns `num_threads` workers (0 -> hardware_concurrency, min 1).
  explicit ThreadPool(std::size_t num_threads = 0);
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;
  /// Joins all workers; pending tasks are completed first.
  ~ThreadPool();

  [[nodiscard]] std::size_t num_threads() const { return workers_.size(); }

  /// Enqueues a task and returns a future for its result. The callable may
  /// throw; the exception is delivered through the future.
  template <typename F>
  auto submit(F&& fn) -> std::future<std::invoke_result_t<F>> {
    using R = std::invoke_result_t<F>;
    auto task =
        std::make_shared<std::packaged_task<R()>>(std::forward<F>(fn));
    std::future<R> result = task->get_future();
    enqueue([task]() { (*task)(); });
    return result;
  }

  /// Pops one queued task and runs it on the calling thread. Returns false
  /// when the queue is empty. This is the "helping" primitive that makes
  /// nested parallel regions on one pool deadlock-free: a thread blocked on
  /// a barrier drains the queue instead of sleeping, so queued sub-tasks
  /// always make progress even when every worker is itself waiting.
  bool try_run_one();

  /// Process-wide default pool, sized to the hardware.
  static ThreadPool& global();

 private:
  /// One queued task plus its enqueue timestamp, so the obs layer can
  /// report how long work sat in the queue before a worker picked it up.
  struct QueuedTask {
    std::function<void()> fn;
    std::chrono::steady_clock::time_point enqueued;
  };

  /// Locks, rejects after shutdown, records queue-depth/wait-time metrics
  /// and notifies one worker. (Out of line so the template above stays
  /// free of the obs dependency.)
  void enqueue(std::function<void()> fn);

  /// Pops `task` off the queue (caller holds no lock) and runs it,
  /// feeding the wait/run-time histograms.
  static void run_task(QueuedTask task);

  void worker_loop();

  std::vector<std::thread> workers_;
  std::deque<QueuedTask> queue_;
  std::mutex mutex_;
  std::condition_variable cv_;
  bool stopping_ = false;
};

/// Runs body(i) for i in [begin, end) across the pool, blocking until all
/// iterations complete. Iterations are grouped into contiguous chunks
/// (roughly 4 per worker) to amortize scheduling overhead. The first
/// exception thrown by any iteration is rethrown here. While waiting, the
/// calling thread helps drain the pool's queue, so parallel regions may be
/// nested on the same pool (e.g. parallel CV folds whose model fits run
/// parallel kernel loops) without deadlocking.
void parallel_for(ThreadPool& pool, std::size_t begin, std::size_t end,
                  const std::function<void(std::size_t)>& body);

/// Convenience overload using the global pool.
void parallel_for(std::size_t begin, std::size_t end,
                  const std::function<void(std::size_t)>& body);

/// Chunked variant: body(chunk_begin, chunk_end) receives whole ranges, so
/// callers can keep per-chunk accumulators without false sharing.
void parallel_for_chunked(
    ThreadPool& pool, std::size_t begin, std::size_t end,
    const std::function<void(std::size_t, std::size_t)>& body);

/// Parallel sum-reduction of body(i) over [begin, end).
double parallel_reduce_sum(ThreadPool& pool, std::size_t begin,
                           std::size_t end,
                           const std::function<double(std::size_t)>& body);

}  // namespace f2pm::parallel
