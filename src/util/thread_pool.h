// Fixed-size thread pool with a ParallelFor primitive, used by the parallel
// trainer to run each superstep phase (derived-cache rebuild, chunked
// scatter, delta merge) across its workers.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace cold {

/// \brief A fixed pool of worker threads executing submitted closures.
///
/// Construction spawns the workers; destruction joins them after draining the
/// queue. `ParallelFor` block-partitions an index range across workers and
/// blocks until all blocks complete — the pattern every superstep phase uses.
class ThreadPool {
 public:
  /// Creates a pool with `num_threads` workers (>= 1; 0 means
  /// hardware_concurrency).
  explicit ThreadPool(size_t num_threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Number of worker threads.
  size_t num_threads() const { return workers_.size(); }

  /// Enqueues `fn` for asynchronous execution.
  void Submit(std::function<void()> fn);

  /// Blocks until all submitted work has completed.
  void Wait();

  /// \brief Runs `fn(begin, end, worker_index)` over contiguous blocks of
  /// [0, n), one block per worker, and blocks until done.
  ///
  /// `worker_index` is in [0, num_threads()) and is stable within one call,
  /// so callers can keep per-worker scratch state (e.g. RNG streams).
  void ParallelFor(size_t n,
                   const std::function<void(size_t, size_t, size_t)>& fn);

 private:
  void WorkerLoop();

  std::vector<std::thread> workers_;
  std::queue<std::function<void()>> queue_;
  std::mutex mutex_;
  std::condition_variable cv_task_;
  std::condition_variable cv_done_;
  size_t in_flight_ = 0;
  bool stop_ = false;
};

}  // namespace cold
