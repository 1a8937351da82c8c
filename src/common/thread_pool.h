/// \file thread_pool.h
/// A fixed-size worker pool for the serving layer (docs/ARCHITECTURE.md,
/// "Serving layer"). Tasks are submitted as callables and return
/// std::future handles, so results and exceptions propagate to the
/// submitter. The destructor drains every task already enqueued before
/// joining, so work submitted during the pool's lifetime is never dropped.

#pragma once

#include <cstddef>
#include <functional>
#include <future>
#include <memory>
#include <queue>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"

namespace gbda {

/// Fixed-size FIFO thread pool. Submission is thread-safe; the queue is
/// unbounded. Tasks must not submit to the pool from within the pool's own
/// destructor window (tasks enqueued before destruction are always run).
class ThreadPool {
 public:
  /// Spawns `num_threads` workers; 0 means std::thread::hardware_concurrency
  /// (at least 1).
  explicit ThreadPool(size_t num_threads);

  /// Drains the queue (every task already submitted runs to completion),
  /// then joins all workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  size_t size() const { return workers_.size(); }

  /// Enqueues `f` and returns a future for its result. Exceptions thrown by
  /// the task surface on future.get().
  template <typename F>
  auto Submit(F&& f) -> std::future<std::invoke_result_t<std::decay_t<F>>> {
    using R = std::invoke_result_t<std::decay_t<F>>;
    auto task =
        std::make_shared<std::packaged_task<R()>>(std::forward<F>(f));
    std::future<R> future = task->get_future();
    {
      MutexLock lock(&mutex_);
      queue_.push([task]() { (*task)(); });
    }
    cv_.NotifyOne();
    return future;
  }

 private:
  void WorkerLoop();

  Mutex mutex_;
  CondVar cv_;
  std::queue<std::function<void()>> queue_ GBDA_GUARDED_BY(mutex_);
  std::vector<std::thread> workers_;
  bool stop_ GBDA_GUARDED_BY(mutex_) = false;
};

}  // namespace gbda
