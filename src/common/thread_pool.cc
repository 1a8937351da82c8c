#include "common/thread_pool.h"

#include <algorithm>

namespace gbda {

ThreadPool::ThreadPool(size_t num_threads) {
  if (num_threads == 0) {
    num_threads = std::max<size_t>(1, std::thread::hardware_concurrency());
  }
  workers_.reserve(num_threads);
  for (size_t i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this]() { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    MutexLock lock(&mutex_);
    stop_ = true;
  }
  cv_.NotifyAll();
  for (std::thread& worker : workers_) worker.join();
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    std::function<void()> task;
    {
      MutexLock lock(&mutex_);
      // Explicit predicate loop (not a lambda) so the guarded accesses stay
      // visible to the thread-safety analysis.
      while (!stop_ && queue_.empty()) cv_.Wait(mutex_);
      // Exit only once the queue is drained, so destruction never drops
      // already-submitted tasks.
      if (queue_.empty()) return;
      task = std::move(queue_.front());
      queue_.pop();
    }
    task();
  }
}

}  // namespace gbda
