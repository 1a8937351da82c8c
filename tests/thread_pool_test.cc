#include "common/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <stdexcept>
#include <vector>

namespace gbda {
namespace {

TEST(ThreadPoolTest, RunsEverySubmittedTask) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  std::vector<std::future<void>> futures;
  for (int i = 0; i < 200; ++i) {
    futures.push_back(pool.Submit([&counter]() { ++counter; }));
  }
  for (auto& f : futures) f.get();
  EXPECT_EQ(counter.load(), 200);
}

TEST(ThreadPoolTest, ReturnsTaskValues) {
  ThreadPool pool(2);
  std::future<int> f = pool.Submit([]() { return 6 * 7; });
  EXPECT_EQ(f.get(), 42);
}

TEST(ThreadPoolTest, ZeroThreadsFallsBackToHardwareConcurrency) {
  ThreadPool pool(0);
  EXPECT_GE(pool.size(), 1u);
  std::future<int> f = pool.Submit([]() { return 1; });
  EXPECT_EQ(f.get(), 1);
}

TEST(ThreadPoolTest, ExceptionPropagatesThroughFuture) {
  ThreadPool pool(2);
  std::future<void> f =
      pool.Submit([]() { throw std::runtime_error("task failed"); });
  EXPECT_THROW(f.get(), std::runtime_error);
  // The worker that ran the throwing task keeps serving.
  std::future<int> g = pool.Submit([]() { return 7; });
  EXPECT_EQ(g.get(), 7);
}

TEST(ThreadPoolTest, DestructorDrainsPendingQueue) {
  std::atomic<int> counter{0};
  constexpr int kTasks = 64;
  {
    ThreadPool pool(2);
    for (int i = 0; i < kTasks; ++i) {
      pool.Submit([&counter]() {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
        ++counter;
      });
    }
    // Destruction must wait for all kTasks, not just the in-flight ones.
  }
  EXPECT_EQ(counter.load(), kTasks);
}

TEST(ThreadPoolTest, SingleWorkerPreservesSubmissionOrder) {
  ThreadPool pool(1);
  std::vector<int> order;
  std::vector<std::future<void>> futures;
  for (int i = 0; i < 20; ++i) {
    futures.push_back(pool.Submit([&order, i]() { order.push_back(i); }));
  }
  for (auto& f : futures) f.get();
  ASSERT_EQ(order.size(), 20u);
  for (int i = 0; i < 20; ++i) EXPECT_EQ(order[static_cast<size_t>(i)], i);
}

}  // namespace
}  // namespace gbda
