// rt::ThreadPool: the work-stealing pool under the query engine's chunk
// decode, block scan and federated fan-out. The contract under test: every submitted
// task runs exactly once, results and exceptions travel through the
// futures, parallel_for covers every index, and destruction drains the
// queue instead of dropping work.
#include "fluxtrace/rt/thread_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>
#include <vector>

namespace fluxtrace::rt {
namespace {

TEST(ThreadPool, ReportsRequestedSize) {
  ThreadPool pool(3);
  EXPECT_EQ(pool.size(), 3u);
}

TEST(ThreadPool, ZeroThreadsPicksHardwareConcurrency) {
  ThreadPool pool(0);
  EXPECT_GE(pool.size(), 1u);
}

TEST(ThreadPool, SubmitReturnsValueThroughFuture) {
  ThreadPool pool(2);
  auto fut = pool.submit([] { return 6 * 7; });
  EXPECT_EQ(fut.get(), 42);
}

TEST(ThreadPool, SubmitPropagatesExceptions) {
  ThreadPool pool(2);
  auto fut = pool.submit([]() -> int {
    throw std::runtime_error("task failed");
  });
  EXPECT_THROW((void)fut.get(), std::runtime_error);
}

TEST(ThreadPool, ManySmallTasksAllRunExactlyOnce) {
  constexpr int kTasks = 10000;
  std::atomic<int> ran{0};
  {
    ThreadPool pool(4);
    std::vector<std::future<void>> futs;
    futs.reserve(kTasks);
    for (int i = 0; i < kTasks; ++i) {
      futs.push_back(pool.submit([&ran] {
        ran.fetch_add(1, std::memory_order_relaxed);
      }));
    }
    for (auto& f : futs) f.get();
  }
  EXPECT_EQ(ran.load(), kTasks);
}

TEST(ThreadPool, ParallelForCoversEveryIndexOnce) {
  ThreadPool pool(4);
  constexpr std::size_t kN = 5000;
  std::vector<std::atomic<int>> hits(kN);
  pool.parallel_for(kN, [&](std::size_t i) {
    hits[i].fetch_add(1, std::memory_order_relaxed);
  });
  for (std::size_t i = 0; i < kN; ++i) {
    ASSERT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ThreadPool, ParallelForEmptyRangeIsANoop) {
  ThreadPool pool(2);
  pool.parallel_for(0, [](std::size_t) { FAIL() << "must not be called"; });
}

TEST(ThreadPool, ParallelForRethrowsAfterAllTasksFinish) {
  ThreadPool pool(2);
  std::atomic<int> ran{0};
  EXPECT_THROW(
      pool.parallel_for(64,
                        [&](std::size_t i) {
                          ran.fetch_add(1, std::memory_order_relaxed);
                          if (i == 13) throw std::runtime_error("boom");
                        }),
      std::runtime_error);
  // The failing iteration must not abandon its siblings mid-flight: all
  // 64 bodies ran before the rethrow.
  EXPECT_EQ(ran.load(), 64);
}

TEST(ThreadPool, DestructorDrainsQueuedWork) {
  std::atomic<int> ran{0};
  std::vector<std::future<void>> futs;
  {
    ThreadPool pool(1); // one worker: tasks certainly queue up
    for (int i = 0; i < 100; ++i) {
      futs.push_back(pool.submit([&ran] {
        ran.fetch_add(1, std::memory_order_relaxed);
      }));
    }
  } // destructor runs here
  for (auto& f : futs) f.get(); // every future must be satisfied
  EXPECT_EQ(ran.load(), 100);
}

TEST(ThreadPool, NestedSubmitFromWorkerCompletes) {
  ThreadPool pool(2);
  auto outer = pool.submit([&pool] {
    return pool.submit([] { return 7; }).get();
  });
  EXPECT_EQ(outer.get(), 7);
}

} // namespace
} // namespace fluxtrace::rt
