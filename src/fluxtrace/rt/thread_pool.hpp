// Small work-stealing thread pool for the *analysis* side of fluxtrace.
// The deterministic simulator (sim::Machine, rt::ULThread) stays strictly
// single-threaded; recorded-trace analysis is the one layer that may use
// real std::threads without perturbing test determinism, and this pool is
// what it runs on (the query engine's chunk decode, block scan and
// federated fan-out, and the catalog's ingest shards).
//
// Design: one deque per worker. submit() distributes round-robin; an idle
// worker pops its own deque back-to-front (LIFO, cache-warm) and steals
// from the other deques front-to-back (FIFO, oldest first). Tasks here are
// multi-millisecond chunk decodes and block scans, so the simple
// mutex-per-deque arrangement is nowhere near contended.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <exception>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

namespace fluxtrace::rt {

/// Worker count for a thread option: 0 picks
/// std::thread::hardware_concurrency() (at least 1).
[[nodiscard]] unsigned resolve_threads(unsigned requested);

class ThreadPool {
 public:
  /// n_threads == 0 picks std::thread::hardware_concurrency() (at least 1).
  explicit ThreadPool(unsigned n_threads = 0);

  /// Joins the workers after running every task already submitted, so
  /// futures obtained from submit() are always satisfied.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  [[nodiscard]] unsigned size() const {
    return static_cast<unsigned>(workers_.size());
  }

  /// Schedule fn() on the pool; the future carries its result or its
  /// exception.
  template <typename F>
  auto submit(F&& fn) -> std::future<std::invoke_result_t<std::decay_t<F>>> {
    using R = std::invoke_result_t<std::decay_t<F>>;
    auto task =
        std::make_shared<std::packaged_task<R()>>(std::forward<F>(fn));
    std::future<R> fut = task->get_future();
    enqueue([task] { (*task)(); });
    return fut;
  }

  /// Run fn(i) for every i in [0, n) across the pool and wait for all of
  /// them. The first exception thrown (in index order) is rethrown after
  /// every call has finished.
  void parallel_for(std::size_t n,
                    const std::function<void(std::size_t)>& fn);

 private:
  struct Deque {
    std::mutex mu;
    std::deque<std::function<void()>> tasks;
  };

  void enqueue(std::function<void()> task);
  bool try_take(std::size_t id, std::function<void()>& out);
  void worker_loop(std::size_t id);

  std::vector<std::unique_ptr<Deque>> queues_;
  std::vector<std::thread> workers_;

  std::mutex wake_mu_;
  std::condition_variable wake_;
  std::size_t pending_ = 0; ///< queued-but-untaken tasks (guards the wait)
  bool stop_ = false;
  std::size_t next_ = 0; ///< round-robin submit cursor (guarded by wake_mu_)
};

} // namespace fluxtrace::rt
