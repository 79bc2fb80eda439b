#include "fluxtrace/rt/thread_pool.hpp"

#include <algorithm>

#include "fluxtrace/obs/metrics.hpp"
#include "fluxtrace/obs/span.hpp"

namespace fluxtrace::rt {

namespace {

// Self-telemetry (ISSUE 3): one set of process-wide pool metrics —
// pools are created per decode or query call, so per-pool
// metrics would fragment the registry. Resolved once, kept forever.
struct PoolMetrics {
  obs::Counter& tasks = obs::metrics().counter("rt.pool.tasks_executed");
  obs::Counter& steals = obs::metrics().counter("rt.pool.steals");
  obs::Gauge& depth = obs::metrics().gauge("rt.pool.queue_depth");
  obs::Histogram& task_ns = obs::metrics().histogram("rt.pool.task_ns");

  static PoolMetrics& get() {
    static PoolMetrics m;
    return m;
  }
};

} // namespace

unsigned resolve_threads(unsigned requested) {
  return requested != 0 ? requested
                        : std::max(1u, std::thread::hardware_concurrency());
}

ThreadPool::ThreadPool(unsigned n_threads) {
  n_threads = resolve_threads(n_threads);
  queues_.reserve(n_threads);
  for (unsigned i = 0; i < n_threads; ++i) {
    queues_.push_back(std::make_unique<Deque>());
  }
  workers_.reserve(n_threads);
  for (unsigned i = 0; i < n_threads; ++i) {
    workers_.emplace_back([this, i] { worker_loop(i); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lk(wake_mu_);
    stop_ = true;
  }
  wake_.notify_all();
  for (std::thread& w : workers_) w.join();
}

void ThreadPool::enqueue(std::function<void()> task) {
  std::size_t target;
  {
    std::lock_guard<std::mutex> lk(wake_mu_);
    target = next_++ % queues_.size();
    ++pending_;
  }
  {
    std::lock_guard<std::mutex> lk(queues_[target]->mu);
    queues_[target]->tasks.push_back(std::move(task));
  }
  PoolMetrics::get().depth.add(1);
  wake_.notify_one();
}

bool ThreadPool::try_take(std::size_t id, std::function<void()>& out) {
  // Own deque first, newest task (LIFO keeps the cache warm for
  // producer-consumer chains)…
  {
    Deque& q = *queues_[id];
    std::lock_guard<std::mutex> lk(q.mu);
    if (!q.tasks.empty()) {
      out = std::move(q.tasks.back());
      q.tasks.pop_back();
      return true;
    }
  }
  // …then steal the oldest task from anyone else.
  for (std::size_t k = 1; k < queues_.size(); ++k) {
    Deque& q = *queues_[(id + k) % queues_.size()];
    std::lock_guard<std::mutex> lk(q.mu);
    if (!q.tasks.empty()) {
      out = std::move(q.tasks.front());
      q.tasks.pop_front();
      PoolMetrics::get().steals.inc();
      return true;
    }
  }
  return false;
}

void ThreadPool::worker_loop(std::size_t id) {
  for (;;) {
    std::function<void()> task;
    if (try_take(id, task)) {
      {
        std::lock_guard<std::mutex> lk(wake_mu_);
        --pending_;
      }
      PoolMetrics& pm = PoolMetrics::get();
      pm.depth.sub(1);
      if (obs::enabled()) {
        const std::uint64_t t0 = obs::steady_now_ns();
        task();
        pm.task_ns.observe(obs::steady_now_ns() - t0);
      } else {
        task();
      }
      pm.tasks.inc();
      continue;
    }
    std::unique_lock<std::mutex> lk(wake_mu_);
    wake_.wait(lk, [this] { return stop_ || pending_ > 0; });
    if (pending_ > 0) continue; // go race for it
    if (stop_) return;          // stopped and drained
  }
}

void ThreadPool::parallel_for(std::size_t n,
                              const std::function<void(std::size_t)>& fn) {
  std::vector<std::future<void>> futs;
  futs.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    futs.push_back(submit([&fn, i] { fn(i); }));
  }
  // Wait for everything before rethrowing: `fn` is borrowed by every
  // task, so no task may outlive this frame.
  std::exception_ptr first;
  for (std::future<void>& f : futs) {
    try {
      f.get();
    } catch (...) {
      if (!first) first = std::current_exception();
    }
  }
  if (first) std::rethrow_exception(first);
}

} // namespace fluxtrace::rt
