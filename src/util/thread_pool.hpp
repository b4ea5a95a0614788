// A persistent worker pool that runs parallel index loops.
//
// `parallel_for(n, width, body)` runs body(i, executor) for every i in
// [0, n) on at most min(n, width) executors: the calling thread is
// executor 0 and pool threads join as helpers 1, 2, ... Indices are
// claimed from an atomic counter, so uneven item costs self-balance. A
// helper joins a loop only while the loop still has unclaimed indices and
// leaves it once they are gone; the caller never runs another loop's body
// and waits only for the helpers still inside its own loop. Concurrent
// loops on one pool are therefore safe, and a loop whose helpers are all
// busy elsewhere simply finishes on its caller.
//
// Pools are meant to be *shared and long-lived*: the bdsd server owns one
// for its whole lifetime and every request reuses it (no per-request thread
// churn), and `ThreadPool::shared()` is the process-wide pool the pass layer
// falls back to when no pool was injected. A loop grows its pool to `width`
// executors in place (threads are only ever added, never recycled), so the
// shared pool, which starts with no thread, spawns none in a `-j 1` process.
#pragma once

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace bds::util {

class ThreadPool {
 public:
  /// A pool of `workers` total executors (>= 1); the constructor spawns
  /// `workers - 1` threads, the calling thread is the remaining executor.
  explicit ThreadPool(unsigned workers) {
    const std::lock_guard<std::mutex> lock(mu_);
    grow(workers);
  }

  ~ThreadPool() {
    {
      const std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    work_cv_.notify_all();
    for (std::thread& t : threads_) t.join();
  }

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Current executor count (1 caller + spawned threads). Grows with the
  /// widest loop run so far, never shrinks.
  unsigned workers() const { return workers_.load(std::memory_order_relaxed); }

  /// Maps a user-facing `-j N` request to an executor count: 0 means "use
  /// the hardware" (hardware_concurrency, itself 0 on exotic platforms --
  /// treated as 1), anything else is taken literally.
  static unsigned resolve(unsigned requested) {
    if (requested != 0) return requested;
    const unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? 1 : hw;
  }

  /// The process-wide pool. It starts with no thread of its own and grows
  /// to the widest loop run on it, so bare `PassManager::run` calls never
  /// construct throwaway pools and a serial process never spawns a thread.
  static ThreadPool& shared() {
    static ThreadPool pool(1);
    return pool;
  }

  using Body = std::function<void(std::size_t, unsigned)>;

  /// Runs body(i, executor) for every i in [0, n) and blocks until all of
  /// them finished; the first body exception is rethrown after every index
  /// ran. The pool grows to `width` executors, and at most min(n, width)
  /// of them run this loop. Indices are claimed dynamically, so the
  /// index->executor assignment is nondeterministic with 2+ executors --
  /// bodies must only touch per-index or per-executor state. Executor ids
  /// are loop-local, below min(n, width) (0 = the caller). With one
  /// executor it is a plain serial loop on the caller.
  void parallel_for(std::size_t n, unsigned width, const Body& body) {
    const auto executors =
        static_cast<unsigned>(std::min<std::size_t>(n, width));
    if (executors <= 1) {
      for (std::size_t i = 0; i < n; ++i) body(i, 0);
      return;
    }
    Loop loop(n, body, executors - 1);
    {
      const std::lock_guard<std::mutex> lock(mu_);
      grow(width);
      open_.push_back(&loop);
    }
    work_cv_.notify_all();
    drain(loop, 0);
    std::unique_lock<std::mutex> lock(mu_);
    std::erase(open_, &loop);  // no helper joins a drained loop
    loop.done.wait(lock, [&loop] { return loop.inside == 0; });
    if (loop.error) std::rethrow_exception(loop.error);
  }

 private:
  /// One parallel_for call, on its caller's stack. `seats`, `joined`,
  /// `inside` and `error` are guarded by the pool mutex.
  struct Loop {
    Loop(std::size_t count, const Body& fn, unsigned helpers)
        : n(count), body(fn), seats(helpers) {}
    const std::size_t n;
    const Body& body;
    unsigned seats;               ///< helpers that may still join
    unsigned joined = 0;          ///< helpers that joined (their ids 1..)
    unsigned inside = 0;          ///< helpers still draining
    std::atomic<std::size_t> next{0};
    std::exception_ptr error;     ///< first exception any body threw
    std::condition_variable done; ///< signalled when `inside` drops to 0
  };

  /// Spawns threads until the pool has `executors` executors (caller
  /// holds mu_).
  void grow(unsigned executors) {
    while (threads_.size() + 1 < executors) {
      threads_.emplace_back([this] { worker_loop(); });
    }
    workers_.store(static_cast<unsigned>(threads_.size() + 1),
                   std::memory_order_relaxed);
  }

  void drain(Loop& loop, unsigned executor) {
    for (;;) {
      const std::size_t i = loop.next.fetch_add(1, std::memory_order_relaxed);
      if (i >= loop.n) return;
      try {
        loop.body(i, executor);
      } catch (...) {
        const std::lock_guard<std::mutex> lock(mu_);
        if (!loop.error) loop.error = std::current_exception();
      }
    }
  }

  void worker_loop() {
    std::unique_lock<std::mutex> lock(mu_);
    for (;;) {
      work_cv_.wait(lock, [this] { return stop_ || !open_.empty(); });
      if (stop_) return;
      Loop& loop = *open_.front();
      const unsigned executor = ++loop.joined;
      ++loop.inside;
      if (--loop.seats == 0) open_.erase(open_.begin());
      lock.unlock();
      drain(loop, executor);
      lock.lock();
      // Notify under the lock: the caller can only observe inside == 0,
      // return and destroy the loop after this thread waits again.
      if (--loop.inside == 0) loop.done.notify_one();
    }
  }

  std::atomic<unsigned> workers_{1};
  std::vector<std::thread> threads_;

  std::mutex mu_;                   ///< guards open_, stop_, threads_, loops
  std::condition_variable work_cv_; ///< wakes helpers on a new loop or stop
  std::vector<Loop*> open_;         ///< loops with helper seats left
  bool stop_ = false;
};

}  // namespace bds::util
