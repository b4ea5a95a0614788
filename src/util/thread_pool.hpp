// A persistent worker pool with submitted jobs and parallel loops.
//
// The pool owns `workers - 1` OS threads parked on a condition variable;
// the thread that calls into the pool always participates as an executor
// itself, so a 1-worker pool holds no thread at all and stays lock-free on
// its fast paths. Two entry points share the same worker loop:
//
//   * `submit(batch, job)` queues one job for any free worker. Jobs are
//     grouped into caller-owned `Batch`es; `wait(batch)` blocks until every
//     job of that batch finished and rethrows the first exception any of
//     them threw. Waiting *helps*: jobs of the batch still sitting in the
//     pool's queue are reclaimed and run on the waiting thread, so a batch
//     whose jobs never got a worker (every thread busy with other batches,
//     or nested waits all the way down) still completes -- `wait` can never
//     deadlock on pool starvation.
//   * `parallel_for(n, body)` -- the classic index loop, now layered on
//     submit: one drain job per extra executor, indices claimed from an
//     atomic counter so uneven item costs self-balance, caller drains as
//     executor 0. Body exceptions are captured per index and the first is
//     rethrown after every index ran; with one worker (or n <= 1) it is a
//     plain serial loop.
//
// Pools are meant to be *shared and long-lived*: the bdsd server owns one
// for its whole lifetime and every request reuses it (no per-request thread
// churn), and `ThreadPool::shared()` is the lazily constructed process-wide
// pool the pass layer falls back to when no pool was injected.
// `ensure_workers(n)` grows a pool in place (threads are only ever added,
// never recycled), so one `-j 8` request permanently provisions the shared
// pool for eight-way runs instead of spawning and joining threads per call.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

namespace bds::util {

class ThreadPool {
 public:
  /// A caller-owned group of submitted jobs. Submit against it, then
  /// `pool.wait(batch)` exactly once per round of submissions; the batch is
  /// reusable afterwards. Destroying a batch with jobs still pending is a
  /// usage error (wait first); the destructor tolerates the empty case.
  class Batch {
   public:
    Batch() = default;
    Batch(const Batch&) = delete;
    Batch& operator=(const Batch&) = delete;

   private:
    friend class ThreadPool;
    std::mutex mu;
    std::condition_variable done_cv;
    std::size_t pending = 0;        ///< submitted jobs not yet finished
    std::exception_ptr error;       ///< first exception any job threw
  };

  /// A pool of `workers` total executors (>= 1); the constructor spawns
  /// `workers - 1` threads, the calling thread is the remaining executor.
  explicit ThreadPool(unsigned workers) {
    const unsigned w = workers < 1 ? 1 : workers;
    workers_.store(w, std::memory_order_relaxed);
    threads_.reserve(w - 1);
    for (unsigned e = 1; e < w; ++e) {
      threads_.emplace_back([this, e] { worker_loop(e); });
    }
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

  /// Current executor count (1 caller + spawned threads). Grows under
  /// ensure_workers, never shrinks.
  unsigned workers() const { return workers_.load(std::memory_order_relaxed); }

  /// Maps a user-facing `-j N` request to an executor count: 0 means "use
  /// the hardware" (hardware_concurrency, itself 0 on exotic platforms --
  /// treated as 1), anything else is taken literally.
  static unsigned resolve(unsigned requested) {
    if (requested != 0) return requested;
    const unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? 1 : hw;
  }

  /// The lazily constructed process-wide pool (hardware-sized at first
  /// use). Passes fall back to it when the pipeline injected none, so even
  /// bare `PassManager::run` calls never construct throwaway pools.
  static ThreadPool& shared() {
    static ThreadPool pool(resolve(0));
    return pool;
  }

  /// Grows the pool to at least `n` executors (including the caller).
  /// Threads are spawned once and persist; shrinking is not supported.
  void ensure_workers(unsigned n) {
    const std::lock_guard<std::mutex> lock(mu_);
    unsigned w = workers_.load(std::memory_order_relaxed);
    while (w < n) {
      threads_.emplace_back([this, w] { worker_loop(w); });
      ++w;
    }
    workers_.store(w, std::memory_order_relaxed);
  }

  /// Queues `job` to run once on some executor other than the caller
  /// (unless the caller later reclaims it inside `wait`). The `executor`
  /// argument the job receives is the pool-wide id of the thread that ran
  /// it (0 when a waiting caller reclaimed it); two jobs observing the
  /// same id never run concurrently.
  void submit(Batch& batch, std::function<void(unsigned)> job) {
    {
      const std::lock_guard<std::mutex> block(batch.mu);
      ++batch.pending;
    }
    {
      const std::lock_guard<std::mutex> lock(mu_);
      queue_.push_back(Job{&batch, std::move(job)});
    }
    work_cv_.notify_one();
  }

  /// Blocks until every job submitted to `batch` has finished, then
  /// rethrows the first exception any of them threw (clearing it). Jobs of
  /// this batch still queued are reclaimed and run on the calling thread,
  /// so wait() always terminates even when no pool thread is free.
  void wait(Batch& batch) {
    // Reclaim: pull this batch's unstarted jobs out of the shared queue
    // and run them here. Anything not reclaimed is already running (or
    // finished) on a worker.
    for (;;) {
      Job job;
      {
        const std::lock_guard<std::mutex> lock(mu_);
        bool found = false;
        for (auto it = queue_.begin(); it != queue_.end(); ++it) {
          if (it->batch == &batch) {
            job = std::move(*it);
            queue_.erase(it);
            found = true;
            break;
          }
        }
        if (!found) break;
      }
      run_job(job, /*executor=*/0);
    }
    std::unique_lock<std::mutex> lock(batch.mu);
    batch.done_cv.wait(lock, [&batch] { return batch.pending == 0; });
    if (batch.error) {
      std::exception_ptr err = std::exchange(batch.error, nullptr);
      lock.unlock();
      std::rethrow_exception(err);
    }
  }

  /// Runs body(i, executor) for every i in [0, n). Blocks until all
  /// iterations finish; rethrows the first body exception afterwards.
  /// Iterations are claimed dynamically (atomic counter), so the
  /// index->executor assignment is nondeterministic with 2+ workers --
  /// bodies must only touch per-index or per-executor state. The executor
  /// ids handed to the body are loop-local (0 = the caller); concurrent
  /// parallel_for calls on one pool are safe because each call owns its
  /// claim counter and batch.
  void parallel_for(std::size_t n,
                    const std::function<void(std::size_t, unsigned)>& body) {
    const unsigned w = workers();
    if (w == 1 || n <= 1) {
      for (std::size_t i = 0; i < n; ++i) body(i, 0);
      return;
    }
    Batch batch;
    std::atomic<std::size_t> next{0};
    const auto drain = [&](unsigned loop_executor) {
      for (;;) {
        const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
        if (i >= n) return;
        try {
          body(i, loop_executor);
        } catch (...) {
          const std::lock_guard<std::mutex> block(batch.mu);
          if (!batch.error) batch.error = std::current_exception();
        }
      }
    };
    for (unsigned e = 1; e < w; ++e) {
      submit(batch, [&drain, e](unsigned) { drain(e); });
    }
    drain(0);
    wait(batch);
  }

 private:
  struct Job {
    Batch* batch = nullptr;
    std::function<void(unsigned)> fn;
  };

  void run_job(Job& job, unsigned executor) {
    try {
      job.fn(executor);
    } catch (...) {
      const std::lock_guard<std::mutex> block(job.batch->mu);
      if (!job.batch->error) job.batch->error = std::current_exception();
    }
    // Notify under the batch lock, and only for the last job: the batch
    // lives on the waiter's stack, and the waiter may return and destroy it
    // as soon as it can observe pending == 0 -- which, with the lock held
    // here, is only after this notify.
    const std::lock_guard<std::mutex> block(job.batch->mu);
    if (--job.batch->pending == 0) job.batch->done_cv.notify_all();
  }

  void worker_loop(unsigned executor) {
    for (;;) {
      Job job;
      {
        std::unique_lock<std::mutex> lock(mu_);
        work_cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
        if (queue_.empty()) return;  // stop_ with nothing left to run
        job = std::move(queue_.front());
        queue_.pop_front();
      }
      run_job(job, executor);
    }
  }

  std::atomic<unsigned> workers_{1};
  std::vector<std::thread> threads_;

  std::mutex mu_;                   ///< guards queue_, stop_, thread growth
  std::condition_variable work_cv_; ///< wakes workers on submit and stop
  std::deque<Job> queue_;           ///< submitted jobs not yet claimed
  bool stop_ = false;
};

}  // namespace bds::util
