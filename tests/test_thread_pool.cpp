// ThreadPool unit tests: full index coverage, per-executor isolation,
// reuse across loops, exception propagation, the -j resolution rule, pool
// growth, and concurrent loops on one pool.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <latch>
#include <numeric>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "util/thread_pool.hpp"

namespace bds::util {
namespace {

TEST(ThreadPool, RunsEveryIndexExactlyOnce) {
  for (const unsigned workers : {1u, 2u, 4u, 8u}) {
    ThreadPool pool(workers);
    EXPECT_EQ(pool.workers(), workers);
    constexpr std::size_t kN = 10'000;
    std::vector<std::atomic<int>> hits(kN);
    pool.parallel_for(kN, workers, [&](std::size_t i, unsigned executor) {
      ASSERT_LT(executor, workers);
      hits[i].fetch_add(1, std::memory_order_relaxed);
    });
    for (std::size_t i = 0; i < kN; ++i) {
      EXPECT_EQ(hits[i].load(), 1) << "index " << i << " at -j" << workers;
    }
  }
}

TEST(ThreadPool, PerExecutorAccumulatorsNeedNoSharing) {
  ThreadPool pool(4);
  constexpr std::size_t kN = 4096;
  std::vector<std::uint64_t> per_executor(pool.workers(), 0);
  pool.parallel_for(kN, 4, [&](std::size_t i, unsigned executor) {
    per_executor[executor] += i;  // disjoint per executor: no race
  });
  const std::uint64_t total =
      std::accumulate(per_executor.begin(), per_executor.end(),
                      std::uint64_t{0});
  EXPECT_EQ(total, std::uint64_t{kN} * (kN - 1) / 2);
}

TEST(ThreadPool, PoolIsReusableAcrossJobs) {
  ThreadPool pool(3);
  std::atomic<std::size_t> total{0};
  for (int round = 0; round < 50; ++round) {
    pool.parallel_for(100, 3, [&](std::size_t, unsigned) {
      total.fetch_add(1, std::memory_order_relaxed);
    });
  }
  EXPECT_EQ(total.load(), 5'000u);
}

TEST(ThreadPool, FirstBodyExceptionIsRethrownAfterDraining) {
  ThreadPool pool(4);
  std::atomic<std::size_t> ran{0};
  EXPECT_THROW(
      pool.parallel_for(64, 4,
                        [&](std::size_t i, unsigned) {
                          ran.fetch_add(1, std::memory_order_relaxed);
                          if (i == 13) throw std::runtime_error("boom");
                        }),
      std::runtime_error);
  // Every claimed index still ran to completion or was claimed-and-thrown;
  // the pool must remain usable afterwards.
  EXPECT_EQ(ran.load(), 64u);
  std::atomic<std::size_t> after{0};
  pool.parallel_for(8, 4, [&](std::size_t, unsigned) {
    after.fetch_add(1, std::memory_order_relaxed);
  });
  EXPECT_EQ(after.load(), 8u);
}

TEST(ThreadPool, ResolveMapsZeroToHardware) {
  EXPECT_EQ(ThreadPool::resolve(1), 1u);
  EXPECT_EQ(ThreadPool::resolve(7), 7u);
  EXPECT_GE(ThreadPool::resolve(0), 1u);
}

TEST(ThreadPool, SingleWorkerRunsInOrderOnCaller) {
  ThreadPool pool(1);
  std::vector<std::size_t> order;
  pool.parallel_for(16, 1, [&](std::size_t i, unsigned executor) {
    EXPECT_EQ(executor, 0u);
    order.push_back(i);  // serial path: no synchronization needed
  });
  ASSERT_EQ(order.size(), 16u);
  for (std::size_t i = 0; i < order.size(); ++i) EXPECT_EQ(order[i], i);
  EXPECT_EQ(pool.workers(), 1u);
}

TEST(ThreadPool, SharedPoolStartsWithoutThreads) {
  // Nothing in this binary runs a loop on the shared pool, so it still has
  // only its caller: a -j 1 process spawns no thread.
  EXPECT_EQ(ThreadPool::shared().workers(), 1u);
}

TEST(ThreadPool, LoopsGrowThePoolAndNeverShrinkIt) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.workers(), 1u);
  std::vector<std::atomic<int>> hits(1000);
  pool.parallel_for(hits.size(), 4, [&](std::size_t i, unsigned executor) {
    ASSERT_LT(executor, 4u);
    hits[i].fetch_add(1, std::memory_order_relaxed);
  });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
  EXPECT_EQ(pool.workers(), 4u);
  // A narrower loop uses at most its own width and leaves the pool as is.
  pool.parallel_for(hits.size(), 2, [&](std::size_t i, unsigned executor) {
    ASSERT_LT(executor, 2u);
    hits[i].fetch_add(1, std::memory_order_relaxed);
  });
  for (auto& h : hits) EXPECT_EQ(h.load(), 2);
  EXPECT_EQ(pool.workers(), 4u);
}

TEST(ThreadPool, ExecutorsNeverExceedTheIndexCount) {
  ThreadPool pool(8);
  std::vector<std::atomic<int>> hits(3);
  pool.parallel_for(hits.size(), 8, [&](std::size_t i, unsigned executor) {
    ASSERT_LT(executor, 3u);
    hits[i].fetch_add(1, std::memory_order_relaxed);
  });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, DrainedLoopNeverWaitsOnAnotherLoopsWork) {
  // The first loop holds both executors of a 2-executor pool: its caller
  // and the pool's one thread block in its bodies. A second loop on
  // another thread finds no free helper, runs all of its indices on its
  // own caller and returns while the first loop is still blocked.
  ThreadPool pool(2);
  std::latch entered(2);
  std::latch release(1);
  std::thread holder([&] {
    pool.parallel_for(2, 2, [&](std::size_t, unsigned) {
      entered.count_down();
      release.wait();
    });
  });
  entered.wait();
  std::vector<unsigned> executors;
  std::atomic<bool> returned{false};
  std::thread second([&] {
    pool.parallel_for(4, 2, [&](std::size_t, unsigned executor) {
      executors.push_back(executor);  // only this caller runs the loop
    });
    returned.store(true, std::memory_order_release);
  });
  // Bounded wait, so a regression fails here instead of hanging the suite.
  for (int i = 0; i < 1000 && !returned.load(std::memory_order_acquire);
       ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_TRUE(returned.load(std::memory_order_acquire))
      << "the second loop waited for the first";
  release.count_down();
  second.join();
  holder.join();
  ASSERT_EQ(executors.size(), 4u);
  for (const unsigned e : executors) EXPECT_EQ(e, 0u);
}

TEST(ThreadPool, ManyShortParallelForRoundsOnOnePool) {
  // Each parallel_for round keeps its loop record on the caller's stack,
  // and the caller returns -- destroying it -- the moment the last helper
  // leaves. The leaving helper must not touch the record after that point
  // (notifying its condition variable after unlocking the mutex would be a
  // use-after-scope TSan reports). Rounds are long enough that the pool
  // threads, not just the caller, run indices.
  ThreadPool pool(4);
  constexpr int kRounds = 20000;
  constexpr std::size_t kIndices = 64;
  std::size_t total = 0;
  for (int round = 0; round < kRounds; ++round) {
    std::atomic<std::size_t> ran{0};
    pool.parallel_for(kIndices, 4, [&](std::size_t, unsigned) {
      ran.fetch_add(1, std::memory_order_relaxed);
    });
    total += ran.load();
  }
  EXPECT_EQ(total, kRounds * kIndices);
}

}  // namespace
}  // namespace bds::util
