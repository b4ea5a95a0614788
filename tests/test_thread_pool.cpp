// ThreadPool unit tests: full index coverage, per-executor isolation,
// reuse across jobs, exception propagation, the -j resolution rule, the
// submit/Batch/wait primitives parallel_for builds on.
#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <stdexcept>
#include <string>
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
    pool.parallel_for(kN, [&](std::size_t i, unsigned executor) {
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
  pool.parallel_for(kN, [&](std::size_t i, unsigned executor) {
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
    pool.parallel_for(100, [&](std::size_t, unsigned) {
      total.fetch_add(1, std::memory_order_relaxed);
    });
  }
  EXPECT_EQ(total.load(), 5'000u);
}

TEST(ThreadPool, FirstBodyExceptionIsRethrownAfterDraining) {
  ThreadPool pool(4);
  std::atomic<std::size_t> ran{0};
  EXPECT_THROW(
      pool.parallel_for(64,
                        [&](std::size_t i, unsigned) {
                          ran.fetch_add(1, std::memory_order_relaxed);
                          if (i == 13) throw std::runtime_error("boom");
                        }),
      std::runtime_error);
  // Every claimed index still ran to completion or was claimed-and-thrown;
  // the pool must remain usable afterwards.
  EXPECT_EQ(ran.load(), 64u);
  std::atomic<std::size_t> after{0};
  pool.parallel_for(8, [&](std::size_t, unsigned) {
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
  pool.parallel_for(16, [&](std::size_t i, unsigned executor) {
    EXPECT_EQ(executor, 0u);
    order.push_back(i);  // serial path: no synchronization needed
  });
  ASSERT_EQ(order.size(), 16u);
  for (std::size_t i = 0; i < order.size(); ++i) EXPECT_EQ(order[i], i);
}

TEST(ThreadPool, SubmitRunsEveryJobAndWaitBlocks) {
  ThreadPool pool(4);
  ThreadPool::Batch batch;
  std::atomic<std::size_t> ran{0};
  for (int i = 0; i < 200; ++i) {
    pool.submit(batch, [&](unsigned executor) {
      EXPECT_LT(executor, 4u);
      ran.fetch_add(1, std::memory_order_relaxed);
    });
  }
  pool.wait(batch);
  EXPECT_EQ(ran.load(), 200u);
}

TEST(ThreadPool, WaitReclaimsJobsOnSingleWorkerPool) {
  // A 1-worker pool has no threads at all: submitted jobs can only run
  // when wait() reclaims them onto the calling thread. If reclaim were
  // missing this test would deadlock.
  ThreadPool pool(1);
  ThreadPool::Batch batch;
  std::vector<unsigned> executors;
  for (int i = 0; i < 16; ++i) {
    pool.submit(batch, [&](unsigned executor) {
      executors.push_back(executor);
    });
  }
  pool.wait(batch);
  ASSERT_EQ(executors.size(), 16u);
  for (const unsigned e : executors) EXPECT_EQ(e, 0u);  // all reclaimed
}

TEST(ThreadPool, WaitRethrowsFirstSubmittedJobException) {
  ThreadPool pool(2);
  ThreadPool::Batch batch;
  std::atomic<std::size_t> ran{0};
  for (int i = 0; i < 32; ++i) {
    pool.submit(batch, [&, i](unsigned) {
      ran.fetch_add(1, std::memory_order_relaxed);
      if (i == 7) throw std::runtime_error("submitted job failed");
    });
  }
  EXPECT_THROW(pool.wait(batch), std::runtime_error);
  EXPECT_EQ(ran.load(), 32u);  // an exception never cancels sibling jobs
}

TEST(ThreadPool, BatchIsReusableAcrossWaitRounds) {
  ThreadPool pool(3);
  ThreadPool::Batch batch;
  std::atomic<std::size_t> total{0};
  for (int round = 0; round < 25; ++round) {
    for (int i = 0; i < 20; ++i) {
      pool.submit(batch, [&](unsigned) {
        total.fetch_add(1, std::memory_order_relaxed);
      });
    }
    pool.wait(batch);
  }
  EXPECT_EQ(total.load(), 500u);
}

TEST(ThreadPool, EnsureWorkersGrowsAndNeverShrinks) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.workers(), 1u);
  pool.ensure_workers(4);
  EXPECT_EQ(pool.workers(), 4u);
  pool.ensure_workers(2);  // shrinking is not supported: no-op
  EXPECT_EQ(pool.workers(), 4u);
  std::vector<std::atomic<int>> hits(1000);
  pool.parallel_for(hits.size(), [&](std::size_t i, unsigned executor) {
    ASSERT_LT(executor, 4u);
    hits[i].fetch_add(1, std::memory_order_relaxed);
  });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, PoolSurvivesReuseAcrossPassLikeRounds) {
  // The daemon regression this PR fixes: one pool serving many independent
  // "passes", each with its own batch, with no thread churn in between.
  ThreadPool pool(4);
  for (int pass = 0; pass < 10; ++pass) {
    ThreadPool::Batch batch;
    std::atomic<std::size_t> ran{0};
    for (int j = 0; j < 50; ++j) {
      pool.submit(batch, [&](unsigned) {
        ran.fetch_add(1, std::memory_order_relaxed);
      });
    }
    pool.wait(batch);
    EXPECT_EQ(ran.load(), 50u) << "pass " << pass;
  }
}

TEST(ThreadPool, ManyShortParallelForRoundsOnOnePool) {
  // Each parallel_for round keeps its Batch on the caller's stack, and the
  // caller returns -- destroying it -- the moment the last job is done.
  // The finishing worker must not touch the batch after that point (it
  // once notified the batch's condition variable after unlocking its
  // mutex, a use-after-scope TSan reports). Rounds are long enough that
  // the pool threads, not just the caller, finish jobs.
  ThreadPool pool(4);
  constexpr int kRounds = 20000;
  constexpr std::size_t kIndices = 64;
  std::size_t total = 0;
  for (int round = 0; round < kRounds; ++round) {
    std::atomic<std::size_t> ran{0};
    pool.parallel_for(kIndices, [&](std::size_t, unsigned) {
      ran.fetch_add(1, std::memory_order_relaxed);
    });
    total += ran.load();
  }
  EXPECT_EQ(total, kRounds * kIndices);
}

}  // namespace
}  // namespace bds::util
