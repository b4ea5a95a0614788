// ThreadPool unit tests: full index coverage, per-executor isolation,
// reuse across jobs, exception propagation, the -j resolution rule, the
// submit/Batch/wait primitives parallel_for builds on, and the bounded
// MpmcQueue hand-off structure.
#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "util/mpmc_queue.hpp"
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

TEST(MpmcQueue, FifoWithinCapacity) {
  MpmcQueue<int> q(8);
  EXPECT_EQ(q.capacity(), 8u);
  for (int i = 0; i < 5; ++i) EXPECT_TRUE(q.try_push(i));
  EXPECT_EQ(q.size(), 5u);
  int v = -1;
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(q.try_pop(v));
    EXPECT_EQ(v, i);
  }
  EXPECT_FALSE(q.try_pop(v));  // empty, not closed: non-blocking miss
}

TEST(MpmcQueue, TryPushFailsWhenFullAndAfterClose) {
  MpmcQueue<int> q(2);
  EXPECT_TRUE(q.try_push(1));
  EXPECT_TRUE(q.try_push(2));
  EXPECT_FALSE(q.try_push(3));  // full: the consumer-side inline fallback
  int v = 0;
  ASSERT_TRUE(q.try_pop(v));
  EXPECT_TRUE(q.try_push(3));
  q.close();
  EXPECT_FALSE(q.try_push(4));
  EXPECT_FALSE(q.push(5));  // blocking push fails immediately once closed
}

TEST(MpmcQueue, CloseDrainsRemainingItemsBeforeEndingPops) {
  MpmcQueue<int> q(4);
  EXPECT_TRUE(q.push(10));
  EXPECT_TRUE(q.push(20));
  q.close();
  EXPECT_TRUE(q.closed());
  int v = 0;
  EXPECT_TRUE(q.pop(v));
  EXPECT_EQ(v, 10);
  EXPECT_TRUE(q.pop(v));
  EXPECT_EQ(v, 20);
  EXPECT_FALSE(q.pop(v));  // closed and drained: consumer-loop exit
}

TEST(MpmcQueue, CloseIsIdempotentAndWakesBlockedConsumers) {
  MpmcQueue<int> q(1);
  std::thread consumer([&q] {
    int v = 0;
    EXPECT_FALSE(q.pop(v));  // parked until close, then closed+empty
  });
  q.close();
  q.close();  // second close must be harmless
  consumer.join();
}

TEST(MpmcQueue, ManyProducersManyConsumersLoseNothing) {
  constexpr int kProducers = 4;
  constexpr int kConsumers = 4;
  constexpr int kPerProducer = 2'000;
  MpmcQueue<int> q(8);  // deliberately tight: exercises full/empty parking
  std::atomic<long long> sum{0};
  std::atomic<int> popped{0};
  std::vector<std::thread> threads;
  threads.reserve(kProducers + kConsumers);
  for (int c = 0; c < kConsumers; ++c) {
    threads.emplace_back([&] {
      int v = 0;
      while (q.pop(v)) {
        sum.fetch_add(v, std::memory_order_relaxed);
        popped.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (int p = 0; p < kProducers; ++p) {
    threads.emplace_back([&q, p] {
      for (int i = 0; i < kPerProducer; ++i) {
        EXPECT_TRUE(q.push(p * kPerProducer + i));
      }
    });
  }
  for (int p = 0; p < kProducers; ++p) threads[kConsumers + p].join();
  q.close();
  for (int c = 0; c < kConsumers; ++c) threads[c].join();
  constexpr long long kTotal = kProducers * kPerProducer;
  EXPECT_EQ(popped.load(), kTotal);
  EXPECT_EQ(sum.load(), kTotal * (kTotal - 1) / 2);
}

}  // namespace
}  // namespace bds::util
