// The content-addressed result cache and the manager pool (the bdsd
// daemon's two cross-request amortization structures): canonical function
// hashing must be manager-independent, a cached cone result must splice
// byte-identically however long a request holds it and however many
// requests read it at once, LRU eviction must respect the byte budget, and
// a recycled pooled manager must be indistinguishable from a fresh one --
// memory gauge included.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bdd/bdd.hpp"
#include "core/sharing.hpp"
#include "gen/gen.hpp"
#include "opt/bds_passes.hpp"
#include "opt/manager.hpp"
#include "opt/manager_pool.hpp"
#include "opt/result_cache.hpp"

namespace bds::opt {
namespace {

using bdd::Bdd;
using bdd::Edge;
using bdd::Manager;
using core::DecomposeOptions;
using core::DecomposeStats;
using core::FactId;
using core::FactoringForest;

TEST(CanonicalFunctionHash, IndependentOfManagerAndBuildOrder) {
  // Same function, three different construction histories: a fresh
  // manager, a manager with unrelated junk built first (different node
  // indices), and a different operand association.
  Manager m1(4);
  const Bdd f1 = (m1.var(0) & m1.var(1)) | (m1.var(2) & m1.var(3));

  Manager m2(4);
  const Bdd junk = m2.var(3) ^ m2.var(1);  // shifts node indices
  const Bdd f2 = (m2.var(2) & m2.var(3)) | (m2.var(0) & m2.var(1));

  const std::uint64_t h1 = core::canonical_function_hash(m1, f1.edge());
  const std::uint64_t h2 = core::canonical_function_hash(m2, f2.edge());
  EXPECT_EQ(h1, h2);

  // Different function and complemented root both change the digest.
  const Bdd g = (m1.var(0) & m1.var(1)) | (m1.var(2) & m1.var(2));
  EXPECT_NE(core::canonical_function_hash(m1, g.edge()), h1);
  EXPECT_NE(core::canonical_function_hash(m1, !f1.edge()), h1);

  // Constants hash consistently and distinctly.
  EXPECT_EQ(core::canonical_function_hash(m1, Edge::one()),
            core::canonical_function_hash(m2, Edge::one()));
  EXPECT_NE(core::canonical_function_hash(m1, Edge::one()),
            core::canonical_function_hash(m1, Edge::zero()));
}

TEST(DecomposeCacheKey, SensitiveToEveryOptionButNotJobs) {
  const DecomposeOptions base;
  const std::uint64_t k0 = decompose_cache_key(42, base, true, 5);

  EXPECT_NE(decompose_cache_key(43, base, true, 5), k0);  // function
  EXPECT_NE(decompose_cache_key(42, base, false, 5), k0);  // reorder
  EXPECT_NE(decompose_cache_key(42, base, true, 6), k0);   // arity

  DecomposeOptions o = base;
  o.dc_minimizer = core::DcMinimizer::kConstrain;
  EXPECT_NE(decompose_cache_key(42, o, true, 5), k0);
  o = base;
  o.use_mux = false;
  EXPECT_NE(decompose_cache_key(42, o, true, 5), k0);
  o = base;
  o.use_xdom = false;
  EXPECT_NE(decompose_cache_key(42, o, true, 5), k0);

  // Identical inputs reproduce the key (it addresses a shared cache).
  EXPECT_EQ(decompose_cache_key(42, base, true, 5), k0);
}

/// hits + misses + skipped + cone_repeats of one bds_decompose run: every
/// supernode is counted exactly once.
double accounted(const PipelineStats& ps) {
  return ps.counter("cache_hits") + ps.counter("cache_misses") +
         ps.counter("cache_skipped") + ps.counter("cone_repeats");
}

TEST(ResultCache, SkippedSupernodesKeepTheHitRateDenominatorExact) {
  // The accounting fix: a supernode that degrades before its cache lookup
  // is counted as cache_skipped, so hits + misses + skipped + cone_repeats
  // always equals the supernode count -- the denominator never silently
  // drifts. The lookup comes before the lease, so the cones that degrade
  // before it are those of a partition the budget reduced to one
  // supernode per node; a cone whose transfer trips has been looked up
  // and is a miss.
  double total_skipped = 0.0;
  for (net::Network& input :
       std::vector<net::Network>{gen::parity_tree(24), gen::alu(4)}) {
    PipelineOptions popts;
    popts.node_limit = 12;  // trips the partition and big transfers alike
    popts.result_cache = std::make_shared<ResultCache>();
    for (const bool budgeted_partition : {false, true}) {
      net::Network net = input;
      PassContext ctx;
      PassManager::from_script("sweep; bds_partition")
          .run(net, budgeted_partition ? popts : PipelineOptions{}, ctx);
      const BdsFlowState& st = ctx.state<BdsFlowState>();
      const std::size_t supernodes = st.part.supernodes.size();
      ASSERT_GT(supernodes, 0u);
      EXPECT_EQ(st.part.degraded, budgeted_partition) << input.name();

      const PipelineStats ps =
          PassManager::from_script("bds_decompose; bds_sharing; bds_emit")
              .run(net, popts, ctx);
      EXPECT_EQ(accounted(ps), static_cast<double>(supernodes))
          << input.name();
      total_skipped += ps.counter("cache_skipped");
    }
  }
  EXPECT_GT(total_skipped, 0.0)
      << "node limit 12 degraded no partition; the threshold no longer "
         "exercises the skip path";
}

TEST(ResultCache, WarmHitsPlusMissesStillCoverEverySupernode) {
  // The cache counters count leaders only: a cone that repeats an earlier
  // cone of the same run is a cone_repeat and never reaches the cache.
  // So the warm round hits once per leader, not once per supernode.
  const net::Network input = gen::ripple_adder(10);
  PipelineOptions popts;
  popts.result_cache = std::make_shared<ResultCache>();
  for (int round = 0; round < 2; ++round) {
    net::Network net = input;
    PassContext ctx;
    PassManager::from_script("sweep; bds_partition").run(net, {}, ctx);
    const double supernodes =
        static_cast<double>(ctx.state<BdsFlowState>().part.supernodes.size());
    const PipelineStats ps =
        PassManager::from_script("bds_decompose; bds_sharing; bds_emit")
            .run(net, popts, ctx);
    EXPECT_EQ(accounted(ps), supernodes) << "round " << round;
    EXPECT_EQ(ps.counter("cache_skipped"), 0.0) << "round " << round;
    const double repeats = ps.counter("cone_repeats");
    EXPECT_GT(repeats, 0.0) << "round " << round;
    EXPECT_EQ(ps.counter(round == 0 ? "cache_misses" : "cache_hits"),
              supernodes - repeats)
        << "round " << round;
  }
}

/// A decomposition-shaped result over variables 0..2; `salt` varies the
/// tree (and so the cache key a test files it under) without changing the
/// shape, so every salt is charged the same bytes.
std::shared_ptr<const ConeResult> sample_result(bdd::Var salt = 0) {
  auto r = std::make_shared<ConeResult>();
  FactoringForest& f = r->forest;
  const FactId x = f.mk_var(salt % 3);
  const FactId y = f.mk_var((salt + 1) % 3);
  const FactId z = f.mk_var((salt + 2) % 3);
  r->root = f.mk_or(f.mk_and(x, y), f.mk_mux(z, x, y));
  r->stats.functional_mux = 1;
  return r;
}

/// Splices `r` into a fresh forest over leaves 10, 11, 12 and renders it.
std::string splice(const ConeResult& r) {
  FactoringForest dst;
  std::vector<FactId> leaf_map;
  for (bdd::Var v = 10; v < 13; ++v) leaf_map.push_back(dst.mk_var(v));
  return dst.to_string(r.forest.copy_into(dst, r.root, leaf_map));
}

TEST(ResultCache, HeldResultOutlivesItsEvictionAndSplicesIdentically) {
  const std::size_t one = ResultCache::charge(*sample_result());
  ResultCache cache(/*byte_budget=*/one);
  cache.insert(1, sample_result());
  const std::shared_ptr<const ConeResult> held = cache.lookup(1);
  ASSERT_NE(held, nullptr);
  const std::string before = splice(*held);

  cache.insert(2, sample_result(1));  // the budget holds one entry
  EXPECT_EQ(cache.lookup(1), nullptr);
  EXPECT_EQ(cache.stats().evictions, 1u);

  // The holder still owns the evicted result, unchanged, and it splices
  // to the same bytes as a cold build of the same cone.
  EXPECT_EQ(splice(*held), before);
  EXPECT_EQ(splice(*sample_result()), before);
  EXPECT_EQ(held->stats.functional_mux, 1u);
}

TEST(ResultCache, ConcurrentRequestsShareResultsByteIdentically) {
  const net::Network input = gen::ripple_adder(12);
  const auto run = [&input](const PipelineOptions& popts) {
    net::Network net = input;
    PassManager::from_script("bds", {{"jobs", "2"}}).run(net, popts);
    return net::to_blif_string(net);
  };
  const std::string cold = run(PipelineOptions{});

  // Two requests at -j 2 through one cache, several rounds each, so one
  // thread's hits read results the other thread inserted.
  PipelineOptions shared;
  shared.result_cache = std::make_shared<ResultCache>();
  std::vector<std::string> outputs(6);
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < 2; ++t) {
    threads.emplace_back([&, t] {
      for (std::size_t round = 0; round < 3; ++round) {
        outputs[t * 3 + round] = run(shared);
      }
    });
  }
  for (std::thread& th : threads) th.join();
  for (const std::string& out : outputs) EXPECT_EQ(out, cold);
  EXPECT_GT(shared.result_cache->stats().hits, 0u);
}

TEST(ResultCache, LruEvictionRespectsTheByteBudget) {
  const std::size_t one = ResultCache::charge(*sample_result());
  ResultCache cache(/*byte_budget=*/2 * one + one / 2);
  const std::shared_ptr<const ConeResult> a = sample_result(0);
  cache.insert(1, a);
  cache.insert(2, sample_result(1));
  std::shared_ptr<const ConeResult> v = cache.lookup(1);
  ASSERT_NE(v, nullptr);
  EXPECT_EQ(v, a);  // returned unchanged, not a copy

  // Key 2 is now least recently used; a third entry evicts it, not 1.
  cache.insert(3, sample_result(2));
  EXPECT_NE(cache.lookup(1), nullptr);
  EXPECT_EQ(cache.lookup(2), nullptr);
  EXPECT_NE(cache.lookup(3), nullptr);

  const ResultCache::Stats s = cache.stats();
  EXPECT_EQ(s.insertions, 3u);
  EXPECT_EQ(s.evictions, 1u);
  EXPECT_EQ(s.entries, 2u);
  EXPECT_EQ(s.bytes, 2 * one);
  EXPECT_EQ(s.hits, 3u);
  EXPECT_EQ(s.misses, 1u);

  // A result larger than the whole budget is not cached at all.
  auto big = std::make_shared<ConeResult>();
  for (bdd::Var x = 0; x < 64; ++x) big->root = big->forest.mk_var(x);
  ASSERT_GT(ResultCache::charge(*big), 2 * one + one / 2);
  cache.insert(9, big);
  EXPECT_EQ(cache.lookup(9), nullptr);
  EXPECT_LE(cache.stats().bytes, 2 * one + one / 2);
}

TEST(ManagerPool, RecycledManagerIsIndistinguishableFromFresh) {
  ManagerPool pool;
  const std::size_t baseline = pool.constructed();

  std::size_t fresh_memory = 0;
  {
    ManagerPool::Lease lease = pool.acquire(6);
    ASSERT_TRUE(lease.valid());
    EXPECT_EQ(lease->num_vars(), 6u);
    fresh_memory = lease->stats().memory_bytes;
    // Grow the manager well past its pristine footprint.
    Bdd f = lease->one();
    for (bdd::Var v = 0; v < 6; ++v) f = f & lease->var(v);
    f = f ^ lease->var(3);
    EXPECT_GT(lease->live_nodes(), 1u);
  }  // lease returns the manager: budget stripped, reset, parked

  EXPECT_EQ(pool.constructed(), baseline + 1);
  EXPECT_EQ(pool.idle(), 1u);

  {
    ManagerPool::Lease lease = pool.acquire(6);
    EXPECT_EQ(pool.constructed(), baseline + 1);  // recycled, not built
    EXPECT_EQ(lease->num_vars(), 6u);
    EXPECT_EQ(lease->live_nodes(), 1u);  // just the terminal
    // The determinism contract: a recycled manager reports the same
    // capacity-derived memory gauge as a fresh one.
    EXPECT_EQ(lease->stats().memory_bytes, fresh_memory);
    EXPECT_EQ(lease->stats().saturated_refs, 0u);
  }

  // Explicit release is idempotent and ends the lease.
  ManagerPool::Lease lease = pool.acquire(2);
  EXPECT_EQ(pool.idle(), 0u);
  lease.release();
  EXPECT_FALSE(lease.valid());
  lease.release();
  EXPECT_EQ(pool.idle(), 1u);

  // Alternating starting sizes: every lease matches a fresh
  // Manager(n, entries) in table size and capacity-derived footprint,
  // whichever size the recycled manager last had.
  constexpr std::size_t kSmall = std::size_t{1} << 8;
  constexpr std::size_t kDefault = bdd::Manager::kCacheInitialEntries;
  for (const std::size_t entries : {kSmall, kDefault, kSmall, kDefault}) {
    ManagerPool::Lease sized = pool.acquire(6, entries);
    const bdd::Manager fresh(6, entries);
    EXPECT_EQ(sized->initial_cache_entries(), entries);
    EXPECT_EQ(sized->stats().cache_entries, fresh.stats().cache_entries);
    EXPECT_EQ(sized->stats().memory_bytes, fresh.stats().memory_bytes);
    EXPECT_EQ(sized->live_nodes(), 1u);
    // Leave it grown: the next lease must see none of this.
    Bdd f = sized->one();
    for (bdd::Var v = 0; v < 6; ++v) f = f ^ sized->var(v);
  }
  EXPECT_EQ(pool.constructed(), baseline + 1);  // one manager, resized
}

TEST(ManagerPool, PrefersAnIdleManagerOfTheRequestedSize) {
  constexpr std::size_t kSmall = std::size_t{1} << 8;
  ManagerPool pool;
  const bdd::Manager* small_mgr = nullptr;
  const bdd::Manager* big_mgr = nullptr;
  {
    ManagerPool::Lease small = pool.acquire(3, kSmall);
    ManagerPool::Lease big = pool.acquire(3);
    small_mgr = small.get();
    big_mgr = big.get();
  }
  // Parked most recent last: whichever size is asked for first, each
  // request gets the manager already at its size, not the last parked one.
  for (int round = 0; round < 3; ++round) {
    ManagerPool::Lease big = pool.acquire(3);
    ManagerPool::Lease small = pool.acquire(3, kSmall);
    EXPECT_EQ(big.get(), big_mgr);
    EXPECT_EQ(small.get(), small_mgr);
    EXPECT_EQ(small->stats().cache_entries, kSmall);
    EXPECT_EQ(big->stats().cache_entries, bdd::Manager::kCacheInitialEntries);
    if (round == 1) big.release();  // vary the parking order
  }
  EXPECT_EQ(pool.constructed(), 2u);
}

}  // namespace
}  // namespace bds::opt
