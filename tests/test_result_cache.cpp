// The content-addressed result cache and the manager pool (the bdsd
// daemon's two cross-request amortization structures): canonical function
// hashing must be manager-independent, fragments must round-trip the exact
// forest node vector, corruption must degrade to a miss, LRU eviction must
// respect the byte budget, and a recycled pooled manager must be
// indistinguishable from a fresh one -- memory gauge included.
#include <gtest/gtest.h>

#include <memory>
#include <string>
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
using core::FactKind;
using core::FactNode;
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
  o = base;
  o.max_cuts = 16;
  EXPECT_NE(decompose_cache_key(42, o, true, 5), k0);

  // Identical inputs reproduce the key (it addresses a shared cache).
  EXPECT_EQ(decompose_cache_key(42, base, true, 5), k0);
}

TEST(ResultCache, SkippedSupernodesKeepTheHitRateDenominatorExact) {
  // The accounting fix: a supernode that degrades before its cache lookup
  // (budget trip during transfer) is counted as cache_skipped, so
  // hits + misses + skipped always equals the supernode count -- the
  // denominator never silently drifts.
  double total_skipped = 0.0;
  for (net::Network& input :
       std::vector<net::Network>{gen::parity_tree(24), gen::alu(4)}) {
    net::Network net = std::move(input);
    PassContext ctx;
    PassManager::from_script("sweep; bds_partition").run(net, {}, ctx);
    const std::size_t supernodes =
        ctx.state<BdsFlowState>().part.supernodes.size();
    ASSERT_GT(supernodes, 0u);

    PipelineOptions popts;
    popts.node_limit = 12;  // tight enough to trip inside big transfers
    popts.result_cache = std::make_shared<ResultCache>();
    const PipelineStats ps =
        PassManager::from_script("bds_decompose; bds_sharing; bds_emit")
            .run(net, popts, ctx);

    const double hits = ps.counter("cache_hits");
    const double misses = ps.counter("cache_misses");
    const double skipped = ps.counter("cache_skipped");
    EXPECT_EQ(hits + misses + skipped, static_cast<double>(supernodes));
    total_skipped += skipped;
  }
  EXPECT_GT(total_skipped, 0.0)
      << "node limit 12 degraded no transfer; the threshold no longer "
         "exercises the skip path";
}

TEST(ResultCache, WarmHitsPlusMissesStillCoverEverySupernode) {
  const net::Network input = gen::ripple_adder(10);
  PipelineOptions popts;
  popts.result_cache = std::make_shared<ResultCache>();
  double supernodes = 0.0;
  for (int round = 0; round < 2; ++round) {
    net::Network net = input;
    PassContext ctx;
    PassManager::from_script("sweep; bds_partition").run(net, {}, ctx);
    supernodes =
        static_cast<double>(ctx.state<BdsFlowState>().part.supernodes.size());
    const PipelineStats ps =
        PassManager::from_script("bds_decompose; bds_sharing; bds_emit")
            .run(net, popts, ctx);
    EXPECT_EQ(ps.counter("cache_hits") + ps.counter("cache_misses") +
                  ps.counter("cache_skipped"),
              supernodes)
        << "round " << round;
    EXPECT_EQ(ps.counter("cache_skipped"), 0.0) << "round " << round;
    if (round == 1) EXPECT_EQ(ps.counter("cache_hits"), supernodes);
  }
}

FactoringForest sample_forest(FactId& root) {
  FactoringForest forest;
  const FactId x = forest.mk_var(0);
  const FactId y = forest.mk_var(1);
  const FactId z = forest.mk_var(2);
  root = forest.mk_or(forest.mk_and(x, y), forest.mk_mux(z, x, y));
  return forest;
}

TEST(FragmentCodec, RoundTripsNodesRootAndStats) {
  FactId root = core::kNoFact;
  const FactoringForest forest = sample_forest(root);
  DecomposeStats stats;
  stats.one_dominator = 3;
  stats.functional_mux = 1;
  stats.shannon = 7;

  const std::string bytes = encode_fragment(forest, root, stats);

  FactoringForest out;
  FactId out_root = core::kNoFact;
  DecomposeStats out_stats;
  ASSERT_TRUE(decode_fragment(bytes, out, out_root, out_stats));
  EXPECT_EQ(out_root, root);
  EXPECT_EQ(out_stats.one_dominator, 3u);
  EXPECT_EQ(out_stats.functional_mux, 1u);
  EXPECT_EQ(out_stats.shannon, 7u);
  ASSERT_EQ(out.size(), forest.size());
  for (FactId i = 0; i < forest.size(); ++i) {
    EXPECT_EQ(out.node(i).kind, forest.node(i).kind);
    EXPECT_EQ(out.node(i).var, forest.node(i).var);
    EXPECT_EQ(out.node(i).a, forest.node(i).a);
    EXPECT_EQ(out.node(i).b, forest.node(i).b);
    EXPECT_EQ(out.node(i).c, forest.node(i).c);
  }
  // The restored forest interns against the rebuilt hash index: re-making
  // existing nodes must find them, not append duplicates.
  const std::size_t before = out.size();
  const FactId x = out.mk_var(0);
  const FactId y = out.mk_var(1);
  const FactId a = out.mk_and(x, y);
  EXPECT_EQ(out.size(), before);
  EXPECT_LT(a, before);
}

TEST(FragmentCodec, CorruptionDegradesToAMiss) {
  FactId root = core::kNoFact;
  const FactoringForest forest = sample_forest(root);
  const std::string good = encode_fragment(forest, root, DecomposeStats{});

  FactoringForest out;
  FactId out_root = core::kNoFact;
  DecomposeStats out_stats;

  // Truncations at every prefix length must be rejected, never crash.
  for (std::size_t n = 0; n < good.size(); ++n) {
    EXPECT_FALSE(
        decode_fragment(good.substr(0, n), out, out_root, out_stats));
  }
  {  // trailing garbage
    EXPECT_FALSE(decode_fragment(good + "x", out, out_root, out_stats));
  }
  {  // an out-of-range kind byte
    std::string bad = good;
    // nodes start after count(u32) + root(u32) + 8 stats u64s; the first
    // byte of node 0 is its kind.
    bad[4 + 4 + 64] = static_cast<char>(0x7f);
    EXPECT_FALSE(decode_fragment(bad, out, out_root, out_stats));
  }
  {  // empty value
    EXPECT_FALSE(decode_fragment(std::string(), out, out_root, out_stats));
  }
  // The outputs were never touched by the failed decodes.
  EXPECT_EQ(out.size(), 2u);  // just the const slots
  EXPECT_EQ(out_root, core::kNoFact);
}

TEST(ResultCache, LruEvictionRespectsTheByteBudget) {
  ResultCache cache(/*byte_budget=*/100);
  cache.insert(1, std::string(40, 'a'));
  cache.insert(2, std::string(40, 'b'));
  std::string v;
  ASSERT_TRUE(cache.lookup(1, v));
  EXPECT_EQ(v, std::string(40, 'a'));

  // Key 2 is now least recently used; a third entry evicts it, not 1.
  cache.insert(3, std::string(40, 'c'));
  EXPECT_TRUE(cache.lookup(1, v));
  EXPECT_FALSE(cache.lookup(2, v));
  EXPECT_TRUE(cache.lookup(3, v));

  const ResultCache::Stats s = cache.stats();
  EXPECT_EQ(s.insertions, 3u);
  EXPECT_EQ(s.evictions, 1u);
  EXPECT_EQ(s.entries, 2u);
  EXPECT_EQ(s.bytes, 80u);
  EXPECT_EQ(s.hits, 3u);
  EXPECT_EQ(s.misses, 1u);

  // A value larger than the whole budget is not cached at all.
  cache.insert(9, std::string(200, 'z'));
  EXPECT_FALSE(cache.lookup(9, v));
  EXPECT_LE(cache.stats().bytes, 100u);
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
