// Tests for in-place adjacent level swap and Rudell sifting: functions and
// outstanding handles must survive any reordering unchanged.
#include <gtest/gtest.h>

#include "bdd/bdd.hpp"
#include "gen/gen.hpp"
#include "net/network.hpp"
#include "oracle.hpp"
#include "sop/sop.hpp"
#include "util/rng.hpp"

namespace bds::bdd {
namespace {

using test::TruthTable;

Bdd from_table(Manager& mgr, const TruthTable& t) {
  Bdd f = mgr.zero();
  for (std::size_t row = 0; row < t.rows(); ++row) {
    if (!t.at(row)) continue;
    Bdd minterm = mgr.one();
    for (unsigned v = 0; v < t.num_vars(); ++v) {
      minterm = minterm & (((row >> v) & 1) != 0 ? mgr.var(v) : mgr.nvar(v));
    }
    f = f | minterm;
  }
  return f;
}

bool matches(const Bdd& f, const TruthTable& t) {
  for (std::size_t row = 0; row < t.rows(); ++row) {
    if (f.eval(t.assignment(row)) != t.at(row)) return false;
  }
  return true;
}

TEST(Swap, AdjacentSwapPreservesFunctionAndConsistency) {
  Manager mgr(5);
  Rng rng(31);
  const TruthTable t = TruthTable::random(5, rng);
  const Bdd f = from_table(mgr, t);
  for (std::uint32_t l = 0; l + 1 < 5; ++l) {
    mgr.swap_levels(l);
    ASSERT_TRUE(mgr.check_consistency()) << "after swap at level " << l;
    ASSERT_TRUE(matches(f, t)) << "after swap at level " << l;
  }
}

TEST(Swap, SwapIsAnInvolution) {
  Manager mgr(4);
  const Bdd f = (mgr.var(0) & mgr.var(1)) | (mgr.var(2) ^ mgr.var(3));
  const Edge before = f.edge();
  const std::size_t size_before = f.size();
  mgr.swap_levels(1);
  mgr.swap_levels(1);
  EXPECT_EQ(f.edge(), before);  // identity must be restored in place
  EXPECT_EQ(f.size(), size_before);
  EXPECT_TRUE(mgr.check_consistency());
}

TEST(Swap, IndependentVariablesSwapCheaply) {
  Manager mgr(4);
  const Bdd f = mgr.var(0) & mgr.var(3);  // does not touch vars 1, 2
  const std::size_t before = mgr.live_nodes();
  mgr.swap_levels(1);
  EXPECT_EQ(mgr.live_nodes(), before);
  EXPECT_TRUE(mgr.check_consistency());
}

TEST(Sift, ReducesInterleavedComparatorBdd) {
  // f = (a0<->b0)(a1<->b1)...(ak<->bk) with the two halves separated in the
  // order is exponentially larger than with pairs adjacent; sifting must
  // find a near-linear-size order.
  constexpr unsigned k = 6;
  Manager mgr(2 * k);
  Bdd f = mgr.one();
  // Bad initial order: all a's (vars 0..k-1) above all b's (vars k..2k-1).
  for (unsigned i = 0; i < k; ++i) {
    f = f & mgr.var(i).xnor(mgr.var(k + i));
  }
  const std::size_t before = f.size();
  mgr.reorder_sift();
  const std::size_t after = f.size();
  EXPECT_LT(after, before / 4);
  EXPECT_LE(after, 3 * k + 2);
  EXPECT_TRUE(mgr.check_consistency());
  // Function is intact: spot-check a few assignments.
  std::vector<bool> eq(2 * k, false);
  EXPECT_TRUE(f.eval(eq));
  eq[0] = true;
  EXPECT_FALSE(f.eval(eq));
  eq[k] = true;
  EXPECT_TRUE(f.eval(eq));
}

TEST(Sift, PreservesRandomFunctions) {
  Manager mgr(7);
  Rng rng(5);
  std::vector<TruthTable> tables;
  std::vector<Bdd> funcs;
  for (int i = 0; i < 6; ++i) {
    tables.push_back(TruthTable::random(7, rng));
    funcs.push_back(from_table(mgr, tables.back()));
  }
  mgr.reorder_sift();
  for (int i = 0; i < 6; ++i) {
    EXPECT_TRUE(matches(funcs[i], tables[i])) << "function " << i;
  }
  EXPECT_TRUE(mgr.check_consistency());
}

TEST(SetOrder, InstallsExplicitPermutation) {
  Manager mgr(4);
  const Bdd f = (mgr.var(0) | mgr.var(2)) & (mgr.var(1) | mgr.var(3));
  mgr.set_order({3, 1, 0, 2});
  EXPECT_EQ(mgr.var_at_level(0), 3u);
  EXPECT_EQ(mgr.var_at_level(1), 1u);
  EXPECT_EQ(mgr.var_at_level(2), 0u);
  EXPECT_EQ(mgr.var_at_level(3), 2u);
  EXPECT_TRUE(mgr.check_consistency());
  EXPECT_TRUE(f.eval({true, true, false, false}));
  EXPECT_FALSE(f.eval({true, false, false, false}));
}

TEST(SetOrder, RoundTripRestoresIdentityOrder) {
  Manager mgr(5);
  Rng rng(77);
  const TruthTable t = TruthTable::random(5, rng);
  const Bdd f = from_table(mgr, t);
  mgr.set_order({4, 3, 2, 1, 0});
  mgr.set_order({0, 1, 2, 3, 4});
  for (Var v = 0; v < 5; ++v) EXPECT_EQ(mgr.level_of(v), v);
  EXPECT_TRUE(matches(f, t));
}

struct SiftCase {
  unsigned vars;
  std::uint64_t seed;
};
class SiftProperty : public ::testing::TestWithParam<SiftCase> {};

TEST_P(SiftProperty, NeverGrowsBeyondBoundAndPreservesSemantics) {
  const auto [nv, seed] = GetParam();
  Manager mgr(nv);
  Rng rng(seed);
  const TruthTable t = TruthTable::random(nv, rng);
  const Bdd f = from_table(mgr, t);
  mgr.gc();
  const std::size_t before = mgr.live_nodes();
  mgr.reorder_sift();
  mgr.gc();
  EXPECT_LE(mgr.live_nodes(), before);  // sifting accepts only improvements
  EXPECT_TRUE(matches(f, t));
  EXPECT_TRUE(mgr.check_consistency());
}

INSTANTIATE_TEST_SUITE_P(Sweep, SiftProperty,
                         ::testing::Values(SiftCase{4, 100}, SiftCase{5, 101},
                                           SiftCase{6, 102}, SiftCase{7, 103},
                                           SiftCase{8, 104}, SiftCase{8, 105},
                                           SiftCase{9, 106}));

// ---- set_order input validation (always on, recoverable) --------------------

TEST(SetOrder, RejectsNonPermutationsWithTypedError) {
  // Validation completes before any swap, so a bad order is recoverable:
  // the manager is untouched and usable afterwards.
  Manager mgr(3);
  const Bdd f = mgr.var(0) & mgr.var(1);
  EXPECT_THROW(mgr.set_order({0, 1}), bds::Error);           // wrong size
  EXPECT_THROW(mgr.set_order({0, 1, 7}), bds::Error);        // out of range
  EXPECT_THROW(mgr.set_order({0, 1, 1}), bds::Error);        // duplicate
  EXPECT_TRUE(mgr.check_consistency());
  EXPECT_TRUE(f.eval({true, true, false}));
  mgr.set_order({2, 1, 0});  // still accepts a valid permutation
  EXPECT_TRUE(mgr.check_consistency());
}

TEST(SetOrder, AcceptsEveryPermutationAndPreservesSemantics) {
  Manager mgr(3);
  const Bdd f = (mgr.var(0) & mgr.var(1)) | mgr.var(2);
  std::vector<Var> order{2, 0, 1};
  mgr.set_order(order);
  for (std::uint32_t level = 0; level < order.size(); ++level) {
    EXPECT_EQ(mgr.var_at_level(level), order[level]);
  }
  for (unsigned bits = 0; bits < 8; ++bits) {
    const std::vector<bool> a{(bits & 1) != 0, (bits & 2) != 0,
                              (bits & 4) != 0};
    EXPECT_EQ(f.eval(a), (a[0] && a[1]) || a[2]);
  }
  EXPECT_TRUE(mgr.check_consistency());
}

// ---- sifting decisions and the collection between sifts ---------------------

/// Global BDDs of every output of `n`, input i as variable i, with no
/// reordering during the build.
std::vector<Bdd> output_bdds(Manager& mgr, const net::Network& n) {
  std::vector<Bdd> value(n.raw_size());
  for (std::size_t i = 0; i < n.num_inputs(); ++i) {
    value[n.inputs()[i]] = mgr.var(static_cast<Var>(i));
  }
  for (const net::NodeId id : n.topo_order()) {
    const net::Node& node = n.node(id);
    value[id] = sop::eval_cover(
        node.func, mgr.zero(), mgr.one(),
        [&](unsigned i) -> const Bdd& { return value[node.fanins[i]]; });
  }
  std::vector<Bdd> outs;
  for (const auto& [name, driver] : n.outputs()) outs.push_back(value[driver]);
  return outs;
}

struct PinnedSift {
  const char* name;
  net::Network (*make)();
  std::vector<Var> order;  ///< level2var after reorder_sift()
  std::size_t live_nodes;
  std::size_t gc_runs;  ///< the entry gc() plus one collection per sift
};

TEST(Sift, DecisionsArePinned) {
  // The order sifting picks and the size it reaches, as recorded before the
  // collection between sifts moved to the swap kill list and swaps stopped
  // relinking independent nodes: both changes leave every live_nodes
  // reading of a sift, hence every decision, as it was.
  const std::vector<PinnedSift> cases = {
      {"array_multiplier(5)", [] { return gen::array_multiplier(5); },
       {4, 3, 2, 1, 0, 5, 9, 6, 7, 8}, 388, 21},
      {"alu(4)", [] { return gen::alu(4); },
       {0, 4, 1, 5, 2, 6, 3, 7, 8, 9}, 53, 21},
      {"rotator(8)", [] { return gen::rotator(8); },
       {10, 8, 11, 9, 0, 1, 4, 2, 5, 3, 6, 7}, 57, 25},
  };
  for (const PinnedSift& c : cases) {
    const net::Network n = c.make();
    Manager mgr(static_cast<std::uint32_t>(n.num_inputs()));
    const std::vector<Bdd> outs = output_bdds(mgr, n);
    mgr.reorder_sift();
    std::vector<Var> order;
    for (std::uint32_t l = 0; l < mgr.num_vars(); ++l) {
      order.push_back(mgr.var_at_level(l));
    }
    EXPECT_EQ(order, c.order) << c.name;
    EXPECT_EQ(mgr.live_nodes(), c.live_nodes) << c.name;
    EXPECT_EQ(mgr.stats().gc_runs, c.gc_runs) << c.name;
    EXPECT_TRUE(mgr.check_consistency()) << c.name;
    EXPECT_EQ(mgr.pending_kills(), 0u) << c.name;
    // The collection after the last sift left no dead node behind: a full
    // gc() finds nothing to free.
    const std::size_t chained = mgr.arena_size() - mgr.free_slots();
    mgr.gc();
    EXPECT_EQ(mgr.arena_size() - mgr.free_slots(), chained) << c.name;
  }
}

TEST(SetOrder, RepeatedCallsDoNotGrowTheKillList) {
  const net::Network n = gen::alu(4);
  Manager mgr(static_cast<std::uint32_t>(n.num_inputs()));
  const std::vector<Bdd> outs = output_bdds(mgr, n);
  std::vector<Var> forward(mgr.num_vars());
  for (Var v = 0; v < mgr.num_vars(); ++v) forward[v] = v;
  const std::vector<Var> backward(forward.rbegin(), forward.rend());
  for (int round = 0; round < 20; ++round) {
    mgr.set_order(round % 2 == 0 ? backward : forward);
    EXPECT_EQ(mgr.pending_kills(), 0u) << "round " << round;
  }
  EXPECT_TRUE(mgr.check_consistency());
  // A direct swap lists what it kills; the next gc() spends the list.
  for (int i = 0; i < 4; ++i) mgr.swap_levels(0);
  mgr.gc();
  EXPECT_EQ(mgr.pending_kills(), 0u);
  EXPECT_TRUE(mgr.check_consistency());
}

}  // namespace
}  // namespace bds::bdd
