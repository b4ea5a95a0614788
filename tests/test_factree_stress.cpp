// Deep factoring-tree stress tests: the forest traversals (counting,
// copy_into, to_bdd), sharing extraction, and chain balancing are
// explicit-stack iterations, so a ~100k-node single-path tree -- which
// overflowed the C stack under the old std::function recursion -- must
// work. Mirrors tests/test_bdd_stress.cpp one layer up.
//
// Chains are built with variable indices *descending* toward the leaf so
// that every BDD step in to_bdd / extract_sharing combines a variable that
// sits above its operand's support: each ITE resolves in O(1) through the
// terminal rules instead of re-walking (and recursing through) the whole
// chain. Trees balanced down to ~17 levels are checked with the (shallow,
// recursive) forest eval instead of a BDD build, because merging two wide
// disjoint-support BDDs recurses to half the variable count inside ITE.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "core/balance.hpp"
#include "core/factree.hpp"
#include "core/sharing.hpp"

namespace bds::core {
namespace {

constexpr std::uint32_t kChainVars = 100'000;

/// (x0 & (x1 & (x2 & ...))): one AND node per variable before the last,
/// a single path of length ~n with the leaf-most variable the largest.
FactId build_and_chain(FactoringForest& forest, std::uint32_t nvars) {
  FactId chain = forest.mk_var(nvars - 1);
  for (std::uint32_t v = nvars - 1; v-- > 0;) {
    chain = forest.mk_and(forest.mk_var(v), chain);
  }
  return chain;
}

/// Alternating XNOR/NOT chain: exercises the complement-parity flattening.
FactId build_xnor_chain(FactoringForest& forest, std::uint32_t nvars) {
  FactId chain = forest.mk_var(nvars - 1);
  for (std::uint32_t v = nvars - 1; v-- > 0;) {
    chain = forest.mk_xnor(forest.mk_var(v), chain);
    if (v % 3 == 0) chain = forest.mk_not(chain);
  }
  return chain;
}

/// Reference semantics of build_xnor_chain, evaluated arithmetically.
bool eval_xnor_chain(const std::vector<bool>& a) {
  bool acc = a[a.size() - 1];
  for (std::uint32_t v = static_cast<std::uint32_t>(a.size() - 1); v-- > 0;) {
    acc = !(a[v] ^ acc);
    if (v % 3 == 0) acc = !acc;
  }
  return acc;
}

TEST(FactreeStress, DeepChainCountsAndDepth) {
  FactoringForest forest;
  const FactId root = build_and_chain(forest, kChainVars);
  EXPECT_EQ(forest.gate_count({root}), kChainVars - 1);
  EXPECT_EQ(forest.literal_count({root}), kChainVars);
  EXPECT_EQ(tree_depth(forest, root), kChainVars - 1);
}

TEST(FactreeStress, DeepChainCopyIntoFreshForest) {
  FactoringForest forest;
  const FactId root = build_and_chain(forest, kChainVars);

  FactoringForest dst;
  std::vector<FactId> leaf_map(kChainVars);
  for (std::uint32_t v = 0; v < kChainVars; ++v) {
    leaf_map[v] = dst.mk_var(v);
  }
  const FactId copied = forest.copy_into(dst, root, leaf_map);
  EXPECT_EQ(dst.gate_count({copied}), kChainVars - 1);
  EXPECT_EQ(dst.literal_count({copied}), kChainVars);
}

TEST(FactreeStress, DeepChainToBdd) {
  FactoringForest forest;
  const FactId root = build_and_chain(forest, kChainVars);
  bdd::Manager mgr(kChainVars);
  const bdd::Bdd f = forest.to_bdd(root, mgr);
  // The AND of 100k variables: one BDD node per variable plus the terminal,
  // and canonically the chain built node by node in the same manager.
  EXPECT_EQ(f.size(), kChainVars + 1);
  bdd::Edge chain = bdd::Edge::one();
  for (std::uint32_t v = kChainVars; v-- > 0;) {
    chain = mgr.mk(v, chain, bdd::Edge::zero());
  }
  EXPECT_EQ(f.edge(), chain);
}

TEST(FactreeStress, DeepChainBalanceCollapsesDepth) {
  FactoringForest forest;
  std::vector<FactId> roots{build_and_chain(forest, kChainVars)};
  const BalanceStats stats = balance_forest(forest, roots);
  EXPECT_EQ(stats.max_depth_before, kChainVars - 1);
  // A balanced 100k-operand tree is ceil(log2(100k)) = 17 levels.
  EXPECT_EQ(stats.max_depth_after, 17u);
  EXPECT_GE(stats.chains_rebalanced, 1u);
  // The rebalanced tree (now shallow enough for the recursive eval) still
  // computes the conjunction of all inputs.
  std::vector<bool> assignment(kChainVars, true);
  EXPECT_TRUE(forest.eval(roots[0], assignment));
  assignment[kChainVars / 2] = false;
  EXPECT_FALSE(forest.eval(roots[0], assignment));
}

TEST(FactreeStress, DeepXnorChainBalancePreservesParity) {
  constexpr std::uint32_t kVars = 50'000;
  FactoringForest forest;
  std::vector<FactId> roots{build_xnor_chain(forest, kVars)};
  const std::size_t depth_before = tree_depth(forest, roots[0]);
  EXPECT_GE(depth_before, kVars - 1);

  balance_forest(forest, roots);
  EXPECT_LE(tree_depth(forest, roots[0]), 20u);
  // Spot-check the balanced tree against the chain's reference semantics.
  std::vector<bool> assignment(kVars, false);
  EXPECT_EQ(forest.eval(roots[0], assignment), eval_xnor_chain(assignment));
  assignment[0] = true;
  EXPECT_EQ(forest.eval(roots[0], assignment), eval_xnor_chain(assignment));
  for (std::uint32_t v = 0; v < kVars; v += 7919) assignment[v] = true;
  EXPECT_EQ(forest.eval(roots[0], assignment), eval_xnor_chain(assignment));
  assignment.assign(kVars, true);
  EXPECT_EQ(forest.eval(roots[0], assignment), eval_xnor_chain(assignment));
}

TEST(FactreeStress, DeepChainSharingExtraction) {
  constexpr std::uint32_t kVars = 50'000;
  FactoringForest forest;
  // Two roots over the same deep chain; the second adds one extra AND so
  // sharing extraction walks the whole path for both.
  const FactId chain = build_and_chain(forest, kVars);
  const FactId extra = forest.mk_and(chain, forest.mk_var(0));
  std::vector<FactId> roots{chain, extra};

  bdd::Manager smgr(kVars);
  const SharingStats stats = extract_sharing(forest, roots, smgr);
  // x0 is already in the chain, so the second root's extra AND is the same
  // function as the chain itself and must merge with it.
  EXPECT_EQ(roots[0], roots[1]);
  EXPECT_GE(stats.merged, 1u);
}

}  // namespace
}  // namespace bds::core
