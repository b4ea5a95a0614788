// Tests for factoring-tree balancing (the paper's future-work item 3):
// associative chains must flatten into depth-balanced trees without
// changing semantics.
#include "core/balance.hpp"

#include <gtest/gtest.h>

#include "gen/gen.hpp"
#include "opt/manager.hpp"
#include "util/rng.hpp"
#include "verify/cec.hpp"

namespace bds::core {
namespace {

void expect_same_function(const FactoringForest& f, FactId a, FactId b,
                          unsigned nv) {
  for (std::size_t row = 0; row < (std::size_t{1} << nv); ++row) {
    std::vector<bool> in(nv);
    for (unsigned v = 0; v < nv; ++v) in[v] = ((row >> v) & 1) != 0;
    ASSERT_EQ(f.eval(a, in), f.eval(b, in)) << "row " << row;
  }
}

FactId left_chain(FactoringForest& f, unsigned n,
                  FactId (FactoringForest::*op)(FactId, FactId)) {
  FactId acc = f.mk_var(0);
  for (bdd::Var v = 1; v < n; ++v) acc = (f.*op)(acc, f.mk_var(v));
  return acc;
}

TEST(Balance, AndChainBecomesLogDepth) {
  FactoringForest f;
  const FactId chain = left_chain(f, 16, &FactoringForest::mk_and);
  EXPECT_EQ(tree_depth(f, chain), 15u);
  std::vector<FactId> roots{chain};
  const BalanceStats stats = balance_forest(f, roots);
  EXPECT_GE(stats.chains_rebalanced, 1u);
  EXPECT_EQ(tree_depth(f, roots[0]), 4u);  // ceil(log2 16)
  expect_same_function(f, chain, roots[0], 16);
}

TEST(Balance, XorChainWithMixedXnorsKeepsParity) {
  FactoringForest f;
  // x0 xnor x1 xor x2 xnor x3 ... alternating: two XNORs cancel.
  FactId acc = f.mk_var(0);
  for (bdd::Var v = 1; v < 9; ++v) {
    acc = (v % 2 == 0) ? f.mk_xor(acc, f.mk_var(v))
                       : f.mk_xnor(acc, f.mk_var(v));
  }
  std::vector<FactId> roots{acc};
  balance_forest(f, roots);
  EXPECT_LE(tree_depth(f, roots[0]), 4u);
  expect_same_function(f, acc, roots[0], 9);
}

TEST(Balance, RespectsUnequalOperandDepths) {
  // One operand is itself deep: Huffman combining must not put it at the
  // bottom of the rebuilt tree.
  FactoringForest f;
  const FactId deep = left_chain(f, 6, &FactoringForest::mk_xor);  // depth 5
  std::vector<FactId> ops{deep};
  for (bdd::Var v = 6; v < 10; ++v) ops.push_back(f.mk_var(v));
  FactId acc = ops[0];
  for (std::size_t i = 1; i < ops.size(); ++i) acc = f.mk_or(acc, ops[i]);
  std::vector<FactId> roots{acc};
  balance_forest(f, roots);
  // Optimal: xor-part rebalanced to depth 3, OR layer adds ~2.
  EXPECT_LE(tree_depth(f, roots[0]), 6u);
  expect_same_function(f, acc, roots[0], 10);
}

TEST(Balance, MuxAndNotSubtreesAreRecursed) {
  FactoringForest f;
  const FactId inner = left_chain(f, 8, &FactoringForest::mk_or);
  const FactId root =
      f.mk_mux(f.mk_var(8), f.mk_not(inner), f.mk_var(9));
  std::vector<FactId> roots{root};
  balance_forest(f, roots);
  EXPECT_LE(tree_depth(f, roots[0]), 5u);
  expect_same_function(f, root, roots[0], 10);
}

TEST(Balance, RandomForestsPreserveSemantics) {
  Rng rng(909);
  for (int iter = 0; iter < 10; ++iter) {
    FactoringForest f;
    constexpr unsigned nv = 6;
    std::vector<FactId> pool;
    for (bdd::Var v = 0; v < nv; ++v) pool.push_back(f.mk_var(v));
    for (int i = 0; i < 30; ++i) {
      const FactId a = pool[rng.below(pool.size())];
      const FactId b = pool[rng.below(pool.size())];
      const FactId c = pool[rng.below(pool.size())];
      switch (rng.below(6)) {
        case 0: pool.push_back(f.mk_and(a, b)); break;
        case 1: pool.push_back(f.mk_or(a, b)); break;
        case 2: pool.push_back(f.mk_xor(a, b)); break;
        case 3: pool.push_back(f.mk_xnor(a, b)); break;
        case 4: pool.push_back(f.mk_not(a)); break;
        default: pool.push_back(f.mk_mux(a, b, c)); break;
      }
    }
    const FactId before = pool.back();
    std::vector<FactId> roots{before};
    const BalanceStats stats = balance_forest(f, roots);
    EXPECT_LE(stats.max_depth_after, stats.max_depth_before);
    expect_same_function(f, before, roots[0], nv);
  }
}

TEST(Balance, FlowWithBalancingShrinksParityDepth) {
  const net::Network input = gen::parity_tree(32);
  net::Network balanced = input;
  opt::PassManager::from_script("bds").run(balanced);
  net::Network plain = input;
  opt::PassManager::from_script(
      "sweep; bds_partition; bds_decompose; bds_sharing; bds_emit; sweep")
      .run(plain);
  EXPECT_TRUE(static_cast<bool>(verify::check_equivalence(input, balanced)));
  EXPECT_TRUE(static_cast<bool>(verify::check_equivalence(input, plain)));
  EXPECT_LE(balanced.depth(), plain.depth());
  EXPECT_LE(balanced.depth(), 7u);  // log2(32) + slack
}

TEST(Balance, FlowStaysEquivalentOnArithmetic) {
  const net::Network input = gen::ripple_adder(8);
  net::Network out = input;
  opt::PassManager::from_script("bds").run(out);
  EXPECT_TRUE(static_cast<bool>(verify::check_equivalence(input, out)));
}

}  // namespace
}  // namespace bds::core
