// Deep-BDD stress tests: the structural queries and cone records are
// explicit-stack iterations with generation-stamped visited marks, so a
// ~100k-node chain -- which overflowed the C stack under the old
// std::function recursion and allocated a fresh hash set per call -- must
// work, repeatedly, on one manager.
#include <gtest/gtest.h>

#include <sstream>
#include <vector>

#include "bdd/bdd.hpp"

namespace bds::bdd {
namespace {

constexpr std::uint32_t kChainVars = 100'000;

/// x0 & x1 & ... & x_{n-1}, built bottom-up with raw mk() calls (constant
/// recursion depth), producing one node per variable.
Edge build_and_chain(Manager& mgr, std::uint32_t nvars) {
  Edge e = Edge::one();
  for (std::uint32_t v = nvars; v-- > 0;) {
    e = mgr.mk(v, e, Edge::zero());
  }
  return e;
}

/// x0 ^ x1 ^ ... ^ x_{n-1}: one node per variable thanks to complement
/// edges (hi child is the complemented tail).
Edge build_parity_chain(Manager& mgr, std::uint32_t nvars) {
  Edge e = Edge::zero();
  for (std::uint32_t v = nvars; v-- > 0;) {
    e = mgr.mk(v, !e, e);
  }
  return e;
}

TEST(BddStress, DeepChainStructuralQueries) {
  Manager mgr(kChainVars);
  const Edge e = build_and_chain(mgr, kChainVars);

  // One node per variable plus the terminal.
  EXPECT_EQ(mgr.size(e), kChainVars + 1);
  const std::vector<Var> sup = mgr.support(e);
  ASSERT_EQ(sup.size(), kChainVars);
  EXPECT_EQ(sup.front(), 0u);
  EXPECT_EQ(sup.back(), kChainVars - 1);

  // The chain is the AND of all 100k variables: the conjunction built
  // through the apply operator is the same canonical edge.
  Edge conj = Edge::one();
  for (std::uint32_t v = kChainVars; v-- > 0;) {
    conj = mgr.and_(mgr.mk(v, Edge::one(), Edge::zero()), conj);
  }
  EXPECT_EQ(conj, e);

  // Queries reuse shared scratch across calls: a second round on the same
  // manager must see identical results (fresh visit epoch each call).
  EXPECT_EQ(mgr.size(e), kChainVars + 1);
  EXPECT_EQ(mgr.support(e).size(), kChainVars);
}

TEST(BddStress, DeepParityChainWithComplementEdges) {
  constexpr std::uint32_t kVars = 1023;
  Manager mgr(kVars);
  const Edge e = build_parity_chain(mgr, kVars);
  EXPECT_EQ(mgr.size(e), kVars + 1);
}

TEST(BddStress, DeepChainReplaysBetweenManagers) {
  Manager src(kChainVars);
  const Edge e = build_and_chain(src, kChainVars);

  Manager dst(kChainVars);
  std::vector<Var> identity(kChainVars);
  for (std::uint32_t v = 0; v < kChainVars; ++v) identity[v] = v;
  ConeImage image;
  src.record(e, identity, image);
  EXPECT_EQ(image.nodes.size(), kChainVars);
  const Edge t = dst.replay(image);
  EXPECT_EQ(dst.size(t), kChainVars + 1);
  // Canonical form: the replayed function is the chain built in dst.
  EXPECT_EQ(t, build_and_chain(dst, kChainVars));
}

TEST(BddStress, DeepChainDotExportCompletes) {
  constexpr std::uint32_t kVars = 50'000;
  Manager mgr(kVars);
  const Edge e = build_and_chain(mgr, kVars);
  std::ostringstream os;
  mgr.write_dot(os, {e}, {"chain"}, {});
  // Every chain node appears exactly once (stamped DFS, no recursion).
  EXPECT_NE(os.str().find("chain"), std::string::npos);
  EXPECT_GE(os.str().size(), kVars * 2);
}

TEST(BddStress, MultiRootSizeSharesOneEpoch) {
  Manager mgr(kChainVars);
  const Edge e = build_and_chain(mgr, kChainVars);
  // The chain, its complement, and its var-1 suffix share every node;
  // multi-root size must count each shared node (and the terminal) once.
  const Edge suffix = mgr.node_hi(e.node());
  EXPECT_EQ(mgr.size(std::vector<Edge>{e, !e, suffix}), kChainVars + 1);
}

}  // namespace
}  // namespace bds::bdd
