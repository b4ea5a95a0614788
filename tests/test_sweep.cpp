// Tests for the sweep pass: constant propagation, buffer/inverter collapse,
// duplicate-node merging; semantics must always be preserved.
#include <gtest/gtest.h>

#include "gen/gen.hpp"
#include "net/network.hpp"
#include "util/rng.hpp"

namespace bds::net {
namespace {

using sop::Cube;
using sop::Sop;

Sop and2() {
  Sop s(2);
  s.add_cube(Cube::parse("11"));
  return s;
}
Sop or2() {
  Sop s(2);
  s.add_cube(Cube::parse("1-"));
  s.add_cube(Cube::parse("-1"));
  return s;
}
Sop buf1() {
  Sop s(1);
  s.add_cube(Cube::parse("1"));
  return s;
}
Sop inv1() {
  Sop s(1);
  s.add_cube(Cube::parse("0"));
  return s;
}

std::vector<std::vector<bool>> all_inputs(std::size_t n) {
  std::vector<std::vector<bool>> rows;
  for (std::size_t r = 0; r < (std::size_t{1} << n); ++r) {
    std::vector<bool> row(n);
    for (std::size_t i = 0; i < n; ++i) row[i] = ((r >> i) & 1) != 0;
    rows.push_back(row);
  }
  return rows;
}

void expect_equivalent(const Network& a, const Network& b) {
  ASSERT_EQ(a.num_inputs(), b.num_inputs());
  ASSERT_EQ(a.num_outputs(), b.num_outputs());
  for (const auto& row : all_inputs(a.num_inputs())) {
    EXPECT_EQ(a.eval(row), b.eval(row));
  }
}

/// Equivalence on `rows` random input vectors (for networks too wide to
/// enumerate).
void expect_equivalent_sampled(const Network& a, const Network& b,
                               std::size_t rows) {
  ASSERT_EQ(a.num_inputs(), b.num_inputs());
  ASSERT_EQ(a.num_outputs(), b.num_outputs());
  Rng rng(7);
  for (std::size_t r = 0; r < rows; ++r) {
    std::vector<bool> row(a.num_inputs());
    for (std::size_t i = 0; i < row.size(); ++i) row[i] = (rng.next() & 1) != 0;
    ASSERT_EQ(a.eval(row), b.eval(row)) << "input row " << r;
  }
}

TEST(Sweep, PropagatesConstantOne) {
  Network net;
  const NodeId a = net.add_input("a");
  const NodeId one = net.add_node("one", {}, Sop::constant(0, true));
  const NodeId g = net.add_node("g", {a, one}, and2());  // a & 1 == a
  net.set_output("o", g);
  const Network before = net;
  const SweepStats stats = sweep(net);
  EXPECT_GE(stats.constants_propagated, 1u);
  expect_equivalent(before, net);
  // g collapsed to a buffer of a; sweep then keeps it only as PO driver.
  EXPECT_LE(net.num_logic_nodes(), 1u);
}

TEST(Sweep, PropagatesConstantZeroThroughAnd) {
  Network net;
  const NodeId a = net.add_input("a");
  const NodeId b = net.add_input("b");
  const NodeId zero = net.add_node("zero", {}, Sop::constant(0, false));
  const NodeId g = net.add_node("g", {a, zero}, and2());  // == 0
  const NodeId h = net.add_node("h", {g, b}, or2());      // == b
  net.set_output("o", h);
  const Network before = net;
  sweep(net);
  expect_equivalent(before, net);
}

TEST(Sweep, CollapsesBufferChains) {
  Network net;
  const NodeId a = net.add_input("a");
  const NodeId b = net.add_input("b");
  const NodeId g = net.add_node("g", {a, b}, and2());
  NodeId prev = g;
  for (int i = 0; i < 4; ++i) {
    prev = net.add_node("buf" + std::to_string(i), {prev}, buf1());
  }
  const NodeId top = net.add_node("top", {prev, b}, or2());
  net.set_output("o", top);
  const Network before = net;
  const SweepStats stats = sweep(net);
  expect_equivalent(before, net);
  EXPECT_GE(stats.trivial_collapsed, 3u);
  EXPECT_EQ(net.num_logic_nodes(), 2u);  // g and top remain
}

TEST(Sweep, CollapsesInverterPairsIntoFanout) {
  Network net;
  const NodeId a = net.add_input("a");
  const NodeId b = net.add_input("b");
  const NodeId n1 = net.add_node("n1", {a}, inv1());
  const NodeId n2 = net.add_node("n2", {n1}, inv1());  // == a
  const NodeId g = net.add_node("g", {n2, b}, and2());
  net.set_output("o", g);
  const Network before = net;
  sweep(net);
  expect_equivalent(before, net);
  EXPECT_EQ(net.num_logic_nodes(), 1u);
}

TEST(Sweep, MergesFunctionallyDuplicateNodes) {
  Network net;
  const NodeId a = net.add_input("a");
  const NodeId b = net.add_input("b");
  // Two identical AND nodes with swapped fanin order.
  const NodeId g1 = net.add_node("g1", {a, b}, and2());
  const NodeId g2 = net.add_node("g2", {b, a}, and2());
  const NodeId top = net.add_node("top", {g1, g2}, or2());
  net.set_output("o", top);
  const Network before = net;
  const SweepStats stats = sweep(net);
  expect_equivalent(before, net);
  EXPECT_GE(stats.duplicates_merged, 1u);
}

TEST(Sweep, MergedDuplicateCollapsesConsumersToBuffer) {
  Network net;
  const NodeId a = net.add_input("a");
  const NodeId b = net.add_input("b");
  const NodeId g1 = net.add_node("g1", {a, b}, and2());
  const NodeId g2 = net.add_node("g2", {a, b}, and2());
  // or(g1, g2) == g1 once duplicates merge.
  const NodeId top = net.add_node("top", {g1, g2}, or2());
  net.set_output("o", top);
  const Network before = net;
  sweep(net);
  expect_equivalent(before, net);
  // After merging, top = or(g1, g1) = buffer(g1) which also collapses.
  EXPECT_LE(net.num_logic_nodes(), 2u);
}

TEST(Sweep, InverterOnSecondFaninSubstitutesThatFanin) {
  // g = .names a b with cube `-0`: a single literal, but on fanin 1, so g
  // is !b -- collapsing it into top must substitute b, not a.
  Network net;
  const NodeId a = net.add_input("a");
  const NodeId b = net.add_input("b");
  const NodeId c = net.add_input("c");
  Sop not_b(2);
  not_b.add_cube(Cube::parse("-0"));
  const NodeId g = net.add_node("g", {a, b}, not_b);
  const NodeId top = net.add_node("top", {g, c}, and2());
  net.set_output("o", top);
  const Network before = net;
  const SweepStats stats = sweep(net);
  EXPECT_GE(stats.trivial_collapsed, 1u);
  expect_equivalent(before, net);
}

TEST(Sweep, BufferOnSecondFaninSubstitutesThatFanin) {
  Network net;
  const NodeId a = net.add_input("a");
  const NodeId b = net.add_input("b");
  const NodeId c = net.add_input("c");
  Sop buf_b(2);
  buf_b.add_cube(Cube::parse("-1"));
  const NodeId g = net.add_node("g", {a, b}, buf_b);
  const NodeId top = net.add_node("top", {g, c}, or2());
  net.set_output("o", top);
  const Network before = net;
  sweep(net);
  expect_equivalent(before, net);
}

TEST(Sweep, PreservesGeneratedCircuitRoundTrippedThroughBlif) {
  // Written and parsed back, this generator circuit carries a two-fanin
  // node whose only cube is `-0` (g237 = !g58) feeding output f9.
  const Network gen = gen::random_multilevel(26, 13, 19, 15, 411503822);
  Network net = parse_blif_string(to_blif_string(gen));
  const Network before = net;
  sweep(net);
  EXPECT_TRUE(net.check());
  expect_equivalent_sampled(before, net, 4096);
  expect_equivalent_sampled(gen, net, 4096);
}

TEST(Sweep, KeepsTrivialPrimaryOutputDrivers) {
  Network net;
  const NodeId a = net.add_input("a");
  const NodeId inv = net.add_node("o_inv", {a}, inv1());
  net.set_output("o_inv", inv);
  const Network before = net;
  sweep(net);
  expect_equivalent(before, net);
  EXPECT_EQ(net.num_logic_nodes(), 1u);  // PO driver must survive
}

TEST(Sweep, RemovesDeadLogic) {
  Network net;
  const NodeId a = net.add_input("a");
  const NodeId b = net.add_input("b");
  const NodeId g = net.add_node("g", {a, b}, and2());
  (void)net.add_node("dead1", {a, b}, or2());
  net.set_output("o", g);
  const SweepStats stats = sweep(net);
  EXPECT_GE(stats.dead_removed, 1u);
  EXPECT_TRUE(net.check());
}

TEST(Sweep, IdempotentOnCleanNetworks) {
  Network net;
  const NodeId a = net.add_input("a");
  const NodeId b = net.add_input("b");
  const NodeId c = net.add_input("c");
  const NodeId g1 = net.add_node("g1", {a, b}, and2());
  const NodeId g2 = net.add_node("g2", {g1, c}, or2());
  net.set_output("o", g2);
  sweep(net);
  const unsigned lits = net.total_literals();
  const SweepStats stats2 = sweep(net);
  EXPECT_EQ(net.total_literals(), lits);
  EXPECT_EQ(stats2.constants_propagated, 0u);
  EXPECT_EQ(stats2.trivial_collapsed, 0u);
  EXPECT_EQ(stats2.duplicates_merged, 0u);
}

TEST(Sweep, ConstantFeedingOutputSurvives) {
  Network net;
  (void)net.add_input("a");
  const NodeId one = net.add_node("konst", {}, Sop::constant(0, true));
  net.set_output("o", one);
  sweep(net);
  EXPECT_EQ(net.eval({false}), (std::vector<bool>{true}));
  EXPECT_EQ(net.eval({true}), (std::vector<bool>{true}));
}

}  // namespace
}  // namespace bds::net
