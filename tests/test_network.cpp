// Tests for the Boolean network: construction, topological order, fanout
// bookkeeping, simulation, statistics and structural invariants.
#include "net/network.hpp"

#include <gtest/gtest.h>

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
Sop xor2() {
  Sop s(2);
  s.add_cube(Cube::parse("10"));
  s.add_cube(Cube::parse("01"));
  return s;
}
Sop inv1() {
  Sop s(1);
  s.add_cube(Cube::parse("0"));
  return s;
}

Network half_adder() {
  Network net("half_adder");
  const NodeId a = net.add_input("a");
  const NodeId b = net.add_input("b");
  const NodeId sum = net.add_node("sum", {a, b}, xor2());
  const NodeId carry = net.add_node("carry", {a, b}, and2());
  net.set_output("sum", sum);
  net.set_output("carry", carry);
  return net;
}

TEST(Network, HalfAdderSimulates) {
  const Network net = half_adder();
  EXPECT_EQ(net.eval({false, false}), (std::vector<bool>{false, false}));
  EXPECT_EQ(net.eval({true, false}), (std::vector<bool>{true, false}));
  EXPECT_EQ(net.eval({false, true}), (std::vector<bool>{true, false}));
  EXPECT_EQ(net.eval({true, true}), (std::vector<bool>{false, true}));
}

TEST(Network, TopoOrderRespectsDependencies) {
  Network net;
  const NodeId a = net.add_input("a");
  const NodeId b = net.add_input("b");
  const NodeId g1 = net.add_node("g1", {a, b}, and2());
  const NodeId g2 = net.add_node("g2", {g1, b}, or2());
  const NodeId g3 = net.add_node("g3", {g2, g1}, xor2());
  net.set_output("o", g3);
  const auto order = net.topo_order();
  ASSERT_EQ(order.size(), 3u);
  const auto pos = [&](NodeId id) {
    return std::find(order.begin(), order.end(), id) - order.begin();
  };
  EXPECT_LT(pos(g1), pos(g2));
  EXPECT_LT(pos(g2), pos(g3));
}

TEST(Network, TopoOrderSkipsDeadLogic) {
  Network net;
  const NodeId a = net.add_input("a");
  const NodeId b = net.add_input("b");
  const NodeId used = net.add_node("used", {a, b}, and2());
  (void)net.add_node("unused", {a, b}, or2());
  net.set_output("o", used);
  EXPECT_EQ(net.topo_order().size(), 1u);
  EXPECT_EQ(net.num_logic_nodes(), 1u);
}

TEST(Network, CompactRemovesUnreachableNodes) {
  Network net;
  const NodeId a = net.add_input("a");
  const NodeId b = net.add_input("b");
  const NodeId used = net.add_node("used", {a, b}, and2());
  (void)net.add_node("unused", {a, b}, or2());
  net.set_output("o", used);
  net.compact();
  EXPECT_EQ(net.raw_size(), 3u);  // 2 PIs + 1 logic node
  EXPECT_TRUE(net.check());
  EXPECT_EQ(net.eval({true, true}), (std::vector<bool>{true}));
}

TEST(Network, CycleIsDetected) {
  Network net;
  const NodeId a = net.add_input("a");
  const NodeId g1 = net.add_node("g1", {a, a}, and2());
  const NodeId g2 = net.add_node("g2", {g1, a}, or2());
  net.set_output("o", g2);
  // Manually create a cycle g1 -> g2 -> g1.
  net.rewrite_node(g1, {g2, a}, and2());
  EXPECT_THROW(net.topo_order(), std::runtime_error);
  EXPECT_FALSE(net.check());
}

TEST(Network, DuplicateNamesRejected) {
  Network net;
  net.add_input("a");
  EXPECT_THROW(net.add_input("a"), std::runtime_error);
  EXPECT_THROW(net.add_node("a", {}, Sop(0)), std::runtime_error);
}

TEST(Network, SopWidthMustMatchFanins) {
  Network net;
  const NodeId a = net.add_input("a");
  EXPECT_THROW(net.add_node("g", {a}, and2()), std::runtime_error);
}

TEST(Network, FanoutListsAreConsistent) {
  Network net;
  const NodeId a = net.add_input("a");
  const NodeId b = net.add_input("b");
  const NodeId g1 = net.add_node("g1", {a, b}, and2());
  const NodeId g2 = net.add_node("g2", {g1, a}, or2());
  net.set_output("o", g2);
  const auto fo = net.fanout_lists(net.topo_order());
  EXPECT_EQ(fo[a], (std::vector<NodeId>{g1, g2}));
  EXPECT_EQ(fo[g1], (std::vector<NodeId>{g2}));
  EXPECT_TRUE(fo[g2].empty());
}

TEST(Network, DepthAndLiteralStats) {
  Network net;
  const NodeId a = net.add_input("a");
  const NodeId b = net.add_input("b");
  const NodeId c = net.add_input("c");
  const NodeId g1 = net.add_node("g1", {a, b}, and2());
  const NodeId g2 = net.add_node("g2", {g1, c}, or2());
  net.set_output("o", g2);
  EXPECT_EQ(net.depth(), 2u);
  EXPECT_EQ(net.total_literals(), 4u);
  EXPECT_EQ(net.num_inputs(), 3u);
  EXPECT_EQ(net.num_outputs(), 1u);
}

TEST(Network, InverterChainEvaluates) {
  Network net;
  NodeId prev = net.add_input("a");
  for (int i = 0; i < 5; ++i) {
    prev = net.add_node("inv" + std::to_string(i), {prev}, inv1());
  }
  net.set_output("o", prev);
  EXPECT_EQ(net.eval({true}), (std::vector<bool>{false}));
  EXPECT_EQ(net.eval({false}), (std::vector<bool>{true}));
  EXPECT_EQ(net.depth(), 5u);
}

TEST(Network, FreshNamesNeverCollide) {
  Network net;
  net.add_input("t0");
  const std::string n1 = net.fresh_name("t");
  EXPECT_NE(n1, "t0");
  const NodeId a = net.find("t0");
  (void)net.add_node(n1, {a}, inv1());
  const std::string n2 = net.fresh_name("t");
  EXPECT_NE(n2, n1);
  EXPECT_NE(n2, "t0");
}

TEST(Network, RenameKeepsIndexConsistent) {
  Network net;
  const NodeId a = net.add_input("a");
  net.rename(a, "alpha");
  EXPECT_EQ(net.find("alpha"), a);
  EXPECT_EQ(net.find("a"), kNoNode);
}

TEST(Network, OutputDrivenByInputDirectly) {
  Network net;
  const NodeId a = net.add_input("a");
  net.set_output("o", a);
  EXPECT_EQ(net.eval({true}), (std::vector<bool>{true}));
  EXPECT_EQ(net.depth(), 0u);
}

}  // namespace
}  // namespace bds::net
