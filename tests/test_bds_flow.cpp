// End-to-end tests for the full BDS flow (the registered `bds` script):
// optimize a network and prove the result equivalent with global BDDs (the
// paper verifies every run the same way), across circuit classes and
// pass-flag subsets.
#include <gtest/gtest.h>

#include "opt/bds_passes.hpp"
#include "opt/manager.hpp"
#include "util/rng.hpp"
#include "verify/cec.hpp"

namespace bds::core {
namespace {

using net::Network;
using net::NodeId;
using net::parse_blif_string;
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

/// Runs `script` over a copy of `input` and proves the result equivalent.
/// The flow's blackboard state is left in `ctx` for the caller to inspect.
opt::PipelineStats expect_optimized_equivalent(
    const Network& input, const std::string& script = "bds",
    opt::PassContext* ctx = nullptr) {
  Network out = input;
  opt::PassContext local;
  const opt::PipelineStats stats = opt::PassManager::from_script(script).run(
      out, {}, ctx != nullptr ? *ctx : local);
  EXPECT_TRUE(out.check());
  const auto r = verify::check_equivalence(input, out);
  EXPECT_EQ(r.status, verify::CecStatus::kEquivalent)
      << "failing output: " << r.failing_output;
  return stats;
}

Network ripple_adder(unsigned bits) {
  Network net("rca" + std::to_string(bits));
  std::vector<NodeId> a(bits), b(bits);
  for (unsigned i = 0; i < bits; ++i) a[i] = net.add_input("a" + std::to_string(i));
  for (unsigned i = 0; i < bits; ++i) b[i] = net.add_input("b" + std::to_string(i));
  NodeId carry = net::kNoNode;
  for (unsigned i = 0; i < bits; ++i) {
    const std::string si = std::to_string(i);
    const NodeId axb = net.add_node("axb" + si, {a[i], b[i]}, xor2());
    NodeId sum;
    if (carry == net::kNoNode) {
      sum = net.add_node("s" + si, {axb}, [] {
        Sop s(1);
        s.add_cube(Cube::parse("1"));
        return s;
      }());
      carry = net.add_node("c" + si, {a[i], b[i]}, and2());
    } else {
      sum = net.add_node("s" + si, {axb, carry}, xor2());
      const NodeId t1 = net.add_node("t1_" + si, {a[i], b[i]}, and2());
      const NodeId t2 = net.add_node("t2_" + si, {axb, carry}, and2());
      carry = net.add_node("c" + si, {t1, t2}, or2());
    }
    net.set_output("sum" + si, sum);
  }
  net.set_output("cout", carry);
  return net;
}

TEST(BdsFlow, RippleAdderOptimizesAndVerifies) {
  opt::PassContext ctx;
  const opt::PipelineStats stats =
      expect_optimized_equivalent(ripple_adder(6), "bds", &ctx);
  EXPECT_GT(stats.counter("supernodes"), 0.0);
  EXPECT_GT(ctx.state<opt::BdsFlowState>().decompose.total(), 0u);
}

TEST(BdsFlow, XorTreeKeepsXorStructure) {
  Network net("partree");
  std::vector<NodeId> level;
  for (int i = 0; i < 16; ++i) level.push_back(net.add_input("x" + std::to_string(i)));
  int id = 0;
  while (level.size() > 1) {
    std::vector<NodeId> next;
    for (std::size_t i = 0; i + 1 < level.size(); i += 2) {
      next.push_back(net.add_node("t" + std::to_string(id++),
                                  {level[i], level[i + 1]}, xor2()));
    }
    level = next;
  }
  net.set_output("parity", level[0]);

  Network out = net;
  opt::PassContext ctx;
  opt::PassManager::from_script("bds").run(out, {}, ctx);
  EXPECT_TRUE(verify::random_simulation_equal(net, out));
  EXPECT_TRUE(static_cast<bool>(verify::check_equivalence(net, out)));
  // BDS must discover the XOR structure through x-dominators.
  const DecomposeStats& dec = ctx.state<opt::BdsFlowState>().decompose;
  EXPECT_GE(dec.x_dominator, 10u);
  EXPECT_EQ(dec.shannon, 0u);
  // Parity of 16 in XOR2 gates: 15 gates, whatever the tree shape.
  EXPECT_LE(out.num_logic_nodes(), 16u);
}

TEST(BdsFlow, MajorityControlLogic) {
  const Network net = parse_blif_string(R"(
.model ctl
.inputs a b c d e
.outputs maj sel
.names a b c maj
11- 1
1-1 1
-11 1
.names a d e t
111 1
.names t b sel
1- 1
-1 1
.end
)");
  expect_optimized_equivalent(net);
}

TEST(BdsFlow, MultiOutputSharingAcrossTrees) {
  // Two outputs with a large common subfunction; sharing extraction should
  // emit it once.
  Network net("share2");
  std::vector<NodeId> in;
  for (int i = 0; i < 6; ++i) in.push_back(net.add_input("x" + std::to_string(i)));
  const NodeId c1 = net.add_node("c1", {in[0], in[1]}, xor2());
  const NodeId c2 = net.add_node("c2", {c1, in[2]}, xor2());
  const NodeId o1 = net.add_node("o1n", {c2, in[3]}, and2());
  const NodeId o2 = net.add_node("o2n", {c2, in[4]}, or2());
  net.set_output("o1", o1);
  net.set_output("o2", o2);
  expect_optimized_equivalent(net);
}

TEST(BdsFlow, OptionSubsetsAllProduceEquivalentNetworks) {
  const Network net = ripple_adder(4);
  for (int mask = 0; mask < 16; ++mask) {
    std::string decompose = "bds_decompose";
    if ((mask & 1) == 0) decompose += " -nodom";
    if ((mask & 2) == 0) decompose += " -nomux";
    if ((mask & 4) == 0) decompose += " -nogen";
    if ((mask & 8) == 0) decompose += " -noxdom";
    SCOPED_TRACE("option mask " + std::to_string(mask));
    expect_optimized_equivalent(
        net, "sweep; bds_partition; " + decompose +
                 "; bds_sharing; bds_balance; bds_emit; sweep");
  }
}

TEST(BdsFlow, NoSharingNoReorderStillCorrect) {
  expect_optimized_equivalent(
      ripple_adder(5),
      "sweep; bds_partition; bds_decompose -noreorder; bds_balance; "
      "bds_emit; sweep");
}

TEST(BdsFlow, ConstantsAndPassthroughsSurvive) {
  const Network net = parse_blif_string(R"(
.model edge
.inputs a b
.outputs k o p
.names k
1
.names a b o
10 1
01 1
.names a p
1 1
.end
)");
  expect_optimized_equivalent(net);
}

TEST(BdsFlow, InvertedOutputGetsMaterialized) {
  const Network net = parse_blif_string(R"(
.model invout
.inputs a b
.outputs no
.names a b no
00 1
.end
)");
  expect_optimized_equivalent(net);
}

TEST(BdsFlow, RandomPlaNetworks) {
  Rng rng(515);
  for (int iter = 0; iter < 5; ++iter) {
    Network net("pla" + std::to_string(iter));
    std::vector<NodeId> in;
    for (int i = 0; i < 7; ++i) {
      in.push_back(net.add_input("x" + std::to_string(i)));
    }
    for (int o = 0; o < 4; ++o) {
      Sop s(7);
      for (int c = 0; c < 6; ++c) {
        Cube cube(7);
        for (unsigned v = 0; v < 7; ++v) {
          switch (rng.below(3)) {
            case 0:
              cube.set(v, sop::Literal::kPos);
              break;
            case 1:
              cube.set(v, sop::Literal::kNeg);
              break;
            default:
              break;
          }
        }
        s.add_cube(cube);
      }
      const NodeId n =
          net.add_node("f" + std::to_string(o), in, std::move(s));
      net.set_output("f" + std::to_string(o) + "_out", n);
    }
    expect_optimized_equivalent(net);
  }
}

TEST(BdsFlow, StatsAreInternallyConsistent) {
  opt::PassContext ctx;
  const opt::PipelineStats stats =
      expect_optimized_equivalent(ripple_adder(6), "bds", &ctx);
  EXPECT_GT(stats.seconds_total, 0.0);
  EXPECT_GE(stats.seconds_total, stats.seconds_in("bds_partition") +
                                     stats.seconds_in("bds_decompose"));
  const opt::BdsFlowState& st = ctx.state<opt::BdsFlowState>();
  EXPECT_GT(st.peak_bdd_nodes(), 0u);
  EXPECT_GT(st.peak_bdd_bytes(), 0u);
}

}  // namespace
}  // namespace bds::core
