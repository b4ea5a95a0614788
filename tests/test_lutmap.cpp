// Tests for the k-LUT FPGA mapper (future-work item 4): every mapped
// netlist must be equivalent, respect the fanin bound, and reward the XOR
// structure BDS extracts.
#include "map/lutmap.hpp"

#include <gtest/gtest.h>

#include "gen/gen.hpp"
#include "opt/manager.hpp"
#include "verify/cec.hpp"

namespace bds::map {
namespace {

using net::Network;
using net::parse_blif_string;

void expect_lut_equivalent(const Network& input, unsigned k,
                           LutMapResult* out = nullptr) {
  const LutMapResult r = map_luts(input, k);
  EXPECT_TRUE(r.netlist.check());
  for (const net::NodeId id : r.netlist.topo_order()) {
    EXPECT_LE(r.netlist.node(id).fanins.size(), k) << "LUT fanin bound";
  }
  const auto cec = verify::check_equivalence(input, r.netlist);
  EXPECT_EQ(cec.status, verify::CecStatus::kEquivalent)
      << "failing output: " << cec.failing_output;
  if (out != nullptr) *out = std::move(const_cast<LutMapResult&>(r));
}

TEST(LutMap, SingleGateFitsOneLut) {
  const Network net = parse_blif_string(
      ".model m\n.inputs a b c\n.outputs o\n.names a b c o\n111 1\n000 1\n.end\n");
  LutMapResult r;
  expect_lut_equivalent(net, 4, &r);
  EXPECT_EQ(r.num_luts, 1u);
}

TEST(LutMap, FullAdderIn4Luts) {
  const Network net = parse_blif_string(R"(
.model fa
.inputs a b cin
.outputs sum cout
.names a b t
10 1
01 1
.names t cin sum
10 1
01 1
.names a b g
11 1
.names t cin p
11 1
.names g p cout
1- 1
-1 1
.end
)");
  LutMapResult r;
  expect_lut_equivalent(net, 4, &r);
  // sum and cout are both 3-input functions: 2 LUTs suffice; the greedy
  // mapper may use a couple more but must stay small.
  EXPECT_LE(r.num_luts, 4u);
}

TEST(LutMap, RejectsBadK) {
  const Network net = parse_blif_string(
      ".model m\n.inputs a\n.outputs o\n.names a o\n1 1\n.end\n");
  EXPECT_THROW(map_luts(net, 1), std::invalid_argument);
  EXPECT_THROW(map_luts(net, 7), std::invalid_argument);
}

TEST(LutMap, KSweepTradesLutsForDepth) {
  const Network net = gen::ripple_adder(8);
  const LutMapResult r3 = map_luts(net, 3);
  const LutMapResult r6 = map_luts(net, 6);
  EXPECT_TRUE(static_cast<bool>(verify::check_equivalence(net, r3.netlist)));
  EXPECT_TRUE(static_cast<bool>(verify::check_equivalence(net, r6.netlist)));
  EXPECT_LE(r6.num_luts, r3.num_luts);
  EXPECT_LE(r6.depth, r3.depth);
}

TEST(LutMap, InvertedAndConstantOutputs) {
  const Network net = parse_blif_string(
      ".model io\n.inputs a b\n.outputs no k\n.names a b no\n00 1\n"
      ".names k\n1\n.end\n");
  expect_lut_equivalent(net, 4);
}

TEST(LutMap, GeneratedCircuitsMapCorrectly) {
  expect_lut_equivalent(gen::alu(4), 4);
  expect_lut_equivalent(gen::array_multiplier(4), 4);
  expect_lut_equivalent(gen::barrel_shifter(8), 5);
  expect_lut_equivalent(gen::hamming_corrector(4), 4);
}

TEST(LutMap, BdsBeatsAlgebraicFlowOnRegularStructures) {
  // The paper's [35] claim (over 30% LUT improvement) was demonstrated on
  // LUT-friendly FPGA circuits; the robust part with our greedy cone
  // mapper is the XOR/MUX-regular class, where the structure BDS recovers
  // packs directly into k-cones.
  for (const Network& input :
       {gen::parity_tree(32), gen::barrel_shifter(32)}) {
    Network bds_net = input;
    opt::PassManager::from_script("bds").run(bds_net);
    Network sis_net = input;
    opt::PassManager::from_script("rugged").run(sis_net);
    const LutMapResult lb = map_luts(bds_net, 4);
    const LutMapResult ls = map_luts(sis_net, 4);
    EXPECT_TRUE(
        static_cast<bool>(verify::check_equivalence(input, lb.netlist)));
    EXPECT_TRUE(
        static_cast<bool>(verify::check_equivalence(input, ls.netlist)));
    EXPECT_LE(lb.num_luts, ls.num_luts);
    EXPECT_LE(lb.depth, ls.depth);
  }
}

}  // namespace
}  // namespace bds::map
