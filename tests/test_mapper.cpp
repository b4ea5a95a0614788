// Tests for subject-graph construction and tree covering: mapped netlists
// must be equivalent to their sources, cover costs must beat naive
// NAND2/INV mapping, and XOR-shaped logic must map onto XOR gates.
#include "map/mapper.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <stdexcept>

#include "opt/manager.hpp"
#include "verify/cec.hpp"

namespace bds::map {
namespace {

using net::Network;
using net::parse_blif_string;

void expect_mapped_equivalent(const Network& input, MapResult* out = nullptr) {
  const MapResult r = map_network(input);
  EXPECT_TRUE(r.netlist.check());
  const auto cec = verify::check_equivalence(input, r.netlist);
  EXPECT_EQ(cec.status, verify::CecStatus::kEquivalent)
      << "failing output: " << cec.failing_output;
  if (out != nullptr) *out = r;
}

TEST(Subject, HashConsingSharesStructure) {
  SubjectGraph g;
  const auto a = g.mk_input(0);
  const auto b = g.mk_input(1);
  EXPECT_EQ(g.mk_nand(a, b), g.mk_nand(b, a));  // commutative consing
  EXPECT_EQ(g.mk_inv(g.mk_inv(a)), a);          // involution
  EXPECT_EQ(g.mk_nand(a, a), g.mk_inv(a));      // nand(a,a) == !a
}

TEST(Subject, ConstantFolding) {
  SubjectGraph g;
  const auto a = g.mk_input(0);
  const auto zero = g.mk_const(false);
  const auto one = g.mk_const(true);
  EXPECT_EQ(g.mk_nand(a, zero), one);
  EXPECT_EQ(g.mk_nand(a, one), g.mk_inv(a));
  EXPECT_EQ(g.mk_inv(zero), one);
}

TEST(Subject, BuildCountsFanouts) {
  const Network net = parse_blif_string(R"(
.model s
.inputs a b c d
.outputs o1 o2
.names a b t
11 1
.names t c o1
11 1
.names t d o2
11 1
.end
)");
  const SubjectGraph g = build_subject_graph(net);
  // The AND(a,b) signal feeds two consumers in the same polarity: its
  // subject node must have fanout 2 (a tree boundary). (Mixed-polarity
  // consumers reference the pre-inverter NAND instead, because hash
  // consing collapses INV(INV(x)).)
  const std::int32_t t = g.of_network[net.find("t")];
  EXPECT_GE(g.nodes[static_cast<std::size_t>(t)].fanout, 2u);
}

TEST(Mapper, SingleAndGate) {
  const Network net = parse_blif_string(
      ".model m\n.inputs a b\n.outputs o\n.names a b o\n11 1\n.end\n");
  MapResult r;
  expect_mapped_equivalent(net, &r);
  // AND should map to one and2 (24), not nand2+inv (24) -- tie is fine,
  // but never more than 24 + inverter slack.
  EXPECT_LE(r.area, 24.0 + 0.1);
  EXPECT_GE(r.num_gates, 1u);
}

TEST(Mapper, XorMapsToXorGate) {
  const Network net = parse_blif_string(
      ".model x\n.inputs a b\n.outputs o\n.names a b o\n10 1\n01 1\n.end\n");
  MapResult r;
  expect_mapped_equivalent(net, &r);
  EXPECT_EQ(r.gate_histogram["xor2"], 1u);
  EXPECT_EQ(r.num_gates, 1u);
  EXPECT_DOUBLE_EQ(r.area, 40.0);
}

TEST(Mapper, MuxMapsToMuxGate) {
  const Network net = parse_blif_string(
      ".model m\n.inputs s a b\n.outputs o\n.names s a b o\n11- 1\n0-1 "
      "1\n.end\n");
  MapResult r;
  expect_mapped_equivalent(net, &r);
  EXPECT_EQ(r.gate_histogram["mux21"], 1u);
}

TEST(Mapper, Aoi21Covers) {
  // o = !(a*b + c) should map to a single aoi21, beating nand/nor trees.
  const Network net = parse_blif_string(
      ".model m\n.inputs a b c\n.outputs o\n.names a b c o\n00- 1\n-00 "
      "1\n.end\n");
  // (!a + !b)(!c) == !(a b + c) ... onset: a'c' + b'c'
  MapResult r;
  expect_mapped_equivalent(net, &r);
  EXPECT_LE(r.area, 32.0);  // aoi21 alone is 24
}

TEST(Mapper, SharedLogicIsNotDuplicated) {
  const Network net = parse_blif_string(R"(
.model s
.inputs a b c d
.outputs o1 o2
.names a b t
11 1
.names t c o1
11 1
.names t d o2
11 1
.end
)");
  MapResult r;
  expect_mapped_equivalent(net, &r);
  // t is shared: total gates must be 3 AND-like covers, not 4.
  EXPECT_LE(r.num_gates, 3u);
}

TEST(Mapper, RippleCarrySliceDelayIsPositive) {
  const Network net = parse_blif_string(R"(
.model fa
.inputs a b cin
.outputs sum cout
.names a b axb
10 1
01 1
.names axb cin sum
10 1
01 1
.names a b t1
11 1
.names axb cin t2
11 1
.names t1 t2 cout
1- 1
-1 1
.end
)");
  MapResult r;
  expect_mapped_equivalent(net, &r);
  EXPECT_GT(r.delay, 0.0);
  EXPECT_EQ(r.gate_histogram["xor2"], 2u);  // both XORs preserved
}

TEST(Mapper, InvertedOutput) {
  const Network net = parse_blif_string(
      ".model i\n.inputs a b\n.outputs o\n.names a b o\n0- 1\n-0 1\n.end\n");
  MapResult r;
  expect_mapped_equivalent(net, &r);
  // !a + !b == nand2: exactly one gate.
  EXPECT_EQ(r.num_gates, 1u);
  EXPECT_EQ(r.gate_histogram["nand2"], 1u);
}

TEST(Mapper, ConstantOutputs) {
  const Network net = parse_blif_string(
      ".model k\n.inputs a\n.outputs one zero\n.names one\n1\n.names "
      "zero\n.end\n");
  expect_mapped_equivalent(net);
}

TEST(Mapper, PassthroughOutput) {
  const Network net = parse_blif_string(
      ".model p\n.inputs a\n.outputs o\n.names a o\n1 1\n.end\n");
  expect_mapped_equivalent(net);
}

TEST(Mapper, BdsOutputMapsEndToEnd) {
  // Full pipeline: BDS-optimize a small adder, then map, then verify.
  const Network net = parse_blif_string(R"(
.model add2
.inputs a0 a1 b0 b1
.outputs s0 s1 c
.names a0 b0 s0
10 1
01 1
.names a0 b0 c0
11 1
.names a1 b1 x1
10 1
01 1
.names x1 c0 s1
10 1
01 1
.names a1 b1 t1
11 1
.names x1 c0 t2
11 1
.names t1 t2 c
1- 1
-1 1
.end
)");
  Network optimized = net;
  opt::PassManager::from_script("bds").run(optimized);
  MapResult r = map_network(optimized);
  EXPECT_TRUE(
      static_cast<bool>(verify::check_equivalence(net, r.netlist)));
  // NOTE: in this adder every XOR shares its internal NAND with the carry
  // logic, so the tree mapper cannot preserve them -- the exact effect the
  // paper reports ("only 33% of XORs were preserved by the mapper").
}

TEST(Mapper, BdsParityConeKeepsXorGates) {
  // A parity cone has no cross-polarity sharing, so the XOR chain that BDS
  // extracts must survive mapping as xor2/xnor2 gates.
  Network net("par5");
  sop::Sop big(5);
  for (unsigned row = 0; row < 32; ++row) {
    if (__builtin_popcount(row) % 2 == 0) continue;
    sop::Cube c(5);
    for (unsigned v = 0; v < 5; ++v) {
      c.set(v, ((row >> v) & 1) != 0 ? sop::Literal::kPos
                                     : sop::Literal::kNeg);
    }
    big.add_cube(c);
  }
  std::vector<net::NodeId> in;
  for (int i = 0; i < 5; ++i) in.push_back(net.add_input("x" + std::to_string(i)));
  const net::NodeId p = net.add_node("p", in, std::move(big));
  net.set_output("parity", p);

  Network optimized = net;
  opt::PassManager::from_script("bds").run(optimized);
  MapResult r = map_network(optimized);
  EXPECT_TRUE(
      static_cast<bool>(verify::check_equivalence(net, r.netlist)));
  EXPECT_GE(r.gate_histogram["xor2"] + r.gate_histogram["xnor2"], 3u);
  // 4 XOR-family gates (plus possibly an inverter) beat any AND/OR cover.
  EXPECT_LE(r.area, 4 * 40.0 + 8.0 + 0.1);
}

TEST(Mapper, DelayObjectiveNeverSlowerThanAreaObjective) {
  for (const Network& net :
       {parse_blif_string(R"(
.model d
.inputs a b c d e f g h
.outputs o
.names a b t1
11 1
.names t1 c t2
11 1
.names t2 d t3
11 1
.names t3 e t4
11 1
.names t4 f t5
11 1
.names t5 g t6
11 1
.names t6 h o
11 1
.end
)")}) {
    const MapResult area = map_network(net, mcnc_like_library(),
                                       MapObjective::kArea);
    const MapResult delay = map_network(net, mcnc_like_library(),
                                        MapObjective::kDelay);
    EXPECT_TRUE(
        static_cast<bool>(verify::check_equivalence(net, area.netlist)));
    EXPECT_TRUE(
        static_cast<bool>(verify::check_equivalence(net, delay.netlist)));
    EXPECT_LE(delay.delay, area.delay + 1e-9);
    EXPECT_LE(area.area, delay.area + 1e-9);
  }
}

TEST(Mapper, GateBlifWriterEmitsInstances) {
  const Network net = parse_blif_string(R"(
.model gb
.inputs a b c
.outputs o
.names a b t
10 1
01 1
.names t c o
11 1
.end
)");
  MapResult r;
  expect_mapped_equivalent(net, &r);
  std::ostringstream os;
  write_gate_blif(os, r.netlist, r.instance_gate);
  const std::string text = os.str();
  EXPECT_NE(text.find(".gate"), std::string::npos);
  EXPECT_NE(text.find(".model gb_mapped"), std::string::npos);
  // Every instance line binds the gate's output pin.
  EXPECT_NE(text.find("O="), std::string::npos);
  // Instance count in the text matches the map result.
  std::size_t count = 0;
  for (std::size_t pos = text.find(".gate"); pos != std::string::npos;
       pos = text.find(".gate", pos + 1)) {
    ++count;
  }
  EXPECT_EQ(count, r.num_gates);

  // A table that does not describe the netlist is refused, not indexed
  // out of bounds.
  const InstanceTable stale(r.netlist.raw_size() - 1, nullptr);
  std::ostringstream unused;
  EXPECT_THROW(write_gate_blif(unused, r.netlist, stale),
               std::invalid_argument);
}

}  // namespace
}  // namespace bds::map
