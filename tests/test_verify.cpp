// Tests for the equivalence checker and bit-parallel simulator.
#include "verify/cec.hpp"

#include <gtest/gtest.h>

#include "gen/gen.hpp"
#include "net/network.hpp"

namespace bds::verify {
namespace {

using net::Network;
using net::NodeId;
using net::parse_blif_string;

constexpr const char* kXorA = R"(
.model x
.inputs a b
.outputs o
.names a b o
10 1
01 1
.end
)";

// Same function, built from NANDs.
constexpr const char* kXorB = R"(
.model x2
.inputs a b
.outputs o
.names a b t
11 0
.names a t u
11 0
.names b t v
11 0
.names u v o
11 0
.end
)";

constexpr const char* kAnd = R"(
.model y
.inputs a b
.outputs o
.names a b o
11 1
.end
)";

TEST(Cec, EquivalentStructurallyDifferentNetworks) {
  const Network a = parse_blif_string(kXorA);
  const Network b = parse_blif_string(kXorB);
  const CecResult r = check_equivalence(a, b);
  EXPECT_EQ(r.status, CecStatus::kEquivalent);
  EXPECT_TRUE(static_cast<bool>(r));
}

TEST(Cec, InequivalentNetworksGiveCounterexample) {
  const Network a = parse_blif_string(kXorA);
  const Network b = parse_blif_string(kAnd);
  const CecResult r = check_equivalence(a, b);
  ASSERT_EQ(r.status, CecStatus::kInequivalent);
  EXPECT_EQ(r.failing_output, "o");
  ASSERT_EQ(r.counterexample.size(), 2u);
  // The witness must actually distinguish the two networks.
  EXPECT_NE(a.eval(r.counterexample), b.eval(r.counterexample));
}

TEST(Cec, InterfaceMismatchIsInequivalent) {
  const Network a = parse_blif_string(kXorA);
  const Network c = parse_blif_string(
      ".model z\n.inputs a\n.outputs o\n.names a o\n1 1\n.end\n");
  EXPECT_EQ(check_equivalence(a, c).status, CecStatus::kInequivalent);
}

TEST(Cec, BudgetAbortIsReported) {
  // A 16-bit interleaved comparator-ish product: tiny budget must abort.
  std::string blif = ".model big\n.inputs";
  for (int i = 0; i < 16; ++i) blif += " a" + std::to_string(i);
  blif += "\n.outputs o\n.names";
  for (int i = 0; i < 16; ++i) blif += " a" + std::to_string(i);
  blif += " o\n1111111111111111 1\n.end\n";
  const Network a = parse_blif_string(blif);
  const Network b = a;
  const CecResult r = check_equivalence(a, b, /*max_live_nodes=*/4);
  EXPECT_EQ(r.status, CecStatus::kAborted);
}

TEST(Cec, InputOrderDoesNotMatterNamesDo) {
  // Same function with .inputs declared in a different order.
  const Network a = parse_blif_string(kXorA);
  const Network b = parse_blif_string(
      ".model x3\n.inputs b a\n.outputs o\n.names a b o\n10 1\n01 1\n.end\n");
  EXPECT_EQ(check_equivalence(a, b).status, CecStatus::kEquivalent);
}

TEST(Simulate64, MatchesScalarEvaluation) {
  const Network a = parse_blif_string(kXorB);
  const std::vector<std::uint64_t> in{0b0101, 0b0011};
  const auto out = simulate64(a, in);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0] & 0xf, 0b0110u);
}

TEST(Simulate64, RandomEquivalenceAgreesWithCec) {
  const Network a = parse_blif_string(kXorA);
  const Network b = parse_blif_string(kXorB);
  const Network c = parse_blif_string(kAnd);
  EXPECT_TRUE(random_simulation_equal(a, b, 1024, 7));
  EXPECT_FALSE(random_simulation_equal(a, c, 1024, 7));
}

TEST(Simulate64, MatchesScalarEvalOnRandomNetworks) {
  // Property: the 64-way simulator and Network::eval agree bit for bit.
  const Network net = parse_blif_string(R"(
.model r
.inputs a b c d
.outputs o1 o2
.names a b t1
10 1
01 1
.names t1 c t2
11 1
.names t2 d o1
1- 1
-1 1
.names a t2 o2
00 1
.end
)");
  for (unsigned pattern = 0; pattern < 16; ++pattern) {
    std::vector<std::uint64_t> words(4);
    std::vector<bool> scalar(4);
    for (unsigned i = 0; i < 4; ++i) {
      scalar[i] = ((pattern >> i) & 1) != 0;
      words[i] = scalar[i] ? ~0ULL : 0;
    }
    const auto w = simulate64(net, words);
    const auto s = net.eval(scalar);
    for (std::size_t o = 0; o < s.size(); ++o) {
      EXPECT_EQ(w[o] != 0, s[o]) << "pattern " << pattern << " out " << o;
    }
  }
}

TEST(Cec, ReordersUnderPressureInsteadOfAborting) {
  // A 16-bit rotator is exponential in declaration order but small after
  // sifting; the checker must succeed, not abort.
  std::string blif = ".model rotl\n.inputs";
  for (int i = 0; i < 8; ++i) blif += " d" + std::to_string(i);
  blif += " s0 s1 s2\n.outputs o0\n.names";
  // o0 = d[(0 - s) mod 8] as a flat mux over the shift amount.
  for (int i = 0; i < 8; ++i) blif += " d" + std::to_string(i);
  blif += " s0 s1 s2 o0\n";
  for (int s = 0; s < 8; ++s) {
    std::string cube(11, '-');
    cube[static_cast<std::size_t>((8 - s) % 8)] = '1';
    cube[8] = (s & 1) != 0 ? '1' : '0';
    cube[9] = (s & 2) != 0 ? '1' : '0';
    cube[10] = (s & 4) != 0 ? '1' : '0';
    blif += cube + " 1\n";
  }
  blif += ".end\n";
  const Network a = parse_blif_string(blif);
  const CecResult r = check_equivalence(a, a);
  EXPECT_EQ(r.status, CecStatus::kEquivalent);
}

TEST(Cec, CounterexamplesAreMinimalWitnesses) {
  // Networks differing in exactly one minterm: the witness must be it.
  const Network a = parse_blif_string(
      ".model a\n.inputs x y z\n.outputs o\n.names x y z o\n111 1\n.end\n");
  const Network b = parse_blif_string(
      ".model b\n.inputs x y z\n.outputs o\n.names o\n.end\n");  // o == 0
  const CecResult r = check_equivalence(a, b);
  ASSERT_EQ(r.status, CecStatus::kInequivalent);
  EXPECT_EQ(r.counterexample, (std::vector<bool>{true, true, true}));
}

TEST(Simulate64, ConstantNodesSimulate) {
  const Network k = parse_blif_string(
      ".model k\n.inputs a\n.outputs one zero\n.names one\n1\n"
      ".names zero\n.end\n");
  const auto out = simulate64(k, {0xdeadbeef});
  EXPECT_EQ(out[0], ~0ULL);
  EXPECT_EQ(out[1], 0ULL);
}

TEST(Cec, SimulationRefutesWithoutBdds) {
  // A mutation simulation exposes is refuted before any BDD is built: even
  // a one-node ceiling, which aborts every BDD build, cannot stop it.
  const Network a = bds::gen::alu(8);
  Network b = a;
  const NodeId driver = b.outputs().front().second;
  const net::Node& node = b.node(driver);
  b.rewrite_node(driver, node.fanins, node.func.complement());
  const CecResult r = check_equivalence(a, b, /*max_live_nodes=*/1);
  ASSERT_EQ(r.status, CecStatus::kInequivalent);
  EXPECT_EQ(r.failing_output, a.outputs().front().first);
  ASSERT_EQ(r.counterexample.size(), a.num_inputs());
  EXPECT_NE(a.eval(r.counterexample), b.eval(r.counterexample));
}

TEST(Cec, RareMintermIsRefutedByBdds) {
  // a and b differ on one minterm of 24 inputs, which the simulation step
  // (256 vectors) misses; the BDD step must refute the pair and return
  // exactly that minterm.
  constexpr unsigned kInputs = 24;
  std::string names;
  for (unsigned i = 0; i < kInputs; ++i) names += " x" + std::to_string(i);
  std::string minterm;
  for (unsigned i = 0; i < kInputs; ++i) minterm += i % 3 == 0 ? '1' : '0';
  const std::string head =
      ".model m\n.inputs" + names + "\n.outputs o\n.names" + names + " o\n";
  // b = x0 & x1; a = b | minterm, and the minterm has x1 = 0.
  const std::string and01 = "11" + std::string(kInputs - 2, '-') + " 1\n";
  const Network a = parse_blif_string(head + and01 + minterm + " 1\n.end\n");
  const Network b = parse_blif_string(head + and01 + ".end\n");
  ASSERT_TRUE(random_simulation_equal(a, b, 256, 1));
  const CecResult r = check_equivalence(a, b);
  ASSERT_EQ(r.status, CecStatus::kInequivalent);
  EXPECT_EQ(r.failing_output, "o");
  std::vector<bool> expected;
  for (const char c : minterm) expected.push_back(c == '1');
  EXPECT_EQ(r.counterexample, expected);
}

TEST(Simulate64, MismatchSearchMatchesNamesNotPositions) {
  // b declares its inputs and outputs in another order; the mismatch is
  // reported on a's output, with the counterexample in a's input order.
  const Network a = parse_blif_string(
      ".model a\n.inputs p q\n.outputs f g\n.names p q f\n11 1\n"
      ".names p q g\n1- 1\n-1 1\n.end\n");
  const Network b = parse_blif_string(
      ".model b\n.inputs q p\n.outputs g f\n.names p q f\n11 1\n"
      ".names p q g\n1- 1\n.end\n");
  const auto m = find_mismatch(a, a.topo_order(), b, b.topo_order(), 64, 1);
  ASSERT_TRUE(m.has_value());
  EXPECT_EQ(m->failing_output, "g");
  ASSERT_EQ(m->counterexample.size(), 2u);
  EXPECT_EQ(m->counterexample, (std::vector<bool>{false, true}));
  EXPECT_TRUE(random_simulation_equal(a, a, 64, 1));
  const Network renamed = parse_blif_string(
      ".model c\n.inputs p r\n.outputs f g\n.names p r f\n11 1\n"
      ".names p r g\n1- 1\n-1 1\n.end\n");
  const auto n = find_mismatch(a, a.topo_order(), renamed,
                               renamed.topo_order(), 64, 1);
  ASSERT_TRUE(n.has_value());
  EXPECT_EQ(n->failing_output, "<input name mismatch: q>");
}

}  // namespace
}  // namespace bds::verify
