// Tests for the SIS-style baseline passes and the registered `rugged`
// script: every pass must preserve network semantics, and extraction must
// find the classic shared divisors.
#include <gtest/gtest.h>

#include <chrono>
#include <limits>
#include <string>
#include <vector>

#include "gen/gen.hpp"
#include "opt/manager.hpp"
#include "sis/optimize.hpp"
#include "util/rng.hpp"
#include "verify/cec.hpp"

namespace bds::sis {
namespace {

using net::Network;
using net::NodeId;
using net::parse_blif_string;
using sop::Cube;
using sop::Sop;

opt::PipelineStats run_rugged(Network& net) {
  return opt::PassManager::from_script("rugged").run(net);
}

Network two_sop_network() {
  // f = ac + ad + bc + bd + e ; g = ab + cd: shares the (a+b)/(c+d) kernels.
  return parse_blif_string(R"(
.model two
.inputs a b c d e
.outputs f g
.names a b c d e f
1-1-- 1
1--1- 1
-11-- 1
-1-1- 1
----1 1
.names a b c d g
11-- 1
--11 1
.end
)");
}

TEST(SisEliminate, CollapsesSmallNodes) {
  const Network input = parse_blif_string(R"(
.model e
.inputs a b c
.outputs o
.names a b t
11 1
.names t c o
1- 1
-1 1
.end
)");
  Network net = input;
  const std::size_t collapsed = eliminate_literals(net, 10);
  EXPECT_GE(collapsed, 1u);
  EXPECT_TRUE(
      static_cast<bool>(verify::check_equivalence(input, net)));
}

TEST(SisEliminate, HandlesNegativeLiteralConsumers) {
  // Consumer uses the internal signal complemented: requires complement
  // expansion during collapse.
  const Network input = parse_blif_string(R"(
.model en
.inputs a b c
.outputs o
.names a b t
10 1
01 1
.names t c o
01 1
.end
)");
  Network net = input;
  eliminate_literals(net, 20);
  EXPECT_TRUE(
      static_cast<bool>(verify::check_equivalence(input, net)));
}

TEST(SisEliminate, ThresholdMinusOneAvoidsDuplication) {
  // A node with two fanouts whose elimination would duplicate literals
  // must survive eliminate(-1).
  const Network input = parse_blif_string(R"(
.model keep
.inputs a b c d
.outputs o1 o2
.names a b c t
111 1
100 1
001 1
.names t c o1
11 1
.names t d o2
1- 1
-1 1
.end
)");
  Network net = input;
  eliminate_literals(net, -1);
  EXPECT_EQ(net.find("t") != net::kNoNode, true);
  EXPECT_TRUE(
      static_cast<bool>(verify::check_equivalence(input, net)));
}

TEST(SisExtract, FindsSharedKernel) {
  const Network input = two_sop_network();
  Network net = input;
  const std::size_t created = extract_divisors(net);
  EXPECT_GE(created, 1u);
  EXPECT_LE(net.total_literals(), input.total_literals());
  EXPECT_TRUE(
      static_cast<bool>(verify::check_equivalence(input, net)));
}

TEST(SisExtract, SingleCubeExtraction) {
  // abc appears in two nodes: the cube should be extracted once.
  const Network input = parse_blif_string(R"(
.model sc
.inputs a b c d e
.outputs f g
.names a b c d f
111- 1
---1 1
.names a b c e g
111- 1
---1 1
.end
)");
  Network net = input;
  const std::size_t created = extract_divisors(net);
  EXPECT_GE(created, 1u);
  EXPECT_TRUE(
      static_cast<bool>(verify::check_equivalence(input, net)));
}

TEST(SisResub, DividesOneNodeByAnother) {
  // g = a + b exists as a node; f = ac + bc + d should rewrite to gc + d.
  const Network input = parse_blif_string(R"(
.model rs
.inputs a b c d
.outputs f g
.names a b g
1- 1
-1 1
.names a b c d f
1-1- 1
-11- 1
---1 1
.end
)");
  Network net = input;
  const std::size_t count = resubstitute(net);
  EXPECT_GE(count, 1u);
  EXPECT_LT(net.total_literals(), input.total_literals());
  EXPECT_TRUE(
      static_cast<bool>(verify::check_equivalence(input, net)));
}

TEST(SisScript, RuggedReducesLiteralsAndPreservesFunction) {
  const Network input = two_sop_network();
  Network net = input;
  const opt::PipelineStats stats = run_rugged(net);
  EXPECT_GT(stats.seconds_total, 0.0);
  EXPECT_LE(net.total_literals(), input.total_literals());
  EXPECT_TRUE(
      static_cast<bool>(verify::check_equivalence(input, net)));
}

TEST(SisScript, RandomPlasStayEquivalent) {
  Rng rng(777);
  for (int iter = 0; iter < 5; ++iter) {
    Network input("pla" + std::to_string(iter));
    std::vector<NodeId> in;
    for (int i = 0; i < 6; ++i) {
      in.push_back(input.add_input("x" + std::to_string(i)));
    }
    for (int o = 0; o < 3; ++o) {
      Sop s(6);
      for (int cidx = 0; cidx < 8; ++cidx) {
        Cube cube(6);
        for (unsigned v = 0; v < 6; ++v) {
          switch (rng.below(4)) {
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
      const NodeId n = input.add_node("f" + std::to_string(o), in, std::move(s));
      input.set_output("o" + std::to_string(o), n);
    }
    Network net = input;
    run_rugged(net);
    EXPECT_TRUE(static_cast<bool>(verify::check_equivalence(input, net)))
        << "iter " << iter;
  }
}

TEST(SisScript, XorChainSurvives) {
  // The weak spot of algebraic methods: a 12-bit parity tree. No algebraic
  // divisor exists, but the flow must remain correct (and will keep many
  // literals -- that gap is exactly what Table II measures).
  Network input("par");
  std::vector<NodeId> level;
  for (int i = 0; i < 12; ++i) {
    level.push_back(input.add_input("x" + std::to_string(i)));
  }
  Sop x2(2);
  x2.add_cube(Cube::parse("10"));
  x2.add_cube(Cube::parse("01"));
  int id = 0;
  while (level.size() > 1) {
    std::vector<NodeId> next;
    for (std::size_t i = 0; i + 1 < level.size(); i += 2) {
      next.push_back(input.add_node("t" + std::to_string(id++),
                                    {level[i], level[i + 1]}, x2));
    }
    if (level.size() % 2 == 1) next.push_back(level.back());
    level = next;
  }
  input.set_output("p", level[0]);
  Network net = input;
  run_rugged(net);
  EXPECT_TRUE(static_cast<bool>(verify::check_equivalence(input, net)));
}

// full_simplify builds every node's global BDD from its whole cover. When
// the live-node cap tripped part-way through a cover, it used to store the
// truncated function; the sift that followed brought the count back under
// the cap, the walk went on, and later nodes' don't-care sets were derived
// from the wrong function -- an inequivalent result on this case.
TEST(SisFullSimplify, NodeCapTripMidCoverKeepsFunctionsWhole) {
  Network net = gen::random_multilevel(24, 8, 40, 12, 49);
  opt::PassManager::from_script("sis").run(net);
  const Network before = net;
  FullSimplifyOptions opts;
  opts.max_manager_nodes = 800;
  opts.reorder_threshold = 400;
  full_simplify(net, opts);
  const verify::CecResult r = verify::check_equivalence(before, net);
  EXPECT_EQ(r.status, verify::CecStatus::kEquivalent)
      << "failing output: " << r.failing_output;
}

// The node cap counts the nodes a collection leaves, not the garbage of
// the covers built so far: a cap that the collected count never crosses
// changes nothing. Counting garbage, these runs gave up part-way (alu(4):
// 1 node improved of 2; the random circuit: 4 of 6).
TEST(SisFullSimplify, NodeCapCountsNoGarbage) {
  struct Case {
    Network input;
    std::size_t cap;
  };
  std::vector<Case> cases;
  cases.push_back({gen::alu(4), 2000});
  cases.push_back({gen::random_multilevel(24, 8, 40, 12, 49), 4000});
  for (Case& c : cases) {
    opt::PassManager::from_script("sis").run(c.input);
    Network uncapped = c.input;
    FullSimplifyOptions opts;
    opts.max_manager_nodes = std::numeric_limits<std::size_t>::max();
    const std::size_t improved = full_simplify(uncapped, opts);
    EXPECT_GT(improved, 0u) << c.input.name();
    Network capped = c.input;
    opts.max_manager_nodes = c.cap;
    EXPECT_EQ(full_simplify(capped, opts), improved) << c.input.name();
    EXPECT_EQ(net::to_blif_string(capped), net::to_blif_string(uncapped))
        << c.input.name();
  }
}

// Past the node cap, full_simplify sifts once to get back under it. On a
// carry chain the live count keeps crossing a small cap again however
// far a sift brings it down, so sifting at every crossing costs seconds
// on this adder. A second crossing must give up instead, leaving the
// network as it was. At this cap the collected count crosses at 2,002
// nodes (the rescue sift brings it to 412) and again at 1,624.
TEST(SisFullSimplify, SecondCapCrossingGivesUpInsteadOfSiftingPerNode) {
  Network net = gen::ripple_adder(128);
  const std::string before = net::to_blif_string(net);
  FullSimplifyOptions opts;
  opts.max_manager_nodes = 1500;
  const auto start = std::chrono::steady_clock::now();
  EXPECT_EQ(full_simplify(net, opts), 0u);
  const double seconds = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - start)
                             .count();
  EXPECT_LT(seconds, 2.0) << "full_simplify kept sifting past the cap";
  EXPECT_EQ(net::to_blif_string(net), before);
}

}  // namespace
}  // namespace bds::sis
