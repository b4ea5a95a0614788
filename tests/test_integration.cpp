// Integration tests: the two complete flows (BDS and the SIS-style
// baseline) followed by technology mapping, on generated benchmark
// circuits, with end-to-end equivalence verification -- the full pipeline
// the Table I/II benchmarks run.
#include <gtest/gtest.h>

#include "gen/gen.hpp"
#include "map/mapper.hpp"
#include "opt/bds_passes.hpp"
#include "opt/manager.hpp"
#include "verify/cec.hpp"

namespace bds {
namespace {

using net::Network;

struct FlowOutcome {
  Network mapped;
  map::MapResult map_result;
};

FlowOutcome run_bds(const Network& input) {
  Network optimized = input;
  opt::PassManager::from_script("bds").run(optimized);
  map::MapResult r = map::map_network(optimized);
  return {r.netlist, std::move(r)};
}

FlowOutcome run_sis(const Network& input) {
  Network net = input;
  opt::PassManager::from_script("rugged").run(net);
  map::MapResult r = map::map_network(net);
  return {r.netlist, std::move(r)};
}

void expect_both_flows_equivalent(const Network& input) {
  const FlowOutcome bds_out = run_bds(input);
  const FlowOutcome sis_out = run_sis(input);
  const auto r1 = verify::check_equivalence(input, bds_out.mapped);
  EXPECT_EQ(r1.status, verify::CecStatus::kEquivalent)
      << "BDS failing output: " << r1.failing_output;
  const auto r2 = verify::check_equivalence(input, sis_out.mapped);
  EXPECT_EQ(r2.status, verify::CecStatus::kEquivalent)
      << "SIS failing output: " << r2.failing_output;
}

TEST(Integration, Multiplier4x4BothFlows) {
  expect_both_flows_equivalent(gen::array_multiplier(4));
}

TEST(Integration, BarrelShifter8BothFlows) {
  expect_both_flows_equivalent(gen::barrel_shifter(8));
}

TEST(Integration, Alu4BothFlows) {
  expect_both_flows_equivalent(gen::alu(4));
}

TEST(Integration, Comparator6BothFlows) {
  expect_both_flows_equivalent(gen::comparator(6));
}

TEST(Integration, PriorityController8BothFlows) {
  expect_both_flows_equivalent(gen::priority_controller(8));
}

TEST(Integration, RandomControlBothFlows) {
  expect_both_flows_equivalent(gen::random_control(9, 5, 10, 2026));
}

TEST(Integration, Ecc15BothFlows) {
  expect_both_flows_equivalent(gen::hamming_corrector(4));
}

TEST(Integration, LargerArithmeticBySimulation) {
  // 8x8 multiplier: global-BDD CEC may get heavy; simulation both flows.
  const Network input = gen::array_multiplier(8);
  const FlowOutcome b = run_bds(input);
  EXPECT_TRUE(verify::random_simulation_equal(input, b.mapped, 8192, 77));
  const FlowOutcome s = run_sis(input);
  EXPECT_TRUE(verify::random_simulation_equal(input, s.mapped, 8192, 78));
}

TEST(Integration, BdsWinsXorGatesOnParity) {
  // On a flattened parity PLA the BDS flow must produce far fewer gates
  // than the algebraic flow (the Table II shape).
  const Network input = gen::parity_tree(16);
  const FlowOutcome b = run_bds(input);
  const FlowOutcome s = run_sis(input);
  EXPECT_TRUE(static_cast<bool>(verify::check_equivalence(input, b.mapped)));
  EXPECT_TRUE(static_cast<bool>(verify::check_equivalence(input, s.mapped)));
  std::size_t bds_xors = 0;
  for (const auto& [g, n] : b.map_result.gate_histogram) {
    if (g == "xor2" || g == "xnor2") bds_xors += n;
  }
  EXPECT_GE(bds_xors, 10u);
}

TEST(Integration, BshiftMuxStructureSurvivesBds) {
  const Network input = gen::barrel_shifter(16);
  Network optimized = input;
  opt::PassManager::from_script("bds").run(optimized);
  EXPECT_TRUE(
      static_cast<bool>(verify::check_equivalence(input, optimized)));
  // MUX-heavy circuit: functional MUX / shannon decompositions dominate,
  // and the result must not blow up.
  EXPECT_LE(optimized.num_logic_nodes(), 4 * input.num_logic_nodes());
}

TEST(Integration, BdsRuntimeReportsAllPhases) {
  Network net = gen::barrel_shifter(16);
  opt::PassContext ctx;
  const opt::PipelineStats stats =
      opt::PassManager::from_script("bds").run(net, {}, ctx);
  const opt::BdsFlowState& st = ctx.state<opt::BdsFlowState>();
  EXPECT_GT(stats.counter("supernodes"), 0.0);
  EXPECT_GT(st.decompose.total(), 0u);
  EXPECT_GT(stats.seconds_total, 0.0);
  EXPECT_GT(st.peak_bdd_nodes(), 0u);
}

}  // namespace
}  // namespace bds
