// Tests for the PassManager pipeline driver: the registered flows produce
// CEC-equivalent networks on the generator circuits, instrumentation (the
// size figures reused across pass boundaries equal a fresh count), the
// per-pass equivalence checkpoint, trace callbacks, and blackboard state.
#include <gtest/gtest.h>

#include "gen/gen.hpp"
#include "opt/bds_passes.hpp"
#include "opt/manager.hpp"
#include "opt/registry.hpp"
#include "verify/cec.hpp"

namespace bds::opt {
namespace {

std::vector<net::Network> pipeline_circuits() {
  std::vector<net::Network> circuits;
  circuits.push_back(gen::ripple_adder(5));
  circuits.push_back(gen::alu(4));
  circuits.push_back(gen::barrel_shifter(8));
  circuits.push_back(gen::comparator(4));
  return circuits;
}

TEST(PassPipeline, NamedFlowsAreEquivalentOnGeneratorCircuits) {
  for (const char* script : {"bds", "rugged", "sis"}) {
    for (const net::Network& input : pipeline_circuits()) {
      net::Network net = input;
      const PipelineStats ps = PassManager::from_script(script).run(net);
      EXPECT_EQ(ps.passes.size(),
                parse_script(*PassRegistry::instance().find_script(script))
                    .size());
      EXPECT_TRUE(static_cast<bool>(verify::check_equivalence(input, net)))
          << script << " on " << input.name();
    }
  }
}

TEST(PassPipeline, InstrumentationRecordsDeltas) {
  net::Network net = gen::ripple_adder(4);
  const std::size_t nodes_in = net.num_logic_nodes();
  PassManager pm = PassManager::from_script("sweep; eliminate -1; simplify");
  const PipelineStats ps = pm.run(net);
  ASSERT_EQ(ps.passes.size(), 3u);
  EXPECT_EQ(ps.passes[0].name, "sweep");
  EXPECT_EQ(ps.passes[0].nodes_before, nodes_in);
  for (std::size_t i = 1; i < ps.passes.size(); ++i) {
    EXPECT_EQ(ps.passes[i].nodes_before, ps.passes[i - 1].nodes_after);
    EXPECT_EQ(ps.passes[i].lits_before, ps.passes[i - 1].lits_after);
  }
  EXPECT_EQ(ps.passes.back().nodes_after, net.num_logic_nodes());
  double sum = 0.0;
  for (const PassStats& p : ps.passes) {
    EXPECT_GE(p.seconds, 0.0);
    sum += p.seconds;
  }
  EXPECT_LE(sum, ps.seconds_total + 1e-9);
}

TEST(PassPipeline, PerPassCheckPassesOnBothFlows) {
  for (const char* script : {"bds", "rugged"}) {
    net::Network net = gen::alu(3);
    const net::Network input = net;
    PassManager pm = PassManager::from_script(script);
    PipelineOptions popts;
    popts.check = true;
    const PipelineStats ps = pm.run(net, popts);
    EXPECT_EQ(ps.check_failures, 0u) << script;
    for (const PassStats& p : ps.passes) {
      if (p.name == "bds_partition" || p.name == "bds_decompose" ||
          p.name == "bds_sharing" || p.name == "bds_balance") {
        // Blackboard passes leave the network alone; no checkpoint.
        EXPECT_EQ(p.check, PassStats::Check::kSkipped) << p.name;
      } else {
        EXPECT_NE(p.check, PassStats::Check::kSkipped) << p.name;
        EXPECT_NE(p.check, PassStats::Check::kFailed) << p.name;
      }
    }
    EXPECT_TRUE(static_cast<bool>(verify::check_equivalence(input, net)))
        << script;
  }
}

// Each pass's size figures come from one walk per pass boundary, reused as
// the next pass's "before" figures. They must equal a fresh count of the
// network at that boundary, with and without per-pass checkpoints.
TEST(PassPipeline, StatisticsMatchAFreshCountAtEveryBoundary) {
  for (const bool check : {false, true}) {
    net::Network net = gen::alu(4);
    const auto count = [&net] {
      return net::NetworkStats{net.num_logic_nodes(), net.total_literals(),
                               net.depth()};
    };
    const net::NetworkStats input = count();
    std::vector<net::NetworkStats> after;  // fresh count after each pass
    PipelineOptions popts;
    popts.check = check;
    popts.trace = [&](const PassStats&) { after.push_back(count()); };
    PassManager pm = PassManager::from_script("bds", {{"map", "mcnc"}});
    const PipelineStats ps = pm.run(net, popts);
    ASSERT_EQ(after.size(), ps.passes.size());
    for (std::size_t i = 0; i < ps.passes.size(); ++i) {
      const PassStats& p = ps.passes[i];
      const net::NetworkStats& before = i == 0 ? input : after[i - 1];
      SCOPED_TRACE(p.name + (check ? " (check)" : ""));
      EXPECT_EQ(p.nodes_before, before.nodes);
      EXPECT_EQ(p.lits_before, before.literals);
      EXPECT_EQ(p.depth_before, before.depth);
      EXPECT_EQ(p.nodes_after, after[i].nodes);
      EXPECT_EQ(p.lits_after, after[i].literals);
      EXPECT_EQ(p.depth_after, after[i].depth);
      if (i == 0) continue;
      const PassStats& prev = ps.passes[i - 1];
      EXPECT_EQ(p.nodes_before, prev.nodes_after);
      EXPECT_EQ(p.lits_before, prev.lits_after);
      EXPECT_EQ(p.depth_before, prev.depth_after);
    }
    EXPECT_EQ(ps.check_failures, 0u);
  }
}

TEST(PassPipeline, TraceCallbackFiresPerPass) {
  net::Network net = gen::ripple_adder(3);
  PassManager pm = PassManager::from_script("sweep; simplify; sweep");
  std::vector<std::string> seen;
  PipelineOptions popts;
  popts.trace = [&seen](const PassStats& p) { seen.push_back(p.name); };
  pm.run(net, popts);
  EXPECT_EQ(seen, (std::vector<std::string>{"sweep", "simplify", "sweep"}));
}

TEST(PassPipeline, BlackboardStateIsInspectableAfterRun) {
  net::Network net = gen::ripple_adder(4);
  PassManager pm = PassManager::from_script("bds");
  PassContext ctx;
  pm.run(net, {}, ctx);
  const BdsFlowState* st = ctx.find_state<BdsFlowState>();
  ASSERT_NE(st, nullptr);
  EXPECT_GT(st->decompose.total(), 0u);
  EXPECT_GT(st->peak_bdd_nodes(), 0u);
  // bds_emit consumed the partition.
  EXPECT_EQ(st->pmgr, nullptr);
}

TEST(PassPipeline, BdsStageWithoutPartitionThrows) {
  net::Network net = gen::ripple_adder(3);
  for (const char* script : {"bds_decompose", "bds_emit", "bds_sharing"}) {
    PassManager pm = PassManager::from_script(script);
    EXPECT_THROW(pm.run(net), ScriptError) << script;
  }
}

TEST(PassPipeline, HybridSisThenBdsScriptRuns) {
  // The seam the refactor exists for: a hybrid flow mixing both engines.
  const net::Network input = gen::alu(3);
  net::Network net = input;
  PassManager pm = PassManager::from_script(
      "sweep; eliminate -1; simplify; bds_partition; bds_decompose; "
      "bds_sharing; bds_emit; sweep");
  const PipelineStats ps = pm.run(net);
  EXPECT_EQ(ps.passes.size(), 8u);
  EXPECT_TRUE(static_cast<bool>(verify::check_equivalence(input, net)));
}

}  // namespace
}  // namespace bds::opt
