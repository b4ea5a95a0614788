// Resource governance: ResourceBudget semantics, budget checks on the BDD
// manager hot paths, graceful degradation of the BDS flow (budget-tripped
// supernodes fall back to algebraic factoring of their original SOP), the
// determinism of that degradation across worker counts, and the script
// parameter bindings that configure all of it.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <sstream>
#include <string>
#include <vector>

#include "gen/gen.hpp"
#include "opt/bds_passes.hpp"
#include "opt/manager.hpp"
#include "opt/request_options.hpp"
#include "util/budget.hpp"
#include "util/error.hpp"
#include "verify/cec.hpp"

namespace bds {
namespace {

using util::ResourceBudget;

// ---- ResourceBudget unit behaviour ------------------------------------------

TEST(ResourceBudget, NodeCeilingTrips) {
  ResourceBudget b(10, 0);
  std::uint32_t ticks = 0;
  EXPECT_NO_THROW(b.check(10, 0, ticks));
  try {
    b.check(11, 0, ticks);
    FAIL() << "node ceiling did not trip";
  } catch (const BudgetExceeded& e) {
    EXPECT_EQ(e.resource(), BudgetExceeded::Resource::kNodes);
  }
}

TEST(ResourceBudget, ByteCeilingTrips) {
  ResourceBudget b(0, 100);
  std::uint32_t ticks = 0;
  EXPECT_NO_THROW(b.check(0, 100, ticks));
  try {
    b.check(0, 101, ticks);
    FAIL() << "byte ceiling did not trip";
  } catch (const BudgetExceeded& e) {
    EXPECT_EQ(e.resource(), BudgetExceeded::Resource::kBytes);
  }
}

TEST(ResourceBudget, ZeroMeansUnlimited) {
  ResourceBudget b;
  std::uint32_t ticks = 0;
  EXPECT_NO_THROW(b.check(1u << 30, 1u << 30, ticks));
  EXPECT_FALSE(b.expired());
}

TEST(ResourceBudget, DeadlineTripsUnamortizedCheck) {
  ResourceBudget b;
  b.set_deadline_in(-1.0);  // already in the past
  EXPECT_TRUE(b.expired());
  try {
    b.check_deadline();
    FAIL() << "expired deadline did not trip";
  } catch (const BudgetExceeded& e) {
    EXPECT_EQ(e.resource(), BudgetExceeded::Resource::kDeadline);
  }
}

TEST(ResourceBudget, DeadlineIsAmortizedInFastCheck) {
  ResourceBudget b;
  b.set_deadline_in(-1.0);
  std::uint32_t ticks = 0;
  // The fast check consults the clock only every kDeadlineCheckInterval
  // calls; the first interval-1 calls must stay cheap and silent.
  for (std::uint32_t i = 0;
       i + 1 < ResourceBudget::kDeadlineCheckInterval; ++i) {
    EXPECT_NO_THROW(b.check(0, 0, ticks));
  }
  EXPECT_THROW(b.check(0, 0, ticks), BudgetExceeded);
}

// ---- budget checks on the manager hot paths ---------------------------------

TEST(ManagerBudget, ApplyTripsAndManagerStaysConsistent) {
  bdd::Manager mgr(16);
  const auto budget = std::make_shared<ResourceBudget>(24, 0);
  mgr.set_budget(budget);
  bool tripped = false;
  bdd::Bdd f = mgr.one();
  try {
    for (std::uint32_t v = 0; v + 1 < 16; v += 2) {
      f = f & (mgr.var(v) ^ mgr.var(v + 1));
    }
  } catch (const BudgetExceeded& e) {
    EXPECT_EQ(e.resource(), BudgetExceeded::Resource::kNodes);
    tripped = true;
  }
  ASSERT_TRUE(tripped) << "node ceiling never tripped";
  // The throw happened at a safe point: the manager must still be fully
  // consistent and usable once the budget is lifted.
  f = bdd::Bdd();
  mgr.gc();
  EXPECT_TRUE(mgr.check_consistency());
  mgr.set_budget(nullptr);
  bdd::Bdd g = mgr.one();
  for (std::uint32_t v = 0; v + 1 < 16; v += 2) {
    g = g & (mgr.var(v) ^ mgr.var(v + 1));
  }
  EXPECT_TRUE(mgr.check_consistency());
}

TEST(ManagerBudget, ReorderHonorsExpiredDeadline) {
  bdd::Manager mgr(8);
  bdd::Bdd f = mgr.one();
  for (std::uint32_t v = 0; v + 1 < 8; v += 2) {
    f = f & (mgr.var(v) | mgr.var(v + 1));
  }
  const auto budget = std::make_shared<ResourceBudget>();
  budget->set_deadline_in(-1.0);
  mgr.set_budget(budget);
  // Sifting polls the deadline unamortized between variables, so a stale
  // deadline stops it at the first check.
  try {
    mgr.reorder_sift();
    FAIL() << "expired deadline did not stop sifting";
  } catch (const BudgetExceeded& e) {
    EXPECT_EQ(e.resource(), BudgetExceeded::Resource::kDeadline);
  }
  mgr.set_budget(nullptr);
  EXPECT_TRUE(mgr.check_consistency());
  EXPECT_NO_THROW(mgr.reorder_sift());
}

// ---- graceful degradation of the bds pipeline -------------------------------

std::string to_blif(const net::Network& net) {
  std::ostringstream out;
  net::write_blif(out, net);
  return out.str();
}

std::vector<net::Network> families() {
  std::vector<net::Network> circuits;
  circuits.push_back(gen::ripple_adder(12));
  circuits.push_back(gen::alu(4));
  circuits.push_back(gen::barrel_shifter(8));
  circuits.push_back(gen::comparator(6));
  circuits.push_back(gen::random_control(10, 6, 8, 42));
  return circuits;
}

struct DegradedRun {
  std::string blif;
  double degraded = 0.0;
  std::size_t degraded_passes = 0;
};

/// Runs partition unbudgeted, then the rest of the bds flow under a node
/// ceiling, so trips land in the per-supernode decompose work (mid-flow)
/// rather than collapsing the whole partition.
DegradedRun run_with_decompose_budget(const net::Network& input, unsigned jobs,
                                      std::size_t node_limit) {
  net::Network net = input;
  opt::PassContext ctx;
  opt::PassManager::from_script("sweep; bds_partition").run(net, {}, ctx);
  opt::PipelineOptions popts;
  popts.node_limit = node_limit;
  const std::string rest = "bds_decompose -j " + std::to_string(jobs) +
                           "; bds_sharing; bds_balance; bds_emit; sweep";
  const opt::PipelineStats ps =
      opt::PassManager::from_script(rest).run(net, popts, ctx);
  DegradedRun r;
  r.blif = to_blif(net);
  r.degraded = ps.counter("degraded");
  r.degraded_passes = ps.degraded_passes;
  return r;
}

TEST(Degradation, NodeLimitTripsMidDecomposeDeterministically) {
  // A node ceiling is compared against each private manager's own counters
  // and every manager performs the same operation sequence at any -j, so
  // the set of degraded supernodes -- and the emitted network -- must be
  // identical across worker counts.
  bool any_degraded = false;
  for (const net::Network& input : families()) {
    const DegradedRun serial = run_with_decompose_budget(input, 1, 40);
    const DegradedRun parallel = run_with_decompose_budget(input, 4, 40);
    EXPECT_EQ(serial.blif, parallel.blif) << input.name();
    EXPECT_EQ(serial.degraded, parallel.degraded) << input.name();
    if (serial.degraded > 0) any_degraded = true;

    // Degraded or not, the output must still compute the same functions.
    net::Network out = net::parse_blif_string(serial.blif);
    const verify::CecResult cec = verify::check_equivalence(input, out);
    EXPECT_EQ(cec.status, verify::CecStatus::kEquivalent)
        << input.name() << ": " << cec.failing_output;
  }
  EXPECT_TRUE(any_degraded)
      << "node limit 40 tripped nowhere; the limit is too high for the "
         "families above and the test exercises nothing";
}

TEST(Degradation, TinyNodeLimitFallsBackToTrivialPartition) {
  const net::Network input = gen::ripple_adder(8);
  net::Network net = input;
  opt::PipelineOptions popts;
  popts.node_limit = 4;  // below any useful BDD: partition cannot build
  const opt::PipelineStats ps =
      opt::PassManager::from_script("bds").run(net, popts);
  EXPECT_GT(ps.degraded_passes, 0u);
  EXPECT_GT(ps.counter("degraded"), 0.0);
  for (const opt::PassStats& p : ps.passes) {
    if (p.name == "bds_partition") {
      EXPECT_EQ(p.outcome, opt::PassStats::Outcome::kDegraded);
    }
  }
  const verify::CecResult cec = verify::check_equivalence(input, net);
  EXPECT_EQ(cec.status, verify::CecStatus::kEquivalent) << cec.failing_output;
}

TEST(Degradation, ExpiredDeadlineStillCompletesEquivalently) {
  // With the deadline already expired, every BDD stage degrades or skips,
  // yet the pipeline must run to completion and stay correct -- this is
  // the "time limit never produces a wrong or crashed run" contract.
  const net::Network input = gen::alu(3);
  net::Network net = input;
  opt::PipelineOptions popts;
  popts.deadline = std::chrono::steady_clock::now() - std::chrono::seconds(1);
  const opt::PipelineStats ps =
      opt::PassManager::from_script("bds").run(net, popts);
  EXPECT_GT(ps.degraded_passes, 0u);
  const verify::CecResult cec = verify::check_equivalence(input, net);
  EXPECT_EQ(cec.status, verify::CecStatus::kEquivalent) << cec.failing_output;
}

TEST(Degradation, EnvNodeLimitActsAsDefaultBudget) {
  ASSERT_EQ(setenv("BDS_NODE_LIMIT", "4", 1), 0);
  const net::Network input = gen::ripple_adder(8);
  net::Network net = input;
  const opt::PipelineStats ps =
      opt::PassManager::from_script("bds").run(net, {});
  unsetenv("BDS_NODE_LIMIT");
  EXPECT_GT(ps.degraded_passes, 0u);
  const verify::CecResult cec = verify::check_equivalence(input, net);
  EXPECT_EQ(cec.status, verify::CecStatus::kEquivalent) << cec.failing_output;
}

// ---- script parameter binding -----------------------------------------------

TEST(ScriptParams, JobsBindingReachesDecomposePass) {
  const opt::PassManager pm =
      opt::PassManager::from_script("bds", {{"jobs", "4"}});
  bool found = false;
  for (const auto& pass : pm.passes()) {
    if (pass->name() == "bds_decompose") {
      EXPECT_NE(pass->args().find("-j 4"), std::string::npos) << pass->args();
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST(ScriptParams, UndeclaredKeyIsRejected) {
  EXPECT_THROW(opt::PassManager::from_script("bds", {{"zoom", "1"}}),
               opt::ScriptError);
  // "rugged" declares no parameters at all.
  EXPECT_THROW(opt::PassManager::from_script("rugged", {{"jobs", "2"}}),
               opt::ScriptError);
  // Raw script text has no declarations either.
  EXPECT_THROW(opt::PassManager::from_script("sweep", {{"jobs", "2"}}),
               opt::ScriptError);
  // Budget ceilings are not script parameters: they reach a run only
  // through PipelineOptions (RequestOptions::apply).
  EXPECT_THROW(opt::PassManager::from_script("bds", {{"node_limit", "99"}}),
               opt::ScriptError);
}

TEST(ScriptParams, MalformedValueIsRejected) {
  EXPECT_THROW(opt::PassManager::from_script("bds", {{"jobs", "many"}}),
               opt::ScriptError);
  EXPECT_THROW(opt::PassManager::from_script("bds", {{"jobs", "-3"}}),
               opt::ScriptError);
}

TEST(ScriptParams, WorkerCountAboveTheCeilingIsRejected) {
  // Every worker count -- the `jobs` parameter, raw scripts, daemon
  // requests -- is read by the bds_decompose -j parse, which refuses more
  // than 1024 (bdsd -c's ceiling) before any thread exists. Building the
  // pipeline is enough; none of these is run.
  EXPECT_NO_THROW(opt::PassManager::from_script("bds_decompose -j 1024"));
  EXPECT_THROW(opt::PassManager::from_script("bds_decompose -j 1025"),
               opt::ScriptError);
  EXPECT_THROW(opt::PassManager::from_script("bds_decompose -j 4294967295"),
               opt::ScriptError);
  EXPECT_THROW(opt::PassManager::from_script("bds", {{"jobs", "1025"}}),
               opt::ScriptError);
}

/// Parses one `flag value` pair through the shared CLI surface.
opt::RequestOptions parse_request_flag(std::string flag, std::string value) {
  opt::RequestOptions ro;
  char* argv[] = {flag.data(), value.data()};
  int i = 0;
  EXPECT_TRUE(ro.parse_cli_arg(2, argv, i));
  return ro;
}

TEST(RequestOptions, CountsAreParsedStrictly) {
  // Plain decimal digits only: no blank, no sign, no suffix, no overflow.
  // " -1" used to read as 2^64-1 (and, truncated, as a 2^32-1 job count).
  EXPECT_EQ(parse_request_flag("-j", "8").jobs, 8u);
  EXPECT_EQ(parse_request_flag("-node-limit", "18446744073709551615")
                .node_limit,
            UINT64_MAX);
  for (const char* bad : {" -1", "+5", "-1", "4294967296", "", "5 ", "0x10"}) {
    EXPECT_THROW(parse_request_flag("-j", bad), ParseError) << '"' << bad << '"';
  }
  EXPECT_THROW(parse_request_flag("-node-limit", " -1"), ParseError);
  EXPECT_THROW(parse_request_flag("-node-limit", "18446744073709551616"),
               ParseError);
  // -time-limit takes seconds, stored as whole ms (a positive limit never
  // rounds down to 0, "no limit"); NaN, infinity and a limit the steady
  // clock cannot add to an arrival time are refused.
  EXPECT_EQ(parse_request_flag("-time-limit", "2.5").time_limit_ms, 2500u);
  EXPECT_EQ(parse_request_flag("-time-limit", "0.0001").time_limit_ms, 1u);
  EXPECT_EQ(parse_request_flag("-time-limit", "0").time_limit_ms, 0u);
  for (const char* bad : {"-1", "5s", "", "nan", "inf", "1e300"}) {
    EXPECT_THROW(parse_request_flag("-time-limit", bad), ParseError)
        << '"' << bad << '"';
  }
  // -lut is a 32-bit field: 2^32 + 2 must not wrap to a valid 2.
  EXPECT_THROW(parse_request_flag("-lut", "4294967298"), ParseError);
}

TEST(RequestOptions, OneTimeBoundAndNoPriority) {
  // -time-limit is the only time bound and there is one admission lane:
  // the flags that set a second bound or a priority are not request flags.
  for (std::string flag : {"-deadline-ms", "-priority"}) {
    std::string value = "1";
    char* argv[] = {flag.data(), value.data()};
    int i = 0;
    opt::RequestOptions ro;
    EXPECT_FALSE(ro.parse_cli_arg(2, argv, i)) << flag;
    EXPECT_EQ(i, 0) << flag;
  }
}

}  // namespace
}  // namespace bds
