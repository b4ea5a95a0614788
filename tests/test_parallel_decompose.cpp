// Determinism contract of the parallel decompose phase: the `bds` pipeline
// must produce byte-identical BLIF and identical per-pass decomposition
// counters at every worker count. The cones are staged serially, a cone
// that repeats an earlier cone's function follows that leader instead of
// being decomposed, and the merge runs in supernode index order, so -jN is
// not merely equivalent to -j1 -- it is the same network, bit for bit.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <sstream>
#include <string>
#include <unordered_set>
#include <vector>

#include "core/eliminate.hpp"
#include "core/sharing.hpp"
#include "gen/gen.hpp"
#include "opt/bds_passes.hpp"
#include "opt/manager.hpp"
#include "opt/manager_pool.hpp"
#include "opt/result_cache.hpp"
#include "util/telemetry.hpp"
#include "util/thread_pool.hpp"
#include "oracle.hpp"
#include "verify/cec.hpp"

namespace bds::opt {
namespace {

using test::NoEnvNodeLimit;

std::vector<net::Network> families() {
  std::vector<net::Network> circuits;
  circuits.push_back(gen::ripple_adder(12));
  circuits.push_back(gen::alu(4));
  circuits.push_back(gen::barrel_shifter(8));
  circuits.push_back(gen::parity_tree(24));
  circuits.push_back(gen::hamming_corrector(3));
  circuits.push_back(gen::comparator(6));
  circuits.push_back(gen::random_control(10, 6, 8, 42));
  // ~200 distinct leaders: many cones decompose at once at -j4 and -j8.
  circuits.push_back(gen::random_multilevel(64, 40, 60, 32, 7919));
  return circuits;
}

struct BdsRun {
  std::string blif;
  PassStats decompose;  ///< stats of the bds_decompose pass
};

PassManager bds_at(unsigned jobs) {
  return PassManager::from_script("bds", {{"jobs", std::to_string(jobs)}});
}

BdsRun run_bds(const net::Network& input, unsigned jobs) {
  net::Network net = input;
  const PipelineStats ps = bds_at(jobs).run(net);

  BdsRun r;
  std::ostringstream out;
  net::write_blif(out, net);
  r.blif = out.str();
  for (const PassStats& p : ps.passes) {
    if (p.name == "bds_decompose") r.decompose = p;
  }
  EXPECT_EQ(r.decompose.name, "bds_decompose");
  return r;
}

// The decomposition counters that must be invariant under the worker count
// ("workers" and the par_seconds_* timings legitimately differ).
const char* const kInvariantCounters[] = {"dominators", "mux", "generalized",
                                          "shannon"};

TEST(ParallelDecompose, FourWorkersBitIdenticalToSerial) {
  for (const net::Network& input : families()) {
    const BdsRun serial = run_bds(input, 1);
    EXPECT_EQ(serial.decompose.counter("workers"), 1.0) << input.name();
    for (const unsigned jobs : {4u, 8u}) {
      const BdsRun parallel = run_bds(input, jobs);
      EXPECT_EQ(serial.blif, parallel.blif) << input.name() << " -j " << jobs;
      for (const char* key : kInvariantCounters) {
        EXPECT_EQ(serial.decompose.counter(key),
                  parallel.decompose.counter(key))
            << input.name() << " -j " << jobs << " counter " << key;
      }
      EXPECT_EQ(parallel.decompose.counter("workers"),
                static_cast<double>(jobs))
          << input.name();
    }
  }
}

TEST(ParallelDecompose, OddWorkerCountsAgreeToo) {
  const net::Network input = gen::alu(4);
  const BdsRun serial = run_bds(input, 1);
  for (const unsigned jobs : {2u, 3u, 7u}) {
    const BdsRun parallel = run_bds(input, jobs);
    EXPECT_EQ(serial.blif, parallel.blif) << "-j " << jobs;
  }
}

TEST(ParallelDecompose, ParallelResultIsEquivalentToInput) {
  const net::Network input = gen::ripple_adder(10);
  net::Network net = input;
  bds_at(4).run(net);
  EXPECT_TRUE(static_cast<bool>(verify::check_equivalence(input, net)));
}

TEST(ParallelDecompose, JobsZeroResolvesToHardwareConcurrency) {
  const net::Network input = gen::ripple_adder(6);
  const BdsRun r = run_bds(input, 0);
  EXPECT_EQ(r.decompose.counter("workers"),
            static_cast<double>(util::ThreadPool::resolve(0)));
}

TEST(ParallelDecompose, ReportsPerWorkerBusyTime) {
  const net::Network input = gen::alu(4);
  const BdsRun r = run_bds(input, 2);
  EXPECT_GE(r.decompose.counter("par_seconds_max"),
            r.decompose.counter("par_seconds_min"));
  EXPECT_GE(r.decompose.counter("par_seconds_min"), 0.0);
}

TEST(ParallelDecompose, JobsFlagRoundTripsThroughScript) {
  // The registered script's `jobs` parameter becomes the `bds_decompose -j`
  // flag, and re-rendering the pipeline shows it in place.
  PassManager pm = bds_at(4);
  std::string rendered;
  for (const auto& pass : pm.passes()) {
    if (!rendered.empty()) rendered += "; ";
    rendered += std::string(pass->name());
    const std::string args = pass->args();
    if (!args.empty()) rendered += ' ' + args;
  }
  EXPECT_EQ(rendered,
            "sweep; bds_partition; bds_decompose -j 4; bds_sharing; "
            "bds_balance; bds_emit; sweep");
}

TEST(ParallelDecompose, RemovedFlagsAreRejected) {
  // Dominator splitting and information-gain ordering are gone; their
  // flags are unknown arguments now, not silently ignored.
  EXPECT_THROW(PassManager::from_script("bds_decompose -split 12"),
               ScriptError);
  EXPECT_THROW(PassManager::from_script("bds_decompose -reorder info"),
               ScriptError);
  EXPECT_THROW(PassManager::from_script("bds", {{"split", "12"}}),
               ScriptError);
  EXPECT_THROW(PassManager::from_script("bds", {{"reorder", "info"}}),
               ScriptError);
}

TEST(ParallelDecompose, IdleWorkersAreAccountedNotZeroedIntoBusyMin) {
  // The imbalance-accounting fix: with more executors than supernodes the
  // spare executors are reported as idle_workers, and par_seconds_min is
  // the minimum over executors that actually ran work -- never a
  // meaningless 0 from a worker that had nothing to do.
  net::Network net = gen::parity_tree(16);
  PassContext ctx;
  PassManager::from_script("sweep; bds_partition").run(net, {}, ctx);
  const std::size_t supernodes =
      ctx.state<BdsFlowState>().part.supernodes.size();
  ASSERT_GT(supernodes, 0u);
  const PipelineStats ps =
      PassManager::from_script(
          "bds_decompose -j 8; bds_sharing; bds_balance; bds_emit")
          .run(net, {}, ctx);
  PassStats dec;
  for (const PassStats& p : ps.passes) {
    if (p.name == "bds_decompose") dec = p;
  }
  ASSERT_EQ(dec.name, "bds_decompose");
  EXPECT_EQ(dec.counter("workers"), 8.0);
  if (supernodes < 8) {
    // At most one executor per task can have been active.
    EXPECT_GE(dec.counter("idle_workers"),
              8.0 - static_cast<double>(supernodes));
    EXPECT_GT(dec.counter("par_seconds_min"), 0.0);
  }
  EXPECT_GE(dec.counter("par_seconds_max"), dec.counter("par_seconds_min"));
}

TEST(ParallelDecompose, ConeLeasesEndBeforeTheMerge) {
  // Each per-cone manager goes back to the pool as soon as its forest is
  // built, so a run never holds more leases than it has executor slots and
  // the pool stays small -- not one parked manager per supernode. Every
  // manager the pool constructs becomes idle afterwards, and it constructs
  // one only when all of its managers are leased, so the idle count after
  // the run bounds the peak number of live leases.
  for (const unsigned jobs : {1u, 4u}) {
    net::Network net = gen::ripple_adder(64);
    PassContext ctx;
    PassManager::from_script("sweep; bds_partition").run(net, {}, ctx);
    ASSERT_GE(ctx.state<BdsFlowState>().part.supernodes.size(), 100u);
    const std::size_t idle_before = ManagerPool::global().idle();
    PassManager::from_script("bds_decompose -j " + std::to_string(jobs))
        .run(net, {}, ctx);
    EXPECT_LE(ManagerPool::global().idle(),
              std::max<std::size_t>(idle_before, jobs == 1 ? 2 : jobs))
        << "-j " << jobs;
  }
}

/// The image bds_decompose records for supernode `s`: its function in the
/// partition manager, each partition variable relabelled to its input
/// position.
bdd::ConeImage partition_image(const BdsFlowState& st, std::size_t s) {
  const core::Supernode& sn = st.part.supernodes[s];
  std::vector<bdd::Var> position(st.pmgr->num_vars(), core::kNoVar);
  for (std::uint32_t i = 0; i < sn.inputs.size(); ++i) {
    position[st.part.var_of[sn.inputs[i]]] = i;
  }
  bdd::ConeImage image;
  st.pmgr->record(sn.func.edge(), position, image);
  return image;
}

/// The key bds_decompose gives supernode `s` at default options.
std::uint64_t partition_key(const BdsFlowState& st, std::size_t s) {
  return decompose_cache_key(
      core::canonical_function_hash(partition_image(st, s)),
      core::DecomposeOptions{}, true,
      static_cast<std::uint32_t>(st.part.supernodes[s].inputs.size()));
}

/// The key of the same supernode computed the way the result cache keyed
/// it before any in-run memo: after rebuilding the function in a compact
/// manager over variables 0..k-1 and recording it there.
std::uint64_t compact_key(const BdsFlowState& st, std::size_t s) {
  const auto k =
      static_cast<std::uint32_t>(st.part.supernodes[s].inputs.size());
  bdd::Manager compact(k);
  const bdd::Bdd f = compact.wrap(compact.replay(partition_image(st, s)));
  bdd::ConeImage image;
  compact.record(f.edge(), {}, image);
  return decompose_cache_key(core::canonical_function_hash(image),
                             core::DecomposeOptions{}, true, k);
}

TEST(ConeMemo, PartitionKeyEqualsTheCompactManagerKey) {
  // The key is computed before any lease, in the partition manager; it has
  // to be the key the replayed cone would get, or warm cache entries and
  // in-run leaders would diverge from what a compact manager holds.
  std::vector<net::Network> circuits;
  circuits.push_back(gen::array_multiplier(16));
  circuits.push_back(gen::hamming_corrector(6));
  circuits.push_back(gen::random_multilevel(64, 40, 60, 32, 7));
  const NoEnvNodeLimit unlimited;
  for (net::Network& net : circuits) {
    PassContext ctx;
    PassManager::from_script("sweep; bds_partition").run(net, {}, ctx);
    const BdsFlowState& st = ctx.state<BdsFlowState>();
    ASSERT_FALSE(st.part.degraded) << net.name();
    std::unordered_set<std::uint64_t> distinct;
    for (std::size_t s = 0; s < st.part.supernodes.size(); ++s) {
      const std::uint64_t key = partition_key(st, s);
      EXPECT_EQ(key, compact_key(st, s)) << net.name() << " supernode " << s;
      distinct.insert(key);
    }
    EXPECT_LT(distinct.size(), st.part.supernodes.size()) << net.name();
  }
}

TEST(ConeMemo, ImageDigestsArePinned) {
  // The digest of a recorded image feeds the same bytes the partition
  // manager's post-order walk fed before images existed: these values were
  // printed by that walk. A change here invalidates every cached key.
  struct Pin {
    std::size_t supernode;
    std::uint64_t digest;
  };
  struct Case {
    net::Network net;
    std::vector<Pin> pins;
  };
  std::vector<Case> cases;
  cases.push_back({gen::array_multiplier(16),
                   {{1, 0x78c2dde07d559009ull},
                    {228, 0xde04812b44b6864full},
                    {456, 0x684fb1784efe35c8ull}}});
  cases.push_back({gen::hamming_corrector(6),
                   {{0, 0x49338dac8126e5e4ull},
                    {33, 0xb4c62793ca0e994eull},
                    {66, 0x38b5026e204d6e0eull}}});
  const NoEnvNodeLimit unlimited;
  for (Case& c : cases) {
    PassContext ctx;
    PassManager::from_script("sweep; bds_partition").run(c.net, {}, ctx);
    const BdsFlowState& st = ctx.state<BdsFlowState>();
    for (const Pin& p : c.pins) {
      ASSERT_LT(p.supernode, st.part.supernodes.size()) << c.net.name();
      EXPECT_EQ(
          core::canonical_function_hash(partition_image(st, p.supernode)),
          p.digest)
          << c.net.name() << " supernode " << p.supernode;
    }
  }
}

/// What one run_memo observed.
struct MemoRun {
  std::string blif;
  PassStats decompose;
  std::size_t supernodes = 0;
  std::size_t epoch_decompose = 0;     ///< epoch:decompose spans
  std::size_t degraded_followers = 0;  ///< spans with repeat and degraded
};

/// One `bds` run under a node ceiling (0 = none): on the whole flow, like
/// `optimize_blif -node-limit`, or -- `cones_only` -- on everything after
/// an unbudgeted partition, so a tight ceiling trips cone replays and
/// decompositions (degraded leaders) rather than the partition.
MemoRun run_memo(const net::Network& input, unsigned jobs,
                 std::size_t node_limit, bool cones_only) {
  MemoRun r;
  net::Network net = input;
  const NoEnvNodeLimit unlimited;
  PipelineOptions popts;
  popts.node_limit = node_limit;
  PassContext ctx;
  PassManager::from_script("sweep; bds_partition")
      .run(net, cones_only ? PipelineOptions{} : popts, ctx);
  r.supernodes = ctx.state<BdsFlowState>().part.supernodes.size();
  popts.telemetry = std::make_shared<util::Telemetry>("memo");
  auto sink = std::make_shared<util::AggregateSink>();
  popts.telemetry->add_sink(sink);
  const PipelineStats ps =
      PassManager::from_script("bds_decompose -j " + std::to_string(jobs) +
                               "; bds_sharing; bds_balance; bds_emit; sweep")
          .run(net, popts, ctx);
  popts.telemetry->finish();
  for (const PassStats& p : ps.passes) {
    if (p.name == "bds_decompose") r.decompose = p;
  }
  for (const util::SpanEvent& e : sink->events()) {
    if (e.name == "epoch:decompose") ++r.epoch_decompose;
    double repeat = 0.0;
    double degraded = 0.0;
    for (const auto& [key, value] : e.counters) {
      if (key == "repeat") repeat = value;
      if (key == "degraded") degraded = value;
    }
    if (repeat > 0.0 && degraded > 0.0) ++r.degraded_followers;
  }
  r.blif = net::to_blif_string(net);
  return r;
}

TEST(ConeMemo, LeadersAndFollowersAreByteIdenticalAtEveryJobCount) {
  struct Case {
    net::Network input;
    std::size_t cone_limit;  ///< trips some cones but not the partition
  };
  std::vector<Case> cases;
  cases.push_back({gen::array_multiplier(16), 12});
  cases.push_back({gen::ripple_adder(64), 6});
  for (const Case& c : cases) {
    const net::Network& input = c.input;
    struct Budget {
      std::size_t node_limit;
      bool cones_only;
    };
    for (const Budget b : {Budget{0, false}, Budget{200, false},
                           Budget{c.cone_limit, true}}) {
      const std::string what = input.name() + " node_limit " +
                               std::to_string(b.node_limit) +
                               (b.cones_only ? " on cones" : "");
      const MemoRun serial = run_memo(input, 1, b.node_limit, b.cones_only);
      const double repeats = serial.decompose.counter("cone_repeats");
      // Followers never lease: only leaders open a decompose epoch (a
      // leader whose replay trips opens none either).
      EXPECT_LE(static_cast<double>(serial.epoch_decompose),
                static_cast<double>(serial.supernodes) - repeats)
          << what;
      if (b.node_limit == 0) {
        EXPECT_GT(repeats, 0.0) << what;
        EXPECT_EQ(static_cast<double>(serial.epoch_decompose),
                  static_cast<double>(serial.supernodes) - repeats)
            << what;
      }
      if (b.cones_only) {
        EXPECT_GT(serial.degraded_followers, 0u)
            << what << ": no follower of a degraded leader";
      }
      for (const unsigned jobs : {4u, 8u}) {
        const MemoRun parallel =
            run_memo(input, jobs, b.node_limit, b.cones_only);
        EXPECT_EQ(serial.blif, parallel.blif) << what << " -j " << jobs;
        EXPECT_EQ(parallel.decompose.counter("cone_repeats"), repeats)
            << what << " -j " << jobs;
        EXPECT_EQ(parallel.epoch_decompose, serial.epoch_decompose)
            << what << " -j " << jobs;
      }
      const net::Network output = net::parse_blif_string(serial.blif);
      EXPECT_TRUE(verify::random_simulation_equal(input, output)) << what;
    }
  }
}

TEST(ParallelDecompose, MissingPartitionVariableIsDiagnosed) {
  // A supernode input with no partition variable must be reported, not
  // silently aliased onto variable 0 (the pre-fix behaviour). Staging is
  // serial, so the error is raised before any cone is leased at every -j,
  // and the pool stays usable afterwards.
  // The check runs before the cone's role is decided, so a corrupted
  // follower -- a cone that would reuse an earlier cone's result -- is
  // diagnosed too.
  for (const bool follower : {false, true}) {
    for (const unsigned jobs : {1u, 4u}) {
      const std::string decompose = "bds_decompose -j " + std::to_string(jobs);
      net::Network net = gen::ripple_adder(6);
      PassContext ctx;
      PassManager::from_script("sweep; bds_partition").run(net, {}, ctx);
      BdsFlowState& st = ctx.state<BdsFlowState>();
      ASSERT_GT(st.part.supernodes.size(), 1u);
      std::size_t victim = st.part.supernodes.size() - 1;
      if (follower) {
        std::unordered_set<std::uint64_t> seen;
        victim = 0;
        while (victim < st.part.supernodes.size() &&
               seen.insert(partition_key(st, victim)).second) {
          ++victim;
        }
        ASSERT_LT(victim, st.part.supernodes.size()) << "no follower";
      }
      ASSERT_FALSE(st.part.supernodes[victim].inputs.empty());
      const net::NodeId input = st.part.supernodes[victim].inputs[0];
      const bdd::Var saved = st.part.var_of[input];
      st.part.var_of[input] = core::kNoVar;
      try {
        PassManager::from_script(decompose).run(net, {}, ctx);
        ADD_FAILURE() << "corrupted partition was not diagnosed at -j "
                      << jobs << (follower ? " (follower)" : "");
      } catch (const ScriptError& e) {
        EXPECT_NE(std::string(e.what()).find("no partition variable"),
                  std::string::npos)
            << e.what();
      }

      // A following run on the same (shared) pool succeeds.
      st.part.var_of[input] = saved;
      const net::Network input_net = net;
      PassManager::from_script(decompose + "; bds_sharing; bds_emit")
          .run(net, {}, ctx);
      EXPECT_TRUE(
          static_cast<bool>(verify::check_equivalence(input_net, net)))
          << "-j " << jobs;
    }
  }
}

}  // namespace
}  // namespace bds::opt
