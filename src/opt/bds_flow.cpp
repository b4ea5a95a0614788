// `bds_optimize` as a pipeline: renders BdsOptions into a script, runs it
// through the PassManager, and maps the pipeline's measurements back onto
// the legacy BdsStats shape.
#include <string>
#include <utility>

#include "core/bds.hpp"
#include "opt/bds_passes.hpp"
#include "opt/flows.hpp"
#include "opt/manager.hpp"

namespace bds::opt {

std::string default_bds_script(const core::BdsOptions& options) {
  std::vector<ScriptCommand> script;
  if (options.do_sweep) script.push_back({"sweep", {}});

  ScriptCommand partition{"bds_partition", {}};
  const core::EliminateOptions elim_defaults;
  if (options.eliminate.threshold != elim_defaults.threshold) {
    partition.args.insert(partition.args.end(),
                          {"-t", std::to_string(options.eliminate.threshold)});
  }
  if (options.eliminate.max_bdd != elim_defaults.max_bdd) {
    partition.args.insert(
        partition.args.end(),
        {"-max_bdd", std::to_string(options.eliminate.max_bdd)});
  }
  if (options.eliminate.max_passes != elim_defaults.max_passes) {
    partition.args.insert(
        partition.args.end(),
        {"-passes", std::to_string(options.eliminate.max_passes)});
  }
  script.push_back(std::move(partition));

  ScriptCommand decompose{"bds_decompose", {}};
  if (!options.reorder) decompose.args.push_back("-noreorder");
  if (!options.decompose.use_simple_dominators) {
    decompose.args.push_back("-nodom");
  }
  if (!options.decompose.use_mux) decompose.args.push_back("-nomux");
  if (!options.decompose.use_generalized) decompose.args.push_back("-nogen");
  if (!options.decompose.use_xdom) decompose.args.push_back("-noxdom");
  if (options.decompose.dc_minimizer == core::DcMinimizer::kConstrain) {
    decompose.args.push_back("-constrain");
  }
  const core::DecomposeOptions dec_defaults;
  if (options.decompose.max_cuts != dec_defaults.max_cuts) {
    decompose.args.insert(
        decompose.args.end(),
        {"-max_cuts", std::to_string(options.decompose.max_cuts)});
  }
  if (options.jobs != 1) {
    decompose.args.insert(decompose.args.end(),
                          {"-j", std::to_string(options.jobs)});
  }
  script.push_back(std::move(decompose));

  if (options.sharing) script.push_back({"bds_sharing", {}});
  if (options.balance) script.push_back({"bds_balance", {}});
  script.push_back({"bds_emit", {}});
  if (options.final_sweep) script.push_back({"sweep", {}});
  return format_script(script);
}

}  // namespace bds::opt

namespace bds::core {

net::Network bds_optimize(const net::Network& input, const BdsOptions& options,
                          BdsStats* stats_out) {
  net::Network net = input;
  opt::PassManager pm =
      opt::PassManager::from_script(opt::default_bds_script(options));
  opt::PassContext ctx;
  opt::PipelineStats ps = pm.run(net, {}, ctx);

  if (stats_out != nullptr) {
    BdsStats stats;
    if (options.do_sweep && !ps.passes.empty()) {
      const opt::PassStats& first = ps.passes.front();
      stats.sweep.constants_propagated =
          static_cast<std::size_t>(first.counter("constants"));
      stats.sweep.trivial_collapsed =
          static_cast<std::size_t>(first.counter("collapsed"));
      stats.sweep.duplicates_merged =
          static_cast<std::size_t>(first.counter("merged"));
      stats.sweep.dead_removed =
          static_cast<std::size_t>(first.counter("dead"));
    }
    const opt::BdsFlowState& st = ctx.state<opt::BdsFlowState>();
    stats.eliminated =
        static_cast<std::size_t>(ps.counter("eliminated"));
    stats.supernodes = static_cast<std::size_t>(ps.counter("supernodes"));
    stats.decompose = st.decompose;
    stats.shared_merged = st.sharing.merged + st.sharing.merged_negated;
    stats.chains_rebalanced = st.balance.chains_rebalanced;
    stats.peak_bdd_nodes = st.peak_bdd_nodes();
    stats.peak_bdd_bytes = st.peak_bdd_bytes();
    stats.seconds_total = ps.seconds_total;
    stats.seconds_partition = ps.seconds_in("bds_partition");
    stats.seconds_decompose = ps.seconds_in("bds_decompose");
    stats.seconds_sharing = ps.seconds_in("bds_sharing");
    stats.passes = std::move(ps.passes);
    *stats_out = std::move(stats);
  }
  return net;
}

}  // namespace bds::core
