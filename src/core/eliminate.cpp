#include "core/eliminate.hpp"

#include <algorithm>
#include <cassert>

namespace bds::core {

using bdd::Bdd;
using bdd::Var;
using net::NodeId;

PartitionResult partition_network(const net::Network& net, bdd::Manager& mgr,
                                  const EliminateOptions& opts) {
  PartitionResult result;
  result.var_of.assign(net.raw_size(), kNoVar);

  // One manager variable per signal; PIs first (top of the order), then
  // logic nodes in topological order, so every local BDD is ordered
  // "inputs above own fanins" consistently.
  for (const NodeId pi : net.inputs()) {
    result.var_of[pi] = mgr.new_var();
  }
  const std::vector<NodeId> order = net.topo_order();
  for (const NodeId id : order) result.var_of[id] = mgr.new_var();

  std::vector<Bdd> func(net.raw_size());
  std::vector<bool> alive(net.raw_size(), false);
  for (const NodeId id : order) {
    // The local BDD of each node, over its fanins' variables.
    const net::Node& n = net.node(id);
    func[id] = sop::eval_cover(n.func, mgr.zero(), mgr.one(), [&](unsigned i) {
      return mgr.var(result.var_of[n.fanins[i]]);
    });
    alive[id] = true;
  }

  // Reverse map var -> node.
  std::vector<NodeId> node_of_var(mgr.num_vars(), net::kNoNode);
  for (NodeId id = 0; id < net.raw_size(); ++id) {
    if (result.var_of[id] != kNoVar) node_of_var[result.var_of[id]] = id;
  }
  // Fanout lists are maintained as supersets of the true fanouts: entries
  // are added eagerly on every support change and removed lazily.
  std::vector<std::vector<NodeId>> fanout(net.raw_size());
  for (const NodeId id : order) {
    for (const Var v : func[id].support()) {
      const NodeId src = node_of_var[v];
      if (src != net::kNoNode && net.node(src).kind == net::NodeKind::kLogic) {
        fanout[src].push_back(id);
      }
    }
  }

  std::vector<bool> is_po(net.raw_size(), false);
  for (const auto& [name, driver] : net.outputs()) {
    if (driver != net::kNoNode) is_po[driver] = true;
  }

  const auto erase_from = [](std::vector<NodeId>& v, NodeId x) {
    v.erase(std::remove(v.begin(), v.end(), x), v.end());
  };

  bool changed = true;
  try {
    while (changed && result.passes < opts.max_passes) {
      changed = false;
      ++result.passes;
      for (const NodeId id : order) {
        if (!alive[id] || is_po[id]) continue;
        std::vector<NodeId> targets;
        for (const NodeId m : fanout[id]) {
          if (alive[m] && std::find(targets.begin(), targets.end(), m) ==
                              targets.end()) {
            targets.push_back(m);
          }
        }
        if (targets.empty()) {  // no live consumer and not a PO: dead logic
          alive[id] = false;
          changed = true;
          continue;
        }
        const Var v = result.var_of[id];
        const std::size_t own = func[id].size();
        // Tentatively compose into every live fanout and measure growth.
        std::vector<Bdd> replacement;
        replacement.reserve(targets.size());
        long long delta = -static_cast<long long>(own);
        bool feasible = true;
        for (const NodeId m : targets) {
          const Bdd composed = func[m].compose(v, func[id]);
          const std::size_t new_size = composed.size();
          if (new_size > opts.max_bdd) {
            feasible = false;
            break;
          }
          delta += static_cast<long long>(new_size) -
                   static_cast<long long>(func[m].size());
          replacement.push_back(composed);
        }
        if (!feasible || delta > opts.threshold) continue;

        // Commit: update fanouts' functions and the fanout graph.
        const std::vector<Var> own_support = func[id].support();
        for (std::size_t i = 0; i < targets.size(); ++i) {
          const NodeId m = targets[i];
          func[m] = replacement[i];
          // id's sources may now feed m.
          for (const Var sv : func[m].support()) {
            const NodeId src = node_of_var[sv];
            if (src != net::kNoNode &&
                net.node(src).kind == net::NodeKind::kLogic &&
                std::find(fanout[src].begin(), fanout[src].end(), m) ==
                    fanout[src].end()) {
              fanout[src].push_back(m);
            }
          }
        }
        // Only id's own sources can list it as a fanout.
        for (const Var sv : own_support) {
          const NodeId src = node_of_var[sv];
          if (src != net::kNoNode) erase_from(fanout[src], id);
        }
        fanout[id].clear();
        alive[id] = false;
        func[id] = Bdd();
        ++result.eliminated;
        changed = true;
      }
      mgr.gc();
    }
  } catch (const BudgetExceeded&) {
    // The budget tripped between eliminations (composes are tentative: the
    // committed func[] entries are all complete), so the partition below is
    // valid -- just coarser than the fixpoint. Reclaim the dropped
    // tentative results and carry on with what we have.
    result.budget_stopped = true;
    mgr.gc();
  }

  // Emit supernodes in topological order of the partitioned network.
  for (const NodeId id : order) {
    if (!alive[id]) continue;
    Supernode sn;
    sn.id = id;
    sn.func = func[id];
    for (const Var v : func[id].support()) {
      sn.inputs.push_back(node_of_var[v]);
    }
    result.supernodes.push_back(std::move(sn));
  }
  // Mark eliminated nodes' vars as gone.
  for (NodeId id = 0; id < net.raw_size(); ++id) {
    if (!alive[id] && net.node(id).kind == net::NodeKind::kLogic) {
      result.var_of[id] = kNoVar;
    }
  }
  return result;
}

PartitionResult trivial_partition(const net::Network& net, bdd::Manager& mgr) {
  PartitionResult result;
  result.degraded = true;
  result.var_of.assign(net.raw_size(), kNoVar);
  for (const NodeId pi : net.inputs()) {
    result.var_of[pi] = mgr.new_var();
  }
  const std::vector<NodeId> order = net.topo_order();
  for (const NodeId id : order) result.var_of[id] = mgr.new_var();
  for (const NodeId id : order) {
    Supernode sn;
    sn.id = id;
    // func stays an invalid handle: the caller must route this supernode
    // through a path that never touches BDDs (algebraic factoring of the
    // node's own SOP). Inputs are the node's fanins verbatim.
    sn.inputs = net.node(id).fanins;
    result.supernodes.push_back(std::move(sn));
  }
  return result;
}

}  // namespace bds::core
