#include "verify/cec.hpp"

#include <algorithm>
#include <unordered_map>

#include "bdd/bdd.hpp"
#include "util/error.hpp"

namespace bds::verify {

using bdd::Bdd;
using bdd::Manager;
using net::Network;
using net::NodeId;

namespace {

// The simulation step: 256 patterns (four 64-bit words per input) from a
// fixed seed, so a check's verdict and counterexample are reproducible.
constexpr std::size_t kSimulationVectors = 256;
constexpr std::uint64_t kSimulationSeed = 1;

/// Builds global BDDs for all outputs of a network along `order` (its
/// topo_order()), with PI variables assigned through `pi_var` (keyed by PI
/// name).
std::unordered_map<std::string, Bdd> output_bdds(
    const Network& net, const std::vector<NodeId>& order, Manager& mgr,
    const std::unordered_map<std::string, bdd::Var>& pi_var,
    std::size_t max_live_nodes, std::size_t& reorder_at) {
  std::vector<Bdd> value(net.raw_size());
  for (const NodeId pi : net.inputs()) {
    value[pi] = mgr.var(pi_var.at(net.node(pi).name));
  }
  for (const NodeId id : order) {
    const net::Node& n = net.node(id);
    value[id] = sop::eval_cover(
        n.func, mgr.zero(), mgr.one(),
        [&](unsigned i) -> const Bdd& { return value[n.fanins[i]]; });
    // Dynamic reordering under pressure keeps datapath circuits
    // (rotators, selectors) verifiable. Re-sift whenever the table grows
    // well past the previous post-sift size; sifting while small is cheap.
    if (mgr.live_nodes() > reorder_at) {
      mgr.reorder_sift();
      reorder_at = std::max(reorder_at, mgr.live_nodes() * 4);
    }
    if (mgr.live_nodes() > max_live_nodes) {
      throw BudgetExceeded(BudgetExceeded::Resource::kNodes,
                           "global BDD budget exceeded: " +
                               std::to_string(mgr.live_nodes()) + " > " +
                               std::to_string(max_live_nodes) +
                               " live nodes");
    }
  }
  std::unordered_map<std::string, Bdd> outputs;
  for (const auto& [name, driver] : net.outputs()) {
    outputs.emplace(name, driver == net::kNoNode ? mgr.zero() : value[driver]);
  }
  return outputs;
}

/// Extracts one satisfying assignment of a nonzero function.
std::vector<bool> witness(const Manager& mgr, bdd::Edge e,
                          std::uint32_t nvars) {
  std::vector<bool> a(nvars, false);
  bool phase = e.complemented();
  std::uint32_t idx = e.node();
  while (idx != 0) {
    // Follow a branch that can still reach 1 (in the current phase).
    const bdd::Edge hi = mgr.node_hi(idx) ^ phase;
    const bdd::Edge lo = mgr.node_lo(idx) ^ phase;
    const bdd::Var v = mgr.node_var(idx);
    // Prefer the hi branch unless it is constant 0.
    const bdd::Edge next = hi.is_zero() ? lo : hi;
    a[v] = !hi.is_zero();
    phase = next.complemented();
    idx = next.node();
  }
  return a;
}

}  // namespace

CecResult check_equivalence(
    const Network& a, const Network& b, std::size_t max_live_nodes,
    std::shared_ptr<const util::ResourceBudget> budget) {
  // Step 1: refute by simulation before any manager exists. This also
  // rejects interface (input/output name) mismatches, so the BDD step below
  // sees matching name sets.
  const std::vector<NodeId> order_a = a.topo_order();
  const std::vector<NodeId> order_b = b.topo_order();
  if (std::optional<CecResult> refuted =
          find_mismatch(a, order_a, b, order_b, kSimulationVectors,
                        kSimulationSeed)) {
    return *std::move(refuted);
  }

  // Step 2: global BDDs prove equivalence or refute what simulation missed.
  CecResult result;
  Manager mgr;
  // A caller-supplied budget makes the verifier's own BDD work governable:
  // its node/byte ceilings and deadline surface as kAborted below, never as
  // an escaping exception.
  mgr.set_budget(std::move(budget));
  std::unordered_map<std::string, bdd::Var> pi_var;
  for (const NodeId pi : a.inputs()) {
    pi_var.emplace(a.node(pi).name, mgr.new_var());
  }

  try {
    std::size_t reorder_at =
        std::min<std::size_t>(20'000, max_live_nodes / 8);
    const auto fa =
        output_bdds(a, order_a, mgr, pi_var, max_live_nodes, reorder_at);
    const auto fb =
        output_bdds(b, order_b, mgr, pi_var, max_live_nodes, reorder_at);
    for (const auto& [name, func_a] : fa) {
      const Bdd& func_b = fb.at(name);
      if (!(func_a == func_b)) {
        result.status = CecStatus::kInequivalent;
        result.failing_output = name;
        const Bdd diff = func_a ^ func_b;
        const std::vector<bool> w =
            witness(mgr, diff.edge(), mgr.num_vars());
        // Reorder the witness into a's input order.
        result.counterexample.reserve(a.num_inputs());
        for (const NodeId pi : a.inputs()) {
          result.counterexample.push_back(w[pi_var.at(a.node(pi).name)]);
        }
        return result;
      }
    }
  } catch (const BudgetExceeded&) {
    // Step 3: a trip degrades to kAborted (the caller's cue to fall back to
    // longer random simulation).
    result.status = CecStatus::kAborted;
    return result;
  }
  result.status = CecStatus::kEquivalent;
  return result;
}

}  // namespace bds::verify
