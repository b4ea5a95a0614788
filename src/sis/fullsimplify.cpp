// full_simplify: node minimization with satisfiability don't cares,
// computed with global BDDs (the expensive pass that gives SIS its area
// edge on control logic -- the paper names its absence in BDS as the cause
// of the dalu/vda gap -- and a large share of its runtime).
#include <functional>

#include "bdd/bdd.hpp"
#include "sis/espresso.hpp"
#include "sis/optimize.hpp"

namespace bds::sis {

using bdd::Bdd;
using bdd::Edge;
using bdd::Manager;
using net::Network;
using net::NodeId;

namespace {

/// Nodes with more fanins than this are skipped; the y-variables of the
/// fanin space are the first kMaxFanins variables of the manager.
constexpr unsigned kMaxFanins = 10;
/// Skip a node when its don't-care set needs more cubes than this.
constexpr std::size_t kMaxDcCubes = 64;

/// Enumerates the cubes (1-paths) of a BDD whose support lies in the first
/// `width` variables. Returns false if more than `max_cubes` paths exist.
bool bdd_to_cubes(const Manager& mgr, Edge root, unsigned width,
                  std::size_t max_cubes, sop::Sop& out) {
  bool ok = true;
  sop::Cube current(width);
  const std::function<void(Edge)> walk = [&](Edge e) {
    if (!ok) return;
    if (e.is_zero()) return;
    if (e.is_one()) {
      if (out.cube_count() >= max_cubes) {
        ok = false;
        return;
      }
      out.add_cube(current);
      return;
    }
    const bdd::Var v = mgr.top_var(e);
    if (v >= width) {
      ok = false;  // stray variable outside the y-space
      return;
    }
    current.set(v, sop::Literal::kPos);
    walk(mgr.hi_of(e));
    current.set(v, sop::Literal::kNeg);
    walk(mgr.lo_of(e));
    current.set(v, sop::Literal::kAbsent);
  };
  walk(root);
  return ok;
}

/// The body of full_simplify. It counts rewritten nodes into `improved` as
/// it goes, so the count survives a budget trip.
void minimize_nodes(Network& net, const FullSimplifyOptions& opts,
                    Manager& mgr, std::size_t& improved) {
  // y-variables for the fanin space sit on top of the order.
  for (unsigned i = 0; i < kMaxFanins; ++i) mgr.new_var();
  std::vector<bdd::Var> pi_var(net.raw_size(), 0);
  for (const NodeId pi : net.inputs()) pi_var[pi] = mgr.new_var();

  // Global BDDs over the primary inputs, in topological order.
  std::vector<Bdd> global(net.raw_size());
  for (const NodeId pi : net.inputs()) global[pi] = mgr.var(pi_var[pi]);
  const auto order = net.topo_order();
  bool reordered = false;
  bool rescued = false;
  for (const NodeId id : order) {
    // Covers are built whole and the cap is checked between nodes (as in
    // verify/cec.cpp): a function cut off mid-cover would outlive a later
    // sift that brings the count back under the cap, and every don't-care
    // set derived from it would be wrong.
    const net::Node& n = net.node(id);
    global[id] = sop::eval_cover(
        n.func, mgr.zero(), mgr.one(),
        [&](unsigned i) -> const Bdd& { return global[n.fanins[i]]; });
    if (mgr.live_nodes() > opts.reorder_threshold && !reordered) {
      // Dynamic variable reordering, as SIS does when global BDDs grow
      // (datapath circuits like rotators need control-before-data orders).
      mgr.reorder_sift();
      reordered = true;
    }
    // The cap counts what a collection leaves: the intermediate results
    // of the covers built so far are garbage, often most of the count.
    if (mgr.live_nodes() > opts.max_manager_nodes) mgr.gc();
    if (mgr.live_nodes() > opts.max_manager_nodes) {
      // One rescue sift; a second crossing gives up. Sifting at every
      // crossing has no time bound: on carry chains the count keeps
      // coming back (ripple_adder(256) at the default 200k cap: sifts
      // land at 2k, 4k, 7k, ... 38k live nodes, ~1 s each, still going
      // after 100 s; ripple_adder(128) at a 2k cap: seconds of sifts).
      // Measured on those adders (where more sifts improved no node) and
      // on the seven bench_suite families (rugged BLIF unchanged).
      if (rescued) return;
      mgr.reorder_sift();
      rescued = true;
      if (mgr.live_nodes() > opts.max_manager_nodes) {
        return;  // circuit too large for global BDDs: give up
      }
      reordered = true;
    }
  }

  for (const NodeId id : order) {
    const net::Node& n = net.node(id);
    const unsigned k = static_cast<unsigned>(n.fanins.size());
    if (k < 2 || k > kMaxFanins) continue;
    if (n.func.cubes().empty() || n.func.has_full_cube()) continue;

    // Characteristic function of reachable fanin combinations:
    // chi(y, x) = AND_i (y_i xnor g_i(x)).
    Bdd chi = mgr.one();
    for (unsigned i = 0; i < k; ++i) {
      chi = chi & mgr.var(i).xnor(global[n.fanins[i]]);
    }
    // Image over y: quantify away the primary-input variables.
    bool aborted = false;
    for (const bdd::Var v : chi.support()) {
      if (v < kMaxFanins) continue;
      chi = chi.exists(v);
      if (mgr.live_nodes() > opts.max_manager_nodes) mgr.gc();
      if (mgr.live_nodes() > opts.max_manager_nodes) {
        aborted = true;
        break;
      }
    }
    if (aborted) {
      mgr.gc();
      continue;
    }
    const Bdd dc_bdd = !chi;  // unreachable combinations are don't cares
    if (dc_bdd.is_zero()) continue;

    sop::Sop dc(k);
    if (!bdd_to_cubes(mgr, dc_bdd.edge(), k, kMaxDcCubes, dc)) continue;
    dc.minimize_scc();

    const sop::Sop minimized = espresso_lite(n.func, dc);
    if (minimized.literal_count() < n.func.literal_count()) {
      net.rewrite_node(id, n.fanins, minimized);
      ++improved;
    }
  }
}

}  // namespace

std::size_t full_simplify(Network& net, const FullSimplifyOptions& opts,
                          FullSimplifyReport* report) {
  std::size_t improved = 0;
  Manager mgr;
  mgr.set_budget(opts.budget);
  bool stopped = false;
  try {
    minimize_nodes(net, opts, mgr, improved);
  } catch (const BudgetExceeded&) {
    // Each rewrite only uses don't cares of the unchanged global
    // functions, so the nodes rewritten so far stay.
    stopped = true;
  }
  if (report != nullptr) *report = {mgr.stats().peak_live_nodes, stopped};
  return improved;
}

}  // namespace bds::sis
