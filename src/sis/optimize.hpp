// Network-level algebraic optimization passes of the SIS-style baseline:
// literal-count eliminate, kernel/cube extraction (fast-extract style), and
// algebraic resubstitution. All passes preserve network semantics and are
// verified by the test suite against simulation and BDD equivalence.
#pragma once

#include <cstddef>
#include <memory>

#include "net/network.hpp"
#include "sis/algebra.hpp"
#include "util/budget.hpp"

namespace bds::sis {

/// Installs a sparse cover (over signal ids) as the node's function.
void set_from_sparse(net::Network& net, net::NodeId id, const SparseSop& f);

/// SIS `eliminate <threshold>`: collapses a node into its fanouts when
/// the total literal-count change is <= `threshold`, in a fixed number of
/// rounds and under a fixed cube cap per substituted cover. Returns the
/// number of collapsed nodes.
std::size_t eliminate_literals(net::Network& net, int threshold);

/// Fast-extract style common-divisor extraction (kernels and cubes), in a
/// fixed number of rounds. Returns the number of new divisor nodes created.
std::size_t extract_divisors(net::Network& net);

/// Algebraic resubstitution of existing nodes into each other.
/// Returns the number of successful substitutions.
std::size_t resubstitute(net::Network& net);

/// Per-node two-level minimization (espresso-lite, no external don't
/// cares) -- SIS `simplify -m nocomp`.
void simplify_nodes(net::Network& net);

struct FullSimplifyOptions {
  /// Abort threshold for the global-BDD manager (counted after a garbage
  /// collection).
  std::size_t max_manager_nodes = 200'000;
  /// Trigger dynamic variable reordering past this many live nodes.
  std::size_t reorder_threshold = 30'000;
  /// The run's resource budget, installed on the global-BDD manager
  /// (null = unlimited).
  std::shared_ptr<const util::ResourceBudget> budget;
};

/// What a full_simplify run reports besides its improved-node count.
struct FullSimplifyReport {
  /// The manager's live-node high-watermark (the Table I memory
  /// comparison).
  std::size_t peak_bdd_nodes = 0;
  /// The budget tripped; the nodes rewritten before the trip stay.
  bool budget_stopped = false;
};

/// SIS `full_simplify`: per-node minimization with satisfiability don't
/// cares computed from global BDDs. Returns the number of improved nodes.
/// Nodes with too many fanins, or whose don't-care set needs too many
/// cubes, are left alone (fixed caps). Gives up gracefully (returning
/// early) on circuits whose global BDDs exceed the node cap, and stops the
/// same way when the budget trips: every rewrite keeps each node's global
/// function, so the network stays equivalent wherever it stops.
std::size_t full_simplify(net::Network& net,
                          const FullSimplifyOptions& opts = {},
                          FullSimplifyReport* report = nullptr);

}  // namespace bds::sis
