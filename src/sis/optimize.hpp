// Network-level algebraic optimization passes of the SIS-style baseline:
// literal-count eliminate, kernel/cube extraction (fast-extract style), and
// algebraic resubstitution. All passes preserve network semantics and are
// verified by the test suite against simulation and BDD equivalence.
#pragma once

#include <cstddef>

#include "net/network.hpp"
#include "sis/algebra.hpp"

namespace bds::sis {

struct SisOptions {
  /// Collapse a node when the total literal-count change is <= threshold.
  int eliminate_threshold = -1;
  /// Eliminate pass limit.
  unsigned eliminate_passes = 4;
  /// Never let a substituted cover exceed this many cubes.
  std::size_t max_node_cubes = 5000;
  /// Kernel cap per node during extraction.
  std::size_t max_kernels = 64;
  /// Extraction pass limit (each pass may introduce many divisors).
  unsigned extract_passes = 12;
};

/// Installs a sparse cover (over signal ids) as the node's function.
void set_from_sparse(net::Network& net, net::NodeId id, const SparseSop& f);

/// SIS `eliminate`: collapses nodes into their fanouts when the literal
/// saving meets the threshold. Returns the number of collapsed nodes.
std::size_t eliminate_literals(net::Network& net, const SisOptions& opts);

/// Fast-extract style common-divisor extraction (kernels and cubes).
/// Returns the number of new divisor nodes created.
std::size_t extract_divisors(net::Network& net, const SisOptions& opts);

/// Algebraic resubstitution of existing nodes into each other.
/// Returns the number of successful substitutions.
std::size_t resubstitute(net::Network& net, const SisOptions& opts);

/// Per-node two-level minimization (espresso-lite, no external don't
/// cares) -- SIS `simplify -m nocomp`.
void simplify_nodes(net::Network& net);

struct FullSimplifyOptions {
  /// Nodes with more fanins than this are skipped.
  unsigned max_fanins = 10;
  /// Abort threshold for the global-BDD manager.
  std::size_t max_manager_nodes = 200'000;
  /// Trigger dynamic variable reordering past this many live nodes.
  std::size_t reorder_threshold = 30'000;
  /// Skip a node when its don't-care set needs more cubes than this.
  std::size_t max_dc_cubes = 64;
};

/// SIS `full_simplify`: per-node minimization with satisfiability don't
/// cares computed from global BDDs. Returns the number of improved nodes.
/// Gives up gracefully (returning early) on circuits whose global BDDs
/// exceed the node budget. `peak_bdd_nodes`, when given, receives the
/// manager's live-node high-watermark (the Table I memory comparison).
std::size_t full_simplify(net::Network& net,
                          const FullSimplifyOptions& opts = {},
                          std::size_t* peak_bdd_nodes = nullptr);

}  // namespace bds::sis
