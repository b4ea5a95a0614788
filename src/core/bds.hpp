// The complete BDS synthesis flow (Section IV, Fig. 12):
//
//   network partitioning -> sweep -> eliminate (BDD statistics) ->
//   BDD variable reordering -> recursive BDD decomposition ->
//   sharing extraction -> gate network construction.
//
// `bds_optimize` consumes any combinational Boolean network and produces a
// functionally equivalent network of simple gates (AND2/OR2/XOR2/XNOR2/
// MUX/INV) ready for technology mapping.
#pragma once

#include <cstddef>
#include <vector>

#include "core/decompose.hpp"
#include "core/eliminate.hpp"
#include "net/network.hpp"
#include "opt/pass.hpp"

namespace bds::core {

struct BdsOptions {
  bool do_sweep = true;
  bool reorder = true;        ///< sift each supernode BDD before decomposing
  bool sharing = true;        ///< canonical sharing extraction across trees
  /// Depth-balance associative chains in the factoring trees before gate
  /// emission (implements the paper's future-work item 3; pure delay win).
  bool balance = true;
  bool final_sweep = true;    ///< cheap cleanup of the emitted gate network
  /// Decompose worker threads: 1 = serial, 0 = use hardware concurrency.
  /// Results are bit-identical for every worker count.
  unsigned jobs = 1;
  EliminateOptions eliminate;
  DecomposeOptions decompose;
};

struct BdsStats {
  net::SweepStats sweep;
  std::size_t eliminated = 0;
  std::size_t supernodes = 0;
  DecomposeStats decompose;
  std::size_t shared_merged = 0;
  std::size_t chains_rebalanced = 0;
  std::size_t peak_bdd_nodes = 0;   ///< high-watermark over all managers
  std::size_t peak_bdd_bytes = 0;
  double seconds_total = 0.0;
  double seconds_partition = 0.0;
  double seconds_decompose = 0.0;
  double seconds_sharing = 0.0;
  /// Per-pass breakdown of the pipeline that ran (opt/manager.hpp).
  std::vector<opt::PassStats> passes;
};

/// Runs the full BDS flow and returns the optimized gate-level network.
///
/// Implemented (src/opt/bds_flow.cpp) as a thin wrapper: the options are
/// rendered into the pipeline script `opt::default_bds_script(options)`
/// and run through `opt::PassManager`.
net::Network bds_optimize(const net::Network& input,
                          const BdsOptions& options = {},
                          BdsStats* stats = nullptr);

}  // namespace bds::core
