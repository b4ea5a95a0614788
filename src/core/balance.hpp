// Factoring-tree balancing -- the paper's future-work item 3 ("one of the
// current weaknesses of BDS is its inability to properly balance the
// factoring tree, which is crucial for the delay minimization").
//
// Associative chains (AND/OR/XOR/XNOR) in the forest are flattened into
// operand lists and rebuilt as depth-balanced trees, combining the
// shallowest operands first (Huffman-style), which minimizes the depth of
// the rebuilt chain. The registered `bds` flow runs it as the `bds_balance`
// pass; a script without that pass is the paper's system as published.
#pragma once

#include <cstddef>
#include <vector>

#include "core/factree.hpp"

namespace bds::core {

struct BalanceStats {
  std::size_t chains_rebalanced = 0;
  std::size_t max_depth_before = 0;
  std::size_t max_depth_after = 0;
};

/// Rewrites `roots` in place with balanced associative chains.
/// Semantics-preserving; new nodes may be appended to the forest.
BalanceStats balance_forest(FactoringForest& forest,
                            std::vector<FactId>& roots);

/// Depth (in operator levels) of a factoring tree.
std::size_t tree_depth(const FactoringForest& forest, FactId root);

}  // namespace bds::core
