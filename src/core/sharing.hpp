// Logic-sharing extraction across factoring trees (Section IV-C, Figs. 13
// and 14). BDDs are built for every factoring subtree bottom-up in a
// common manager; the canonicity of BDDs identifies functionally equivalent
// (or complementary) subtrees, which are merged into shared nodes.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "bdd/bdd.hpp"
#include "core/factree.hpp"

namespace bds::core {

struct SharingStats {
  std::size_t merged = 0;          ///< subtrees replaced by shared signals
  std::size_t merged_negated = 0;  ///< merged through a complement edge
};

/// Rewrites `roots` (in place) so functionally identical subtrees reference
/// one shared node. `mgr` must have one variable per kVar index used by the
/// forest. New nodes may be appended to the forest.
SharingStats extract_sharing(FactoringForest& forest,
                             std::vector<FactId>& roots, bdd::Manager& mgr);

/// Content address of a recorded cone (bdd::Manager::record): an
/// FNV-1a-64 digest of its post-order nodes and root. The image does not
/// depend on the manager's node indices (which depend on allocation
/// history), so the digest is fully determined by the function, the
/// (relabelled) variable numbering and the variable order: two managers
/// holding the same function over the same Var ids in the same order give
/// the same digest.
///
/// bds_decompose records a supernode in the partition manager with each
/// partition variable relabelled to its input position, so the image is
/// the one a compact manager over 0..k-1 would record whenever the
/// positions follow the partition manager's level order. Its digest keys
/// both the run's cone memo and the cross-request result cache, before any
/// manager is leased.
[[nodiscard]] std::uint64_t canonical_function_hash(
    const bdd::ConeImage& image);

}  // namespace bds::core
