// Logic-sharing extraction across factoring trees (Section IV-C, Figs. 13
// and 14). BDDs are built for every factoring subtree bottom-up in a
// common manager; the canonicity of BDDs identifies functionally equivalent
// (or complementary) subtrees, which are merged into shared nodes.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
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

/// Content address of the function `root` computes: an FNV-1a-64 digest of
/// the BDD's structure under the manager's post-order node numbering
/// (Manager::number_post_order), so the value is independent of the
/// manager's node indices (which depend on allocation history) yet fully
/// determined by the function, the variable numbering and the variable
/// order. Two managers holding the same function over the same Var ids in
/// the same order produce the same digest. Allocates nothing.
///
/// A nonempty `relabel` (indexed by Var) renames each variable before it is
/// hashed. bds_decompose relabels a supernode's partition variables to
/// their input positions, so the digest equals that of the function's
/// transfer into a compact manager over 0..k-1 whenever the positions
/// follow the partition manager's level order. That digest keys both the
/// run's cone memo and the cross-request result cache, before any manager
/// is leased.
[[nodiscard]] std::uint64_t canonical_function_hash(
    const bdd::Manager& mgr, bdd::Edge root,
    std::span<const bdd::Var> relabel = {});

}  // namespace bds::core
