// Structural analysis of a BDD function for decomposition (Section III).
//
// Because the package uses complement edges, all path/dominator notions are
// defined on the *expanded view* of a function: nodes are phase-tagged
// edges (an `Edge`), so a physical node reached under both phases appears
// twice. A "1-path" is a root-to-terminal path whose cumulative complement
// parity ends at constant 1 -- exactly the paper's paths II_1 (Definition 3).
#pragma once

#include <cstdint>
#include <optional>
#include <unordered_map>
#include <vector>

#include "bdd/bdd.hpp"

namespace bds::core {

/// Saturating path counter (path counts are exponential in the worst case;
/// structural candidates found with saturated counts are re-verified
/// functionally before being used).
using PathCount = std::uint64_t;
inline constexpr PathCount kPathSaturated = ~PathCount{0};
PathCount sat_add(PathCount a, PathCount b);
PathCount sat_mul(PathCount a, PathCount b);

/// Expanded structural view of one BDD function, with path counts.
class BddStructure {
 public:
  BddStructure(bdd::Manager& mgr, bdd::Edge root);

  bdd::Manager& manager() const { return *mgr_; }
  bdd::Edge root() const { return root_; }

  /// Nonterminal expanded nodes in topological (level-ascending) order.
  const std::vector<bdd::Edge>& nodes() const { return nodes_; }
  /// Distinct levels occupied by expanded nodes, ascending.
  const std::vector<std::uint32_t>& levels() const { return levels_; }

  PathCount paths_to(bdd::Edge e) const;       ///< root -> e paths
  PathCount paths_to_one(bdd::Edge e) const;   ///< e -> terminal-1 paths
  PathCount paths_to_zero(bdd::Edge e) const;  ///< e -> terminal-0 paths
  PathCount total_one_paths() const { return paths_to_one(root_); }
  PathCount total_zero_paths() const { return paths_to_zero(root_); }

  bool saturated() const { return saturated_; }

 private:
  struct Counts {
    PathCount to = 0;
    PathCount to_one = 0;
    PathCount to_zero = 0;
  };
  bdd::Manager* mgr_;
  bdd::Edge root_;
  std::vector<bdd::Edge> nodes_;
  std::vector<std::uint32_t> levels_;
  std::unordered_map<bdd::Edge, Counts> counts_;
  bool saturated_ = false;
};

/// Simple dominators of Section III (Karplus) extended to complement-edge
/// BDDs. Each dominator yields an exact algebraic decomposition:
///   1-dominator e:  F = func(e) & redirect(F, e -> 1)
///   0-dominator e:  F = func(e) | redirect(F, e -> 0)
///   x-dominator v:  F = func(v) xnor redirect(F, (v,+) -> 1, (v,-) -> 0)
struct SimpleDominators {
  std::optional<bdd::Edge> one_dominator;
  std::optional<bdd::Edge> zero_dominator;
  /// Regular edge of a node reached in both phases on every path.
  std::optional<bdd::Edge> x_dominator;
};

/// Scans the structure for the topmost simple dominators. Candidates are
/// found by path counting and must be verified functionally by the caller
/// (counts may be saturated).
SimpleDominators find_simple_dominators(const BddStructure& s);

/// Rebuilds `root` with each expanded edge listed in `replacements`
/// substituted by the paired constant. Replacement targets must be
/// constants. Uses only raw-edge operations (no GC).
bdd::Edge redirect(bdd::Manager& mgr, bdd::Edge root,
                   const std::vector<std::pair<bdd::Edge, bdd::Edge>>&
                       replacements);

/// Builds the generalized-dominator divisor for a horizontal cut at
/// `cut_level`: every edge crossing into a nonterminal node at level >=
/// cut_level (a "free edge", Definition 7) is redirected to `filler`
/// (constant 1 for the conjunctive divisor D of Lemma 1, constant 0 for the
/// disjunctive term G of Lemma 2). Terminal edges keep their targets.
bdd::Edge cut_divisor(bdd::Manager& mgr, bdd::Edge root,
                      std::uint32_t cut_level, bdd::Edge filler);

}  // namespace bds::core
