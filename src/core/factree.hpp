// Factoring trees: the record of a BDD decomposition (Section IV-C).
//
// As the engine recursively decomposes a BDD it emits AND/OR/XOR/XNOR/MUX
// operators into a `FactoringForest`. The forest is structurally hashed, so
// syntactically identical subtrees are shared immediately; *functional*
// sharing across trees is recovered later by `extract_sharing`
// (core/sharing.cpp) using BDD canonicity, as the paper describes.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "bdd/bdd.hpp"

namespace bds::core {

using FactId = std::uint32_t;
inline constexpr FactId kNoFact = 0xffffffffu;

enum class FactKind : std::uint8_t {
  kConst0,
  kConst1,
  kVar,   ///< input variable leaf
  kNot,   ///< a
  kAnd,   ///< a & b
  kOr,    ///< a | b
  kXor,   ///< a ^ b
  kXnor,  ///< !(a ^ b)
  kMux,   ///< a ? b : c   (a = control)
};

struct FactNode {
  FactKind kind = FactKind::kConst0;
  bdd::Var var = 0;  ///< for kVar
  FactId a = kNoFact;
  FactId b = kNoFact;
  FactId c = kNoFact;
};

/// An arena of factoring-tree nodes shared by all outputs of a supernode.
class FactoringForest {
 public:
  FactoringForest();

  FactId const0() const { return 0; }
  FactId const1() const { return 1; }
  FactId mk_var(bdd::Var v);
  /// Constructors apply local simplifications (constant folding, involution
  /// of NOT, operand equality) before hashing.
  FactId mk_not(FactId a);
  FactId mk_and(FactId a, FactId b);
  FactId mk_or(FactId a, FactId b);
  FactId mk_xor(FactId a, FactId b);
  FactId mk_xnor(FactId a, FactId b);
  FactId mk_mux(FactId sel, FactId hi, FactId lo);

  const FactNode& node(FactId id) const { return nodes_[id]; }
  std::size_t size() const { return nodes_.size(); }
  /// Heap bytes held by the node arena and its structural-hash index.
  std::size_t memory_bytes() const {
    return nodes_.capacity() * sizeof(FactNode) +
           (buckets_.capacity() + next_.capacity()) * sizeof(std::uint32_t);
  }

  bool eval(FactId id, const std::vector<bool>& assignment) const;
  /// Number of distinct operator nodes (gates) reachable from the roots;
  /// NOT nodes are counted as inverters.
  std::size_t gate_count(const std::vector<FactId>& roots) const;
  /// Literal count in the classic factored-form sense: one per leaf
  /// occurrence, counting shared subtrees once per tree reference.
  std::size_t literal_count(const std::vector<FactId>& roots) const;
  /// Infix rendering for debugging and the examples.
  std::string to_string(FactId id,
                        const std::vector<std::string>& var_names = {}) const;

  /// Builds the BDD of a factoring node in `mgr` (variables are the kVar
  /// indices). Used by sharing extraction and by the engine's self-checks.
  bdd::Bdd to_bdd(FactId id, bdd::Manager& mgr) const;

  /// Copies the tree rooted at `root` into `dst`, replacing each kVar leaf
  /// `v` by `leaf_map[v]` (a node of dst). Used to splice per-supernode
  /// factoring trees into the network-wide forest.
  FactId copy_into(FactoringForest& dst, FactId root,
                   const std::vector<FactId>& leaf_map) const;

 private:
  FactId intern(FactNode n);
  std::vector<FactNode> nodes_;
  // Open hashing over node structure.
  std::vector<std::uint32_t> buckets_;
  std::vector<std::uint32_t> next_;
  void rehash();
  std::size_t hash_node(const FactNode& n) const;
};

}  // namespace bds::core
