// Subject graphs: the canonical NAND2/INV form of a Boolean network that
// tree covering operates on. Node SOPs are algebraically factored first
// (leaf-DAG form, so XOR/XNOR/MUX shapes remain matchable as library
// patterns); structurally identical subject nodes are hash-consed, and
// multi-fanout points become tree boundaries.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "net/network.hpp"

namespace bds::map {

/// The canonical NAND2/INV form of a network (see file comment); both the
/// gate mapper and the LUT mapper cover this graph.
struct SubjectGraph {
  /// Subject node kinds: graph leaves (inputs/constants) and the two
  /// canonical operators.
  enum class Kind : std::uint8_t { kInput, kInv, kNand, kConst0, kConst1 };

  /// One subject node; `a`/`b` are indices into `nodes`.
  struct Node {
    Kind kind = Kind::kInput;  ///< leaf or operator kind
    std::int32_t a = -1;       ///< first fanin (kInv/kNand), else -1
    std::int32_t b = -1;       ///< second fanin (kNand), else -1
    net::NodeId source = net::kNoNode;  ///< for kInput: the network PI/node
    std::uint32_t fanout = 0;  ///< PO-reachable references (tree boundaries)
  };

  std::vector<Node> nodes;  ///< indices are topological (children first)
  /// Subject node computing each network signal (PIs and logic nodes).
  std::vector<std::int32_t> of_network;
  /// Subject node per primary output, in network output order.
  std::vector<std::int32_t> po_nodes;

  /// Creates (or reuses) the leaf node of network signal `source`.
  std::int32_t mk_input(net::NodeId source);
  /// The constant-0 or constant-1 leaf.
  std::int32_t mk_const(bool value);
  /// Hash-consed inverter of `a` (double inversion cancels).
  std::int32_t mk_inv(std::int32_t a);
  /// Hash-consed NAND2 of `a` and `b` (operands are order-normalized).
  std::int32_t mk_nand(std::int32_t a, std::int32_t b);
  /// AND as INV(NAND(a, b)) -- the canonical expansion.
  std::int32_t mk_and(std::int32_t a, std::int32_t b) {
    return mk_inv(mk_nand(a, b));
  }
  /// OR as NAND(INV(a), INV(b)) -- the canonical expansion.
  std::int32_t mk_or(std::int32_t a, std::int32_t b) {
    return mk_nand(mk_inv(a), mk_inv(b));
  }

  /// Recomputes fanout counts from PO-reachable references.
  void count_fanouts();

 private:
  friend SubjectGraph build_subject_graph(const net::Network& net);
  /// Hash-consing table; build_subject_graph() drops it once the graph is
  /// complete, since covering only reads the graph.
  std::unordered_map<std::uint64_t, std::int32_t> cons_;
};

/// Builds the subject graph of a network: every node's local SOP is
/// factored and expanded into NAND2/INV form.
SubjectGraph build_subject_graph(const net::Network& net);

}  // namespace bds::map
