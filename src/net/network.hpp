// Multilevel Boolean networks: the DAG representation both flows (BDS and
// the SIS-style baseline) optimize. Nodes carry local functions as SOP
// covers over their fanins (the "local" representation of Section II-A).
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "sop/sop.hpp"

namespace bds::net {

using NodeId = std::uint32_t;
inline constexpr NodeId kNoNode = 0xffffffffu;

enum class NodeKind : std::uint8_t {
  kInput,  ///< Primary input; no local function.
  kLogic,  ///< Internal node with an SOP local function over its fanins.
};

struct Node {
  std::string name;
  NodeKind kind = NodeKind::kLogic;
  bool alive = true;
  std::vector<NodeId> fanins;
  sop::Sop func;  ///< Variables are positions into `fanins`.
};

/// Size figures of a network, as num_logic_nodes(), total_literals() and
/// depth() report them.
struct NetworkStats {
  std::size_t nodes = 0;  ///< live logic nodes
  unsigned literals = 0;  ///< SOP literals over the live logic nodes
  unsigned depth = 0;     ///< longest PI-to-PO path in logic nodes
};

/// A combinational Boolean network. Primary outputs are named references to
/// driver nodes. Node ids are stable until compact() is called.
class Network {
 public:
  explicit Network(std::string name = "top") : name_(std::move(name)) {}

  const std::string& name() const { return name_; }
  void set_name(std::string n) { name_ = std::move(n); }

  NodeId add_input(const std::string& name);
  /// Adds a logic node computing `func` over `fanins` (in that order).
  NodeId add_node(const std::string& name, std::vector<NodeId> fanins,
                  sop::Sop func);
  /// Registers a primary output, or re-targets the one of that name (which
  /// keeps its position). O(1).
  void set_output(const std::string& name, NodeId driver);

  NodeId find(const std::string& name) const;
  const Node& node(NodeId id) const { return nodes_[id]; }
  Node& node(NodeId id) { return nodes_[id]; }
  std::size_t raw_size() const { return nodes_.size(); }

  const std::vector<NodeId>& inputs() const { return inputs_; }
  const std::vector<std::pair<std::string, NodeId>>& outputs() const {
    return outputs_;
  }
  void retarget_output(std::size_t index, NodeId driver) {
    outputs_[index].second = driver;
  }

  /// Live logic nodes in topological (fanin-before-fanout) order.
  std::vector<NodeId> topo_order() const;
  /// Fanout adjacency (live logic consumers of each node, in `order`),
  /// built from `order`, which must be this network's current
  /// topo_order(): callers that need both walk the network once.
  std::vector<std::vector<NodeId>> fanout_lists(
      const std::vector<NodeId>& order) const;

  /// Replaces a node's function/fanins in place.
  void rewrite_node(NodeId id, std::vector<NodeId> fanins, sop::Sop func);
  /// Marks a node dead (must no longer be referenced).
  void kill_node(NodeId id) { nodes_[id].alive = false; }
  /// Drops nodes with no path to an output and rebuilds indices densely.
  void compact();

  /// Full-network simulation: PI values (in inputs() order) to PO values
  /// (in outputs() order).
  std::vector<bool> eval(const std::vector<bool>& pi_values) const;

  // ---- statistics ------------------------------------------------------------

  std::size_t num_inputs() const { return inputs_.size(); }
  std::size_t num_outputs() const { return outputs_.size(); }
  std::size_t num_logic_nodes() const;
  unsigned total_literals() const;
  /// Longest PI-to-PO path in logic nodes (unit-delay depth).
  unsigned depth() const;
  /// All three figures above from a single topological walk.
  NetworkStats stats() const;

  /// Structural invariants: acyclicity, fanin arity vs SOP width, liveness.
  bool check() const;

  /// Renames a node, keeping the name index consistent.
  void rename(NodeId id, const std::string& name);
  /// Generates a fresh name with the given prefix.
  std::string fresh_name(const std::string& prefix);

 private:
  std::string name_;
  std::vector<Node> nodes_;
  std::vector<NodeId> inputs_;
  std::vector<std::pair<std::string, NodeId>> outputs_;
  /// Position of each primary output in outputs_, by name.
  std::unordered_map<std::string, std::size_t> output_index_;
  std::unordered_map<std::string, NodeId> by_name_;
  unsigned fresh_counter_ = 0;
};

// ---- BLIF I/O (net/blif.cpp) --------------------------------------------------

/// Parses a combinational BLIF model (".model/.inputs/.outputs/.names").
/// Throws std::runtime_error with a line number on malformed input.
Network parse_blif(std::istream& is);
Network parse_blif_string(const std::string& text);
void write_blif(std::ostream& os, const Network& net);
std::string to_blif_string(const Network& net);

// ---- sweep (net/sweep.cpp) ------------------------------------------------------

struct SweepStats {
  std::size_t constants_propagated = 0;
  std::size_t trivial_collapsed = 0;  ///< buffers and inverters
  std::size_t duplicates_merged = 0;
  std::size_t dead_removed = 0;
};

/// The paper's "sweep": constant propagation, removal of constant and
/// single-variable nodes, and removal of functionally equivalent duplicate
/// nodes (Section IV-A).
SweepStats sweep(Network& net);

}  // namespace bds::net
