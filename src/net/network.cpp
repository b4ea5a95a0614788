#include "net/network.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>

#include "util/error.hpp"

namespace bds::net {

NodeId Network::add_input(const std::string& name) {
  if (by_name_.contains(name)) {
    throw NetworkError("duplicate signal name: " + name);
  }
  const NodeId id = static_cast<NodeId>(nodes_.size());
  Node n;
  n.name = name;
  n.kind = NodeKind::kInput;
  nodes_.push_back(std::move(n));
  inputs_.push_back(id);
  by_name_.emplace(name, id);
  return id;
}

NodeId Network::add_node(const std::string& name, std::vector<NodeId> fanins,
                         sop::Sop func) {
  if (by_name_.contains(name)) {
    throw NetworkError("duplicate signal name: " + name);
  }
  if (func.num_vars() != fanins.size()) {
    throw NetworkError("node " + name + ": SOP width " +
                             std::to_string(func.num_vars()) +
                             " != fanin count " +
                             std::to_string(fanins.size()));
  }
  const NodeId id = static_cast<NodeId>(nodes_.size());
  Node n;
  n.name = name;
  n.kind = NodeKind::kLogic;
  n.fanins = std::move(fanins);
  n.func = std::move(func);
  nodes_.push_back(std::move(n));
  by_name_.emplace(name, id);
  return id;
}

void Network::set_output(const std::string& name, NodeId driver) {
  const auto [it, fresh] = output_index_.emplace(name, outputs_.size());
  if (fresh) {
    outputs_.emplace_back(name, driver);
  } else {
    outputs_[it->second].second = driver;
  }
}

NodeId Network::find(const std::string& name) const {
  const auto it = by_name_.find(name);
  return it == by_name_.end() ? kNoNode : it->second;
}

void Network::rename(NodeId id, const std::string& name) {
  if (by_name_.contains(name)) {
    throw NetworkError("duplicate signal name: " + name);
  }
  by_name_.erase(nodes_[id].name);
  nodes_[id].name = name;
  by_name_.emplace(name, id);
}

std::string Network::fresh_name(const std::string& prefix) {
  std::string candidate;
  do {
    candidate = prefix + std::to_string(fresh_counter_++);
  } while (by_name_.contains(candidate));
  return candidate;
}

std::vector<NodeId> Network::topo_order() const {
  // Iterative DFS from outputs over live nodes.
  std::vector<std::uint8_t> state(nodes_.size(), 0);  // 0 new, 1 open, 2 done
  std::vector<NodeId> order;
  std::vector<std::pair<NodeId, std::size_t>> stack;
  const auto visit = [&](NodeId root) {
    if (root == kNoNode || state[root] == 2) return;
    stack.emplace_back(root, 0);
    while (!stack.empty()) {
      auto& [id, next] = stack.back();
      const Node& n = nodes_[id];
      if (state[id] == 0) state[id] = 1;
      if (n.kind == NodeKind::kInput || next >= n.fanins.size()) {
        state[id] = 2;
        if (n.kind == NodeKind::kLogic) order.push_back(id);
        stack.pop_back();
        continue;
      }
      const NodeId child = n.fanins[next++];
      if (state[child] == 0) {
        stack.emplace_back(child, 0);
      } else if (state[child] == 1) {
        throw NetworkError("combinational cycle through " +
                                 nodes_[child].name);
      }
    }
  };
  for (const auto& [name, driver] : outputs_) visit(driver);
  return order;
}

std::vector<std::vector<NodeId>> Network::fanout_lists(
    const std::vector<NodeId>& order) const {
  std::vector<std::vector<NodeId>> fanouts(nodes_.size());
  for (const NodeId id : order) {
    for (const NodeId fi : nodes_[id].fanins) fanouts[fi].push_back(id);
  }
  return fanouts;
}

void Network::rewrite_node(NodeId id, std::vector<NodeId> fanins,
                           sop::Sop func) {
  assert(func.num_vars() == fanins.size());
  nodes_[id].fanins = std::move(fanins);
  nodes_[id].func = std::move(func);
}

void Network::compact() {
  // Liveness: reachable from a PO.
  std::vector<bool> reach(nodes_.size(), false);
  for (const NodeId id : topo_order()) reach[id] = true;
  for (const auto& [name, driver] : outputs_) {
    if (driver != kNoNode) reach[driver] = true;
  }
  for (const NodeId id : inputs_) reach[id] = true;  // PIs always kept

  std::vector<Node> new_nodes;
  std::vector<NodeId> remap(nodes_.size(), kNoNode);
  for (NodeId id = 0; id < nodes_.size(); ++id) {
    if (!reach[id] || !nodes_[id].alive) continue;
    remap[id] = static_cast<NodeId>(new_nodes.size());
    new_nodes.push_back(std::move(nodes_[id]));
  }
  for (Node& n : new_nodes) {
    for (NodeId& fi : n.fanins) {
      fi = remap[fi];
      assert(fi != kNoNode);
    }
  }
  for (NodeId& id : inputs_) id = remap[id];
  for (auto& [name, driver] : outputs_) {
    if (driver != kNoNode) driver = remap[driver];
  }
  nodes_ = std::move(new_nodes);
  by_name_.clear();
  for (NodeId id = 0; id < nodes_.size(); ++id) {
    by_name_.emplace(nodes_[id].name, id);
  }
}

std::vector<bool> Network::eval(const std::vector<bool>& pi_values) const {
  assert(pi_values.size() == inputs_.size());
  std::vector<bool> value(nodes_.size(), false);
  for (std::size_t i = 0; i < inputs_.size(); ++i) {
    value[inputs_[i]] = pi_values[i];
  }
  for (const NodeId id : topo_order()) {
    const Node& n = nodes_[id];
    std::vector<bool> local(n.fanins.size());
    for (std::size_t i = 0; i < n.fanins.size(); ++i) {
      local[i] = value[n.fanins[i]];
    }
    value[id] = n.func.eval(local);
  }
  std::vector<bool> po(outputs_.size());
  for (std::size_t i = 0; i < outputs_.size(); ++i) {
    po[i] = outputs_[i].second == kNoNode ? false : value[outputs_[i].second];
  }
  return po;
}

std::size_t Network::num_logic_nodes() const { return topo_order().size(); }

unsigned Network::total_literals() const {
  unsigned n = 0;
  for (const NodeId id : topo_order()) n += nodes_[id].func.literal_count();
  return n;
}

unsigned Network::depth() const { return stats().depth; }

NetworkStats Network::stats() const {
  NetworkStats s;
  std::vector<unsigned> level(nodes_.size(), 0);
  for (const NodeId id : topo_order()) {
    const Node& n = nodes_[id];
    unsigned l = 0;
    for (const NodeId fi : n.fanins) l = std::max(l, level[fi]);
    level[id] = l + 1;
    s.depth = std::max(s.depth, level[id]);
    s.literals += n.func.literal_count();
    ++s.nodes;
  }
  return s;
}

bool Network::check() const {
  try {
    const auto order = topo_order();
    for (const NodeId id : order) {
      const Node& n = nodes_[id];
      if (!n.alive) return false;
      if (n.func.num_vars() != n.fanins.size()) return false;
      for (const NodeId fi : n.fanins) {
        if (fi >= nodes_.size() || !nodes_[fi].alive) return false;
      }
    }
  } catch (const std::runtime_error&) {
    return false;  // cycle
  }
  return true;
}

}  // namespace bds::net
