#include "map/subject.hpp"

#include <cassert>
#include <functional>
#include <ranges>

#include "sis/factor.hpp"

namespace bds::map {

using net::Network;
using net::NodeId;

std::int32_t SubjectGraph::mk_input(NodeId source) {
  Node n;
  n.kind = Kind::kInput;
  n.source = source;
  nodes.push_back(n);
  return static_cast<std::int32_t>(nodes.size() - 1);
}

std::int32_t SubjectGraph::mk_const(bool value) {
  const std::uint64_t key = value ? 2 : 1;
  const auto it = cons_.find(key);
  if (it != cons_.end()) return it->second;
  Node n;
  n.kind = value ? Kind::kConst1 : Kind::kConst0;
  nodes.push_back(n);
  const auto idx = static_cast<std::int32_t>(nodes.size() - 1);
  cons_.emplace(key, idx);
  return idx;
}

std::int32_t SubjectGraph::mk_inv(std::int32_t a) {
  // Involution and constant folding.
  if (nodes[static_cast<std::size_t>(a)].kind == Kind::kInv) {
    return nodes[static_cast<std::size_t>(a)].a;
  }
  if (nodes[static_cast<std::size_t>(a)].kind == Kind::kConst0) {
    return mk_const(true);
  }
  if (nodes[static_cast<std::size_t>(a)].kind == Kind::kConst1) {
    return mk_const(false);
  }
  const std::uint64_t key =
      (static_cast<std::uint64_t>(a) << 34) | (1ULL << 33);
  const auto it = cons_.find(key);
  if (it != cons_.end()) return it->second;
  Node n;
  n.kind = Kind::kInv;
  n.a = a;
  nodes.push_back(n);
  const auto idx = static_cast<std::int32_t>(nodes.size() - 1);
  cons_.emplace(key, idx);
  return idx;
}

std::int32_t SubjectGraph::mk_nand(std::int32_t a, std::int32_t b) {
  if (a > b) std::swap(a, b);
  const Kind ka = nodes[static_cast<std::size_t>(a)].kind;
  const Kind kb = nodes[static_cast<std::size_t>(b)].kind;
  if (ka == Kind::kConst0 || kb == Kind::kConst0) return mk_const(true);
  if (ka == Kind::kConst1) return mk_inv(b);
  if (kb == Kind::kConst1) return mk_inv(a);
  if (a == b) return mk_inv(a);
  const std::uint64_t key = (static_cast<std::uint64_t>(a) << 34) |
                            (static_cast<std::uint64_t>(b) << 3) | 0x4;
  const auto it = cons_.find(key);
  if (it != cons_.end()) return it->second;
  Node n;
  n.kind = Kind::kNand;
  n.a = a;
  n.b = b;
  nodes.push_back(n);
  const auto idx = static_cast<std::int32_t>(nodes.size() - 1);
  cons_.emplace(key, idx);
  return idx;
}

void SubjectGraph::count_fanouts() {
  for (Node& n : nodes) n.fanout = 0;
  // References from internal edges.
  std::vector<bool> reach(nodes.size(), false);
  std::vector<std::int32_t> stack(po_nodes.begin(), po_nodes.end());
  while (!stack.empty()) {
    const std::int32_t i = stack.back();
    stack.pop_back();
    if (i < 0 || reach[static_cast<std::size_t>(i)]) continue;
    reach[static_cast<std::size_t>(i)] = true;
    const Node& n = nodes[static_cast<std::size_t>(i)];
    if (n.a >= 0) stack.push_back(n.a);
    if (n.b >= 0) stack.push_back(n.b);
  }
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    if (!reach[i]) continue;
    const Node& n = nodes[i];
    if (n.a >= 0) ++nodes[static_cast<std::size_t>(n.a)].fanout;
    if (n.b >= 0) ++nodes[static_cast<std::size_t>(n.b)].fanout;
  }
  // Primary outputs count as references too.
  for (const std::int32_t po : po_nodes) {
    if (po >= 0) ++nodes[static_cast<std::size_t>(po)].fanout;
  }
}

SubjectGraph build_subject_graph(const Network& net) {
  SubjectGraph g;
  g.of_network.assign(net.raw_size(), -1);

  for (const NodeId pi : net.inputs()) {
    g.of_network[pi] = g.mk_input(pi);
  }

  for (const NodeId id : net.topo_order()) {
    const net::Node& n = net.node(id);
    if (n.func.is_constant_zero()) {
      g.of_network[id] = g.mk_const(false);
      continue;
    }
    if (n.func.has_full_cube()) {
      g.of_network[id] = g.mk_const(true);
      continue;
    }
    // Factor the local cover (signals = fanin positions), then expand the
    // factored tree into NAND2/INV.
    const sis::FactoredForm form =
        sis::factor(sis::to_sparse(n.func, std::views::iota(0u)));

    const std::function<std::int32_t(std::int32_t)> expand =
        [&](std::int32_t fi) -> std::int32_t {
      const sis::FactorNode& fn = form.nodes[static_cast<std::size_t>(fi)];
      switch (fn.kind) {
        case sis::FactorKind::kConst0:
          return g.mk_const(false);
        case sis::FactorKind::kConst1:
          return g.mk_const(true);
        case sis::FactorKind::kLit: {
          const unsigned pos = sis::lit_signal(fn.literal);
          const std::int32_t base = g.of_network[n.fanins[pos]];
          assert(base >= 0);
          return sis::lit_negated(fn.literal) ? g.mk_inv(base) : base;
        }
        case sis::FactorKind::kAnd:
          return g.mk_and(expand(fn.a), expand(fn.b));
        case sis::FactorKind::kOr:
          return g.mk_or(expand(fn.a), expand(fn.b));
      }
      return -1;
    };
    g.of_network[id] = expand(form.root);
  }

  for (const auto& [name, driver] : net.outputs()) {
    g.po_nodes.push_back(driver == net::kNoNode ? -1
                                                : g.of_network[driver]);
  }
  g.count_fanouts();
  g.cons_ = {};
  return g;
}

}  // namespace bds::map
