#include "map/mapper.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <functional>
#include <limits>
#include <ostream>
#include <stdexcept>
#include <utility>

namespace bds::map {

using net::Network;
using net::NodeId;

namespace {

/// A library gate as a NAND2/INV pattern tree (leaves are formal pins).
struct Pattern {
  enum class Kind : std::uint8_t { kLeaf, kInv, kNand };
  struct Node {
    Kind kind = Kind::kLeaf;
    std::int32_t a = -1;
    std::int32_t b = -1;
    std::uint32_t pin = 0;  ///< for kLeaf
  };
  const Gate* gate = nullptr;
  std::size_t gate_index = 0;   ///< position of `gate` in the library
  std::string instance_prefix;  ///< "<gate>_", the instance name prefix
  std::vector<Node> nodes;
  std::int32_t root = -1;
  std::uint32_t num_pins = 0;
};

/// Converts a gate's expression into its NAND2/INV pattern (one canonical
/// decomposition per gate, as classic tree mappers do).
Pattern gate_pattern(const Gate& g) {
  Pattern p;
  p.gate = &g;
  p.num_pins = static_cast<std::uint32_t>(g.pins.size());
  const auto push = [&](Pattern::Node n) {
    p.nodes.push_back(n);
    return static_cast<std::int32_t>(p.nodes.size() - 1);
  };
  const auto mk_inv = [&](std::int32_t a) {
    if (p.nodes[static_cast<std::size_t>(a)].kind == Pattern::Kind::kInv) {
      return p.nodes[static_cast<std::size_t>(a)].a;
    }
    return push({Pattern::Kind::kInv, a, -1, 0});
  };
  const std::function<std::int32_t(std::int32_t)> go =
      [&](std::int32_t ei) -> std::int32_t {
    const Expr& e = g.expr[static_cast<std::size_t>(ei)];
    switch (e.kind) {
      case Expr::Kind::kConst0:
      case Expr::Kind::kConst1:
        return -1;  // constant gates are not used as patterns
      case Expr::Kind::kVar: {
        std::uint32_t pin = 0;
        for (; pin < g.pins.size(); ++pin) {
          if (g.pins[pin] == e.pin) break;
        }
        return push({Pattern::Kind::kLeaf, -1, -1, pin});
      }
      case Expr::Kind::kNot: {
        const std::int32_t a = go(e.a);
        return a < 0 ? -1 : mk_inv(a);
      }
      case Expr::Kind::kAnd: {
        const std::int32_t a = go(e.a);
        const std::int32_t b = go(e.b);
        if (a < 0 || b < 0) return -1;
        return mk_inv(push({Pattern::Kind::kNand, a, b, 0}));
      }
      case Expr::Kind::kOr: {
        const std::int32_t a = go(e.a);
        const std::int32_t b = go(e.b);
        if (a < 0 || b < 0) return -1;
        return push({Pattern::Kind::kNand, mk_inv(a), mk_inv(b), 0});
      }
    }
    return -1;
  };
  p.root = go(g.expr_root);
  return p;
}

class Mapper {
 public:
  Mapper(const Network& net, const Library& lib, MapObjective objective)
      : net_(net), lib_(lib), objective_(objective) {
    if (lib.inverter() == nullptr || lib.nand2() == nullptr) {
      throw std::runtime_error(
          "library must contain an inverter and a 2-input NAND");
    }
  }

  /// Maps the network; with `replace`, moves the netlist into it (the
  /// result's netlist is then empty).
  MapResult run(util::TelemetryRecorder* telemetry, Network* replace) {
    {
      const util::TelemetrySpan span =
          util::TelemetrySpan::open(telemetry, "map:subject");
      graph_ = build_subject_graph(net_);
    }
    {
      const util::TelemetrySpan span =
          util::TelemetrySpan::open(telemetry, "map:cover");
      for (std::size_t gi = 0; gi < lib_.gates.size(); ++gi) {
        Pattern p = gate_pattern(lib_.gates[gi]);
        if (p.root < 0) continue;
        p.gate_index = gi;
        p.instance_prefix = lib_.gates[gi].name + "_";
        max_pins_ = std::max(max_pins_, p.num_pins);
        patterns_.push_back(std::move(p));
      }
      bind_.assign(max_pins_, -1);
      bound_.reserve(max_pins_);
      const std::size_t n = graph_.nodes.size();
      best_gate_.assign(n, nullptr);
      best_leaves_.assign(n * max_pins_, -1);
      cost_.assign(n, 0.0);
      arrival_.assign(n, 0.0);
      for (std::size_t i = 0; i < n; ++i) cover(static_cast<std::int32_t>(i));
    }
    const util::TelemetrySpan span =
        util::TelemetrySpan::open(telemetry, "map:netlist");
    MapResult result = emit();
    if (replace != nullptr) {
      *replace = std::exchange(result.netlist, Network());
    }
    return result;
  }

 private:
  bool is_tree_leaf(std::int32_t s) const {
    const auto& sn = graph_.nodes[static_cast<std::size_t>(s)];
    return sn.kind == SubjectGraph::Kind::kInput ||
           sn.kind == SubjectGraph::Kind::kConst0 ||
           sn.kind == SubjectGraph::Kind::kConst1 || sn.fanout > 1;
  }

  /// Matches pattern node `p` at subject node `s`, binding pins in the
  /// scratch array `bind_` and logging each new binding in `bound_`;
  /// pattern-internal nodes must be fanout-free in the subject (classic
  /// tree covering). A failed match may leave bindings behind: callers
  /// undo them with unbind_to().
  bool match(std::int32_t s, const Pattern& pat, std::int32_t p,
             bool is_root) {
    const Pattern::Node& pn = pat.nodes[static_cast<std::size_t>(p)];
    if (pn.kind == Pattern::Kind::kLeaf) {
      std::int32_t& slot = bind_[pn.pin];
      if (slot == -1) {
        slot = s;
        bound_.push_back(pn.pin);
        return true;
      }
      return slot == s;
    }
    const auto& sn = graph_.nodes[static_cast<std::size_t>(s)];
    if (!is_root && is_tree_leaf(s)) return false;
    if (pn.kind == Pattern::Kind::kInv) {
      if (sn.kind != SubjectGraph::Kind::kInv) return false;
      return match(sn.a, pat, pn.a, false);
    }
    if (sn.kind != SubjectGraph::Kind::kNand) return false;
    // Try both operand orders, undoing the bindings of a failed one.
    const std::size_t mark = bound_.size();
    if (match(sn.a, pat, pn.a, false) && match(sn.b, pat, pn.b, false)) {
      return true;
    }
    unbind_to(mark);
    if (match(sn.b, pat, pn.a, false) && match(sn.a, pat, pn.b, false)) {
      return true;
    }
    unbind_to(mark);
    return false;
  }

  /// Undoes the pin bindings logged after the first `mark`.
  void unbind_to(std::size_t mark) {
    while (bound_.size() > mark) {
      bind_[bound_.back()] = -1;
      bound_.pop_back();
    }
  }

  void cover(std::int32_t s) {
    const auto& sn = graph_.nodes[static_cast<std::size_t>(s)];
    if (sn.kind == SubjectGraph::Kind::kInput ||
        sn.kind == SubjectGraph::Kind::kConst0 ||
        sn.kind == SubjectGraph::Kind::kConst1) {
      cost_[static_cast<std::size_t>(s)] = 0.0;
      arrival_[static_cast<std::size_t>(s)] = 0.0;
      return;
    }
    double best = std::numeric_limits<double>::infinity();
    double best_arrival = 0.0;
    for (const Pattern& pat : patterns_) {
      if (match(s, pat, pat.root, true)) consider(s, pat, best, best_arrival);
      unbind_to(0);
    }
    if (!std::isfinite(best)) {
      throw std::runtime_error("unmappable subject node (library too small)");
    }
    cost_[static_cast<std::size_t>(s)] = best;
    arrival_[static_cast<std::size_t>(s)] = best_arrival;
  }

  /// Costs the match of `pat` at `s` bound in `bind_` and keeps it as the
  /// best cover of `s` when it beats `best`/`best_arrival`.
  void consider(std::int32_t s, const Pattern& pat, double& best,
                double& best_arrival) {
    double c = pat.gate->area;
    double arr = 0.0;
    for (std::uint32_t pin = 0; pin < pat.num_pins; ++pin) {
      const std::int32_t leaf = bind_[pin];
      if (leaf == -1) return;  // unused pin: cannot instantiate
      if (!is_tree_leaf(leaf)) c += cost_[static_cast<std::size_t>(leaf)];
      arr = std::max(arr, arrival_[static_cast<std::size_t>(leaf)]);
    }
    arr += pat.gate->delay;
    const bool better =
        objective_ == MapObjective::kArea
            ? (c < best || (c == best && arr < best_arrival))
            : (best_gate_[static_cast<std::size_t>(s)] == nullptr ||
               arr < best_arrival || (arr == best_arrival && c < best));
    if (!better) return;
    best = c;
    best_arrival = arr;
    best_gate_[static_cast<std::size_t>(s)] = &pat;
    std::copy_n(bind_.begin(), pat.num_pins, leaves_of(s));
  }

  /// The leaves of the best cover of `s`, one per pin of its pattern.
  std::vector<std::int32_t>::iterator leaves_of(std::int32_t s) {
    return best_leaves_.begin() +
           static_cast<std::ptrdiff_t>(static_cast<std::size_t>(s) *
                                       max_pins_);
  }

  MapResult emit() {
    MapResult result;
    Network& out = result.netlist;
    out.set_name(net_.name() + "_mapped");
    std::vector<NodeId> emitted(graph_.nodes.size(), net::kNoNode);
    std::vector<std::size_t> gate_count(lib_.gates.size(), 0);
    const auto add = [&](const std::string& name, std::vector<NodeId> fanins,
                         sop::Sop func, const Gate* gate) {
      const NodeId id = out.add_node(name, std::move(fanins), std::move(func));
      assert(id == result.instance_gate.size());
      result.instance_gate.push_back(gate);
      return id;
    };

    for (const NodeId pi : net_.inputs()) {
      const std::int32_t s = graph_.of_network[pi];
      emitted[static_cast<std::size_t>(s)] =
          out.add_input(net_.node(pi).name);
      result.instance_gate.push_back(nullptr);
    }

    // Explicit post-order over the chosen cover: a node is built after its
    // leaves, which are visited in pin order -- the node order (and so
    // every fresh instance name) of the plain recursive walk.
    std::vector<std::pair<std::int32_t, std::uint32_t>> stack;
    const auto build = [&](std::int32_t root) {
      if (emitted[static_cast<std::size_t>(root)] != net::kNoNode) return;
      stack.emplace_back(root, 0);
      while (!stack.empty()) {
        auto& [s, next] = stack.back();
        const auto& sn = graph_.nodes[static_cast<std::size_t>(s)];
        NodeId& memo = emitted[static_cast<std::size_t>(s)];
        if (sn.kind == SubjectGraph::Kind::kConst0 ||
            sn.kind == SubjectGraph::Kind::kConst1) {
          memo = add(out.fresh_name("k"), {},
                     sop::Sop::constant(
                         0, sn.kind == SubjectGraph::Kind::kConst1),
                     nullptr);
          stack.pop_back();
          continue;
        }
        const Pattern* pat = best_gate_[static_cast<std::size_t>(s)];
        assert(pat != nullptr);
        const auto leaves = leaves_of(s);
        if (next < pat->num_pins) {
          const std::int32_t leaf = leaves[next++];
          if (emitted[static_cast<std::size_t>(leaf)] == net::kNoNode) {
            stack.emplace_back(leaf, 0);  // invalidates `s` and `next`
          }
          continue;
        }
        std::vector<NodeId> fanins(pat->num_pins);
        for (std::uint32_t pin = 0; pin < pat->num_pins; ++pin) {
          fanins[pin] = emitted[static_cast<std::size_t>(leaves[pin])];
        }
        memo = add(out.fresh_name(pat->instance_prefix), std::move(fanins),
                   pat->gate->function(), pat->gate);
        result.area += pat->gate->area;
        ++gate_count[pat->gate_index];
        stack.pop_back();
      }
    };

    for (std::size_t o = 0; o < net_.outputs().size(); ++o) {
      const std::int32_t s = graph_.po_nodes[o];
      if (s < 0) continue;
      build(s);
      out.set_output(net_.outputs()[o].first,
                     emitted[static_cast<std::size_t>(s)]);
      result.delay = std::max(result.delay,
                              arrival_[static_cast<std::size_t>(s)]);
    }
    for (std::size_t gi = 0; gi < gate_count.size(); ++gi) {
      if (gate_count[gi] == 0) continue;
      result.num_gates += gate_count[gi];
      result.gate_histogram.emplace(lib_.gates[gi].name, gate_count[gi]);
    }
    return result;
  }

  const Network& net_;
  const Library& lib_;
  MapObjective objective_;
  std::vector<Pattern> patterns_;
  std::uint32_t max_pins_ = 0;  ///< widest pattern: the stride of best_leaves_
  SubjectGraph graph_;
  /// Matching scratch: the subject node bound to each pin (-1 = unbound),
  /// and the pins bound so far, in binding order (the undo log).
  std::vector<std::int32_t> bind_;
  std::vector<std::uint32_t> bound_;
  std::vector<const Pattern*> best_gate_;
  /// Leaves of each node's best cover, max_pins_ slots per subject node.
  std::vector<std::int32_t> best_leaves_;
  std::vector<double> cost_;
  std::vector<double> arrival_;
};

}  // namespace

MapResult map_network(const Network& net, const Library& lib,
                      MapObjective objective) {
  return Mapper(net, lib, objective).run(nullptr, nullptr);
}

MapResult map_in_place(Network& net, const Library& lib,
                       MapObjective objective,
                       util::TelemetryRecorder* telemetry) {
  return Mapper(net, lib, objective).run(telemetry, &net);
}

void write_gate_blif(std::ostream& os, const Network& net,
                     const InstanceTable& instance_gate) {
  if (instance_gate.size() != net.raw_size()) {
    throw std::invalid_argument(
        "write_gate_blif: the instance table has " +
        std::to_string(instance_gate.size()) + " entries for " +
        std::to_string(net.raw_size()) + " netlist nodes");
  }
  os << ".model " << net.name() << '\n';
  os << ".inputs";
  for (const NodeId id : net.inputs()) os << ' ' << net.node(id).name;
  os << '\n';
  os << ".outputs";
  for (const auto& [name, driver] : net.outputs()) os << ' ' << name;
  os << '\n';
  for (const NodeId id : net.topo_order()) {
    const net::Node& n = net.node(id);
    const Gate* g = instance_gate[id];
    if (g == nullptr) {
      // Constant node: plain .names form.
      os << ".names " << n.name << '\n';
      if (!n.func.is_constant_zero()) os << "1\n";
      continue;
    }
    os << ".gate " << g->name;
    for (std::size_t i = 0; i < g->pins.size(); ++i) {
      os << ' ' << g->pins[i] << '=' << net.node(n.fanins[i]).name;
    }
    os << ' ' << g->output << '=' << n.name << '\n';
  }
  for (const auto& [name, driver] : net.outputs()) {
    if (driver != net::kNoNode && net.node(driver).name != name) {
      os << ".names " << net.node(driver).name << ' ' << name << "\n1 1\n";
    }
  }
  os << ".end\n";
}

}  // namespace bds::map
