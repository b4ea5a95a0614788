// Sweep: the initial redundancy-removal pass of the BDS flow (Section IV-A).
// Removes constant and single-variable (buffer/inverter) nodes by
// propagating them into their fanouts, and merges functionally duplicate
// nodes. The paper notes this step "significantly improves runtime
// complexity of BDS over traditional approaches".
#include <algorithm>
#include <map>
#include <string>

#include "net/network.hpp"

namespace bds::net {

namespace {

using sop::Cube;
using sop::Literal;
using sop::Sop;

Literal meet_literal(Literal a, Literal b) {
  return static_cast<Literal>(static_cast<std::uint8_t>(a) &
                              static_cast<std::uint8_t>(b));
}

Literal flip_literal(Literal l) {
  switch (l) {
    case Literal::kPos:
      return Literal::kNeg;
    case Literal::kNeg:
      return Literal::kPos;
    default:
      return l;
  }
}

/// Replaces fanin position `pos` of `id` with `replacement` (optionally
/// complemented), merging columns if the replacement is already a fanin.
void substitute_fanin(Network& net, NodeId id, std::size_t pos,
                      NodeId replacement, bool complemented) {
  const Node& n = net.node(id);
  std::vector<NodeId> new_fanins;
  std::vector<std::size_t> old2new(n.fanins.size());
  for (std::size_t i = 0; i < n.fanins.size(); ++i) {
    const NodeId target = i == pos ? replacement : n.fanins[i];
    const auto it = std::find(new_fanins.begin(), new_fanins.end(), target);
    if (it == new_fanins.end()) {
      old2new[i] = new_fanins.size();
      new_fanins.push_back(target);
    } else {
      old2new[i] = static_cast<std::size_t>(it - new_fanins.begin());
    }
  }
  const unsigned width = static_cast<unsigned>(new_fanins.size());
  Sop func(width);
  for (const Cube& c : n.func.cubes()) {
    Cube nc(width);
    for (std::size_t i = 0; i < n.fanins.size(); ++i) {
      Literal l = c.get(static_cast<unsigned>(i));
      if (i == pos && complemented) l = flip_literal(l);
      const unsigned tgt = static_cast<unsigned>(old2new[i]);
      nc.set(tgt, meet_literal(nc.get(tgt), l));
    }
    func.add_cube(nc);  // add_cube drops empty cubes
  }
  func.minimize_scc();
  net.rewrite_node(id, std::move(new_fanins), std::move(func));
}

/// Fixes fanin position `pos` of `id` to a constant value.
void substitute_constant(Network& net, NodeId id, std::size_t pos,
                         bool value) {
  const Node& n = net.node(id);
  std::vector<NodeId> new_fanins;
  for (std::size_t i = 0; i < n.fanins.size(); ++i) {
    if (i != pos) new_fanins.push_back(n.fanins[i]);
  }
  const unsigned width = static_cast<unsigned>(new_fanins.size());
  const Literal blocking = value ? Literal::kNeg : Literal::kPos;
  Sop func(width);
  for (const Cube& c : n.func.cubes()) {
    if (c.get(static_cast<unsigned>(pos)) == blocking) continue;
    Cube nc(width);
    unsigned j = 0;
    for (std::size_t i = 0; i < n.fanins.size(); ++i) {
      if (i == pos) continue;
      nc.set(j++, c.get(static_cast<unsigned>(i)));
    }
    func.add_cube(nc);
  }
  func.minimize_scc();
  net.rewrite_node(id, std::move(new_fanins), std::move(func));
}

/// Classifies trivial local functions.
enum class Triviality { kNone, kConst0, kConst1, kBuffer, kInverter };

/// A trivial function and, for a buffer or inverter, the fanin position of
/// its one literal (not necessarily 0: `-0` on two fanins is !fanins[1]).
struct Trivial {
  Triviality kind = Triviality::kNone;
  std::size_t pos = 0;
};

Trivial classify(const Node& n) {
  if (n.kind != NodeKind::kLogic) return {};
  if (n.func.is_constant_zero()) return {Triviality::kConst0};
  if (n.func.has_full_cube()) return {Triviality::kConst1};
  if (n.func.cube_count() == 1 && n.func.cubes()[0].literal_count() == 1) {
    const Cube& c = n.func.cubes()[0];
    const unsigned v = c.literal_vars()[0];
    return {c.get(v) == Literal::kPos ? Triviality::kBuffer
                                      : Triviality::kInverter,
            v};
  }
  return {};
}

/// Canonical key for duplicate detection: fanins sorted by id with the SOP
/// permuted accordingly and cubes sorted.
std::string canonical_key(const Node& n) {
  std::vector<std::size_t> perm(n.fanins.size());
  for (std::size_t i = 0; i < perm.size(); ++i) perm[i] = i;
  std::sort(perm.begin(), perm.end(), [&](std::size_t a, std::size_t b) {
    return n.fanins[a] < n.fanins[b];
  });
  std::string key;
  for (const std::size_t p : perm) {
    key += std::to_string(n.fanins[p]);
    key += ',';
  }
  key += '|';
  std::vector<std::string> cubes;
  for (const Cube& c : n.func.cubes()) {
    std::string s(n.fanins.size(), '-');
    for (std::size_t i = 0; i < perm.size(); ++i) {
      switch (c.get(static_cast<unsigned>(perm[i]))) {
        case Literal::kPos:
          s[i] = '1';
          break;
        case Literal::kNeg:
          s[i] = '0';
          break;
        default:
          break;
      }
    }
    cubes.push_back(std::move(s));
  }
  std::sort(cubes.begin(), cubes.end());
  for (const std::string& s : cubes) {
    key += s;
    key += ';';
  }
  return key;
}

}  // namespace

SweepStats sweep(Network& net) {
  SweepStats stats;
  bool changed = true;
  while (changed) {
    changed = false;
    const auto order = net.topo_order();
    auto fanouts = net.fanout_lists(order);

    // Which nodes drive primary outputs (those must keep a live driver).
    std::vector<bool> drives_po(net.raw_size(), false);
    for (const auto& [name, driver] : net.outputs()) {
      if (driver != kNoNode) drives_po[driver] = true;
    }

    for (const NodeId id : order) {
      net.node(id).func.minimize_scc();
      const auto [t, lit_pos] = classify(net.node(id));
      if (t == Triviality::kNone) continue;
      if (fanouts[id].empty() && drives_po[id]) continue;  // keep PO drivers

      for (const NodeId consumer : fanouts[id]) {
        // A consumer may reference the node several times after rewrites;
        // substitute until it no longer appears.
        for (;;) {
          const auto& fi = net.node(consumer).fanins;
          const auto it = std::find(fi.begin(), fi.end(), id);
          if (it == fi.end()) break;
          const std::size_t pos = static_cast<std::size_t>(it - fi.begin());
          switch (t) {
            case Triviality::kConst0:
              substitute_constant(net, consumer, pos, false);
              break;
            case Triviality::kConst1:
              substitute_constant(net, consumer, pos, true);
              break;
            case Triviality::kBuffer:
              substitute_fanin(net, consumer, pos,
                               net.node(id).fanins[lit_pos], false);
              break;
            case Triviality::kInverter:
              substitute_fanin(net, consumer, pos,
                               net.node(id).fanins[lit_pos], true);
              break;
            case Triviality::kNone:
              break;
          }
        }
        changed = true;
      }
      if (!fanouts[id].empty()) {
        if (t == Triviality::kConst0 || t == Triviality::kConst1) {
          ++stats.constants_propagated;
        } else {
          ++stats.trivial_collapsed;
        }
      }
    }
    if (changed) continue;  // re-derive fanouts before duplicate merging

    // Functionally-duplicate removal on canonical local functions. The
    // loop above rewrote no fanin, so `order` and `fanouts` still describe
    // the network. Fanout lists are maintained incrementally: in
    // topological order, a node's fanins are already canonical when it is
    // examined.
    std::map<std::string, NodeId> seen;
    for (const NodeId id : order) {
      const std::string key = canonical_key(net.node(id));
      const auto [it, inserted] = seen.emplace(key, id);
      if (inserted) continue;
      const NodeId rep = it->second;
      // Redirect all consumers of `id` to `rep`.
      for (const NodeId consumer : fanouts[id]) {
        for (;;) {
          const auto& fi = net.node(consumer).fanins;
          const auto pos_it = std::find(fi.begin(), fi.end(), id);
          if (pos_it == fi.end()) break;
          substitute_fanin(net, consumer,
                           static_cast<std::size_t>(pos_it - fi.begin()), rep,
                           false);
        }
        fanouts[rep].push_back(consumer);
      }
      fanouts[id].clear();
      for (std::size_t o = 0; o < net.outputs().size(); ++o) {
        if (net.outputs()[o].second == id) net.retarget_output(o, rep);
      }
      ++stats.duplicates_merged;
      changed = true;
    }
  }

  const std::size_t before = net.raw_size();
  net.compact();
  stats.dead_removed = before - net.raw_size();
  return stats;
}

}  // namespace bds::net
