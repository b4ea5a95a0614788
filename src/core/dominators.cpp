#include "core/dominators.hpp"

#include <algorithm>
#include <cassert>
#include <functional>

namespace bds::core {

using bdd::Edge;
using bdd::Manager;

PathCount sat_add(PathCount a, PathCount b) {
  const PathCount s = a + b;
  return s < a ? kPathSaturated : s;
}

PathCount sat_mul(PathCount a, PathCount b) {
  if (a == 0 || b == 0) return 0;
  if (a > kPathSaturated / b) return kPathSaturated;
  return a * b;
}

BddStructure::BddStructure(Manager& mgr, Edge root)
    : mgr_(&mgr), root_(root) {
  if (root.is_constant()) {
    Counts c;
    c.to = 1;
    (root.is_one() ? c.to_one : c.to_zero) = 1;
    counts_.emplace(root, c);
    return;
  }
  // Collect reachable expanded nodes.
  std::vector<Edge> stack{root};
  counts_.emplace(root, Counts{});
  while (!stack.empty()) {
    const Edge e = stack.back();
    stack.pop_back();
    nodes_.push_back(e);
    for (const Edge child : {mgr.hi_of(e), mgr.lo_of(e)}) {
      if (child.is_constant()) continue;
      if (counts_.emplace(child, Counts{}).second) stack.push_back(child);
    }
  }
  // Topological = ascending level (children are strictly below parents).
  std::sort(nodes_.begin(), nodes_.end(), [&](Edge a, Edge b) {
    return mgr.edge_level(a) < mgr.edge_level(b);
  });
  for (const Edge e : nodes_) {
    const std::uint32_t l = mgr.edge_level(e);
    if (levels_.empty() || levels_.back() != l) levels_.push_back(l);
  }

  // Forward pass: paths from the root.
  counts_[root].to = 1;
  Counts terminal_in;  // accumulated terminal hits
  for (const Edge e : nodes_) {
    const PathCount to = counts_[e].to;
    for (const Edge child : {mgr.hi_of(e), mgr.lo_of(e)}) {
      if (child.is_one()) {
        terminal_in.to_one = sat_add(terminal_in.to_one, to);
      } else if (child.is_zero()) {
        terminal_in.to_zero = sat_add(terminal_in.to_zero, to);
      } else {
        Counts& c = counts_[child];
        c.to = sat_add(c.to, to);
      }
    }
  }
  // Backward pass: paths to each terminal.
  for (auto it = nodes_.rbegin(); it != nodes_.rend(); ++it) {
    Counts& c = counts_[*it];
    for (const Edge child : {mgr.hi_of(*it), mgr.lo_of(*it)}) {
      if (child.is_one()) {
        c.to_one = sat_add(c.to_one, 1);
      } else if (child.is_zero()) {
        c.to_zero = sat_add(c.to_zero, 1);
      } else {
        const Counts& cc = counts_.at(child);
        c.to_one = sat_add(c.to_one, cc.to_one);
        c.to_zero = sat_add(c.to_zero, cc.to_zero);
      }
    }
  }
  for (const auto& [e, c] : counts_) {
    if (c.to == kPathSaturated || c.to_one == kPathSaturated ||
        c.to_zero == kPathSaturated) {
      saturated_ = true;
      break;
    }
  }
}

PathCount BddStructure::paths_to(Edge e) const {
  const auto it = counts_.find(e);
  return it == counts_.end() ? 0 : it->second.to;
}
PathCount BddStructure::paths_to_one(Edge e) const {
  const auto it = counts_.find(e);
  return it == counts_.end() ? 0 : it->second.to_one;
}
PathCount BddStructure::paths_to_zero(Edge e) const {
  const auto it = counts_.find(e);
  return it == counts_.end() ? 0 : it->second.to_zero;
}

SimpleDominators find_simple_dominators(const BddStructure& s) {
  SimpleDominators result;
  if (s.root().is_constant()) return result;
  const PathCount total1 = s.total_one_paths();
  const PathCount total0 = s.total_zero_paths();
  const PathCount total = sat_add(total1, total0);

  // Nodes are scanned top-down; the first (topmost) hit wins, which gives
  // the largest divisor and leaves the rest of the chain to the recursion.
  for (const Edge e : s.nodes()) {
    if (e == s.root()) continue;
    const PathCount through1 = sat_mul(s.paths_to(e), s.paths_to_one(e));
    const PathCount through0 = sat_mul(s.paths_to(e), s.paths_to_zero(e));
    if (!result.one_dominator && total1 > 0 && through1 == total1) {
      result.one_dominator = e;
    }
    if (!result.zero_dominator && total0 > 0 && through0 == total0) {
      result.zero_dominator = e;
    }
    if (result.one_dominator && result.zero_dominator) break;
  }

  // x-dominator: a physical node whose two phases jointly absorb all paths,
  // with both phases actually present (otherwise a complement edge could
  // not exist above it, cf. Definition 9).
  for (const Edge e : s.nodes()) {
    const Edge pos = e.regular();
    if (e.complemented()) continue;  // visit each physical node once
    if (pos == s.root().regular()) continue;
    const PathCount to_pos = s.paths_to(pos);
    const PathCount to_neg = s.paths_to(!pos);
    if (to_pos == 0 || to_neg == 0) continue;
    const PathCount from_pos =
        sat_add(s.paths_to_one(pos), s.paths_to_zero(pos));
    const PathCount through =
        sat_add(sat_mul(to_pos, from_pos), sat_mul(to_neg, from_pos));
    if (through == total) {
      result.x_dominator = pos;
      break;
    }
  }
  return result;
}

Edge redirect(Manager& mgr, Edge root,
              const std::vector<std::pair<Edge, Edge>>& replacements) {
  std::unordered_map<Edge, Edge> memo;
  const std::function<Edge(Edge)> go = [&](Edge e) -> Edge {
    for (const auto& [from, to] : replacements) {
      if (e == from) {
        assert(to.is_constant());
        return to;
      }
    }
    if (e.is_constant()) return e;
    const auto it = memo.find(e);
    if (it != memo.end()) return it->second;
    const Edge result =
        mgr.mk(mgr.top_var(e), go(mgr.hi_of(e)), go(mgr.lo_of(e)));
    memo.emplace(e, result);
    return result;
  };
  return go(root);
}

Edge cut_divisor(Manager& mgr, Edge root, std::uint32_t cut_level,
                 Edge filler) {
  assert(filler.is_constant());
  std::unordered_map<Edge, Edge> memo;
  const std::function<Edge(Edge)> go = [&](Edge e) -> Edge {
    if (e.is_constant()) return e;  // leaf edges keep their terminals
    if (mgr.edge_level(e) >= cut_level) return filler;  // free edge
    const auto it = memo.find(e);
    if (it != memo.end()) return it->second;
    const Edge result =
        mgr.mk(mgr.top_var(e), go(mgr.hi_of(e)), go(mgr.lo_of(e)));
    memo.emplace(e, result);
    return result;
  };
  return go(root);
}

}  // namespace bds::core
