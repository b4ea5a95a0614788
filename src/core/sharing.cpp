#include "core/sharing.hpp"

#include <unordered_map>
#include <vector>

namespace bds::core {

using bdd::Bdd;
using bdd::Edge;

namespace {

/// Children of a factoring node that sharing extraction must rewrite
/// first, in the left-to-right order the recursion used (a, b, c).
/// Returns the count written into `out`.
std::size_t rewrite_deps(const FactNode& n, FactId out[3]) {
  switch (n.kind) {
    case FactKind::kConst0:
    case FactKind::kConst1:
    case FactKind::kVar:
      return 0;
    case FactKind::kNot:
      out[0] = n.a;
      return 1;
    case FactKind::kMux:
      out[0] = n.a;
      out[1] = n.b;
      out[2] = n.c;
      return 3;
    default:
      out[0] = n.a;
      out[1] = n.b;
      return 2;
  }
}

}  // namespace

SharingStats extract_sharing(FactoringForest& forest,
                             std::vector<FactId>& roots, bdd::Manager& mgr) {
  SharingStats stats;
  // old id -> rewritten id
  std::unordered_map<FactId, FactId> rewritten;
  // canonical regular BDD edge -> (representative id, its phase vs regular)
  std::unordered_map<std::uint32_t, std::pair<FactId, bool>> canon;
  std::vector<Bdd> anchors;  // pin canon keys against GC
  // new id -> its BDD (computed bottom-up, reused across subtrees)
  std::unordered_map<FactId, Bdd> bdd_of;

  // Explicit-stack post-order (factoring trees reach BDD-chain depths; the
  // former std::function recursion overflowed the C stack there). A node is
  // visited twice: the first visit pushes its unrewritten children in
  // left-to-right processing order, the second -- once every child is in
  // `rewritten` -- performs the rewrite. Children are pushed in reverse so
  // they complete in the same order the recursion rewrote them, keeping the
  // forest's interning sequence (and therefore every FactId) identical.
  std::vector<FactId> stack;
  const auto rewrite = [&](FactId root) -> FactId {
    stack.clear();
    stack.push_back(root);
    while (!stack.empty()) {
      const FactId old = stack.back();
      if (rewritten.find(old) != rewritten.end()) {
        stack.pop_back();
        continue;
      }
      const FactNode n = forest.node(old);  // copy: forest may grow
      FactId deps[3];
      const std::size_t ndeps = rewrite_deps(n, deps);
      bool ready = true;
      for (std::size_t i = ndeps; i-- > 0;) {
        if (rewritten.find(deps[i]) == rewritten.end()) {
          stack.push_back(deps[i]);
          ready = false;
        }
      }
      if (!ready) continue;
      FactId fresh = kNoFact;
      Bdd f;
      switch (n.kind) {
        case FactKind::kConst0:
          fresh = forest.const0();
          f = mgr.zero();
          break;
        case FactKind::kConst1:
          fresh = forest.const1();
          f = mgr.one();
          break;
        case FactKind::kVar:
          fresh = old;
          f = mgr.var(n.var);
          break;
        case FactKind::kNot: {
          const FactId a = rewritten.at(n.a);
          fresh = forest.mk_not(a);
          f = !bdd_of.at(a);
          break;
        }
        case FactKind::kAnd: {
          const FactId a = rewritten.at(n.a);
          const FactId b = rewritten.at(n.b);
          fresh = forest.mk_and(a, b);
          f = bdd_of.at(a) & bdd_of.at(b);
          break;
        }
        case FactKind::kOr: {
          const FactId a = rewritten.at(n.a);
          const FactId b = rewritten.at(n.b);
          fresh = forest.mk_or(a, b);
          f = bdd_of.at(a) | bdd_of.at(b);
          break;
        }
        case FactKind::kXor: {
          const FactId a = rewritten.at(n.a);
          const FactId b = rewritten.at(n.b);
          fresh = forest.mk_xor(a, b);
          f = bdd_of.at(a) ^ bdd_of.at(b);
          break;
        }
        case FactKind::kXnor: {
          const FactId a = rewritten.at(n.a);
          const FactId b = rewritten.at(n.b);
          fresh = forest.mk_xnor(a, b);
          f = bdd_of.at(a).xnor(bdd_of.at(b));
          break;
        }
        case FactKind::kMux: {
          const FactId a = rewritten.at(n.a);
          const FactId b = rewritten.at(n.b);
          const FactId c = rewritten.at(n.c);
          fresh = forest.mk_mux(a, b, c);
          f = bdd_of.at(a).ite(bdd_of.at(b), bdd_of.at(c));
          break;
        }
      }
      // Canonical merge: any earlier subtree with the same function (or its
      // complement) replaces this one.
      const Edge key = f.edge().regular();
      const bool phase = f.edge().complemented();
      const auto canon_it = canon.find(key.bits());
      if (canon_it != canon.end()) {
        const auto [rep, rep_phase] = canon_it->second;
        if (rep != fresh) {
          if (rep_phase == phase) {
            ++stats.merged;
            fresh = rep;
          } else {
            ++stats.merged_negated;
            fresh = forest.mk_not(rep);
          }
        }
      } else {
        canon.emplace(key.bits(), std::make_pair(fresh, phase));
        anchors.push_back(f);
      }
      bdd_of.emplace(fresh, f);
      rewritten.emplace(old, fresh);
      stack.pop_back();
    }
    return rewritten.at(root);
  };

  for (FactId& r : roots) r = rewrite(r);
  return stats;
}

std::uint64_t canonical_function_hash(const bdd::Manager& mgr,
                                      bdd::Edge root,
                                      std::span<const bdd::Var> relabel) {
  std::uint64_t h = 14695981039346656037ULL;
  const auto feed = [&h](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (i * 8)) & 0xffu;
      h *= 1099511628211ULL;
    }
  };
  // Each node feeds (var, hi, lo) in the manager's post-order, with its
  // children expressed as their post-order numbers plus phase: a function
  // of the DAG's shape alone, not of where the manager allocated it.
  const std::uint32_t root_number = mgr.number_post_order(
      root, [&](std::uint32_t node, std::uint32_t hi, std::uint32_t lo) {
        const bdd::Var v = mgr.node_var(node);
        feed(relabel.empty() ? v : relabel[v]);
        feed((static_cast<std::uint64_t>(hi) << 1) |
             static_cast<std::uint64_t>(mgr.node_hi(node).complemented()));
        feed((static_cast<std::uint64_t>(lo) << 1) |
             static_cast<std::uint64_t>(mgr.node_lo(node).complemented()));
      });
  // The root's phase distinguishes f from !f (same regular DAG).
  feed((static_cast<std::uint64_t>(root_number) << 1) |
       static_cast<std::uint64_t>(root.complemented()));
  return h;
}

}  // namespace bds::core
