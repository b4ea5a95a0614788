// Eliminate / extract / resubstitute passes over Boolean networks.
#include <algorithm>
#include <cassert>
#include <map>
#include <unordered_map>

#include "sis/optimize.hpp"

#include "sis/espresso.hpp"

namespace bds::sis {

using net::Network;
using net::NodeId;
using sop::Cube;
using sop::Literal;
using sop::Sop;

void set_from_sparse(Network& net, NodeId id, const SparseSop& f) {
  const std::vector<std::uint32_t> signals = f.support();
  std::vector<NodeId> fanins(signals.begin(), signals.end());
  std::unordered_map<std::uint32_t, unsigned> pos;
  for (unsigned i = 0; i < signals.size(); ++i) pos.emplace(signals[i], i);
  Sop dense(static_cast<unsigned>(fanins.size()));
  for (const SparseCube& sc : f.cubes) {
    Cube c(static_cast<unsigned>(fanins.size()));
    for (const Lit l : sc) {
      c.set(pos.at(lit_signal(l)),
            lit_negated(l) ? Literal::kNeg : Literal::kPos);
    }
    dense.add_cube(c);
  }
  dense.minimize_scc();
  net.rewrite_node(id, std::move(fanins), std::move(dense));
}

namespace {

/// Rounds of `eliminate_literals`.
constexpr unsigned kEliminatePasses = 4;
/// Never let a substituted cover exceed this many cubes.
constexpr std::size_t kMaxNodeCubes = 5000;
/// Rounds of `extract_divisors` (each may introduce many divisors).
constexpr unsigned kExtractPasses = 12;

/// A node's cover over the network-wide signal space.
SparseSop sparse_cover(const Network& net, NodeId id) {
  const net::Node& n = net.node(id);
  return to_sparse(n.func, n.fanins);
}

/// Substitutes node `src`'s cover (and its complement where needed) into a
/// sparse cover that references it as a literal. Returns false if the
/// result would exceed the cube cap.
bool substitute_signal(SparseSop& f, std::uint32_t src,
                       const SparseSop& src_on, const SparseSop& src_off,
                       std::size_t max_cubes) {
  SparseSop out;
  SparseCube tmp;
  for (const SparseCube& c : f.cubes) {
    const Lit pos = lit(src, false);
    const Lit neg = lit(src, true);
    const bool has_pos = std::binary_search(c.begin(), c.end(), pos);
    const bool has_neg = std::binary_search(c.begin(), c.end(), neg);
    if (!has_pos && !has_neg) {
      out.cubes.push_back(c);
    } else {
      SparseCube base = c;
      base.erase(std::remove_if(base.begin(), base.end(),
                                [&](Lit l) { return l == pos || l == neg; }),
                 base.end());
      const SparseSop& expansion = has_pos ? src_on : src_off;
      for (const SparseCube& e : expansion.cubes) {
        if (cube_product(base, e, tmp)) out.cubes.push_back(tmp);
      }
    }
    if (out.cubes.size() > max_cubes) return false;
  }
  out.normalize();
  f = std::move(out);
  return true;
}

}  // namespace

std::size_t eliminate_literals(Network& net, int threshold) {
  std::size_t collapsed = 0;
  std::vector<bool> is_po(net.raw_size(), false);
  for (const auto& [name, driver] : net.outputs()) {
    if (driver != net::kNoNode) is_po[driver] = true;
  }

  for (unsigned pass = 0; pass < kEliminatePasses; ++pass) {
    bool changed = false;
    // Superset fanout lists, maintained as substitutions add fanin edges;
    // actual consumers are re-derived from current fanins below.
    const auto order = net.topo_order();
    auto fanouts = net.fanout_lists(order);
    for (const NodeId id : order) {
      if (is_po[id] || fanouts[id].empty()) continue;
      // Recompute current consumers (fanout list may be stale after
      // earlier substitutions in this pass).
      std::vector<NodeId> consumers;
      for (const NodeId m : fanouts[id]) {
        const auto& fi = net.node(m).fanins;
        if (std::find(fi.begin(), fi.end(), id) != fi.end()) {
          consumers.push_back(m);
        }
      }
      if (consumers.empty()) continue;

      const SparseSop on = sparse_cover(net, id);
      const unsigned own_lits = net.node(id).func.literal_count();
      // Complement needed only when a consumer uses the negative literal.
      bool need_off = false;
      for (const NodeId m : consumers) {
        const SparseSop fm = sparse_cover(net, m);
        for (const SparseCube& c : fm.cubes) {
          if (std::binary_search(c.begin(), c.end(), lit(id, true))) {
            need_off = true;
            break;
          }
        }
      }
      SparseSop off;
      if (need_off) {
        // Complement on the node's dense local cover, then translate.
        off = to_sparse(net.node(id).func.complement(), net.node(id).fanins);
      }

      // Tentatively substitute into every consumer and measure literals.
      long long delta = -static_cast<long long>(own_lits);
      std::vector<std::pair<NodeId, SparseSop>> replacement;
      bool feasible = true;
      for (const NodeId m : consumers) {
        SparseSop fm = sparse_cover(net, m);
        const std::size_t before = fm.literal_count();
        if (!substitute_signal(fm, id, on, off, kMaxNodeCubes)) {
          feasible = false;
          break;
        }
        delta += static_cast<long long>(fm.literal_count()) -
                 static_cast<long long>(before);
        replacement.emplace_back(m, std::move(fm));
      }
      if (!feasible || delta > threshold) continue;

      for (auto& [m, fm] : replacement) {
        set_from_sparse(net, m, fm);
        for (const NodeId s : net.node(m).fanins) {
          if (std::find(fanouts[s].begin(), fanouts[s].end(), m) ==
              fanouts[s].end()) {
            fanouts[s].push_back(m);
          }
        }
      }
      net.kill_node(id);
      ++collapsed;
      changed = true;
    }
    net.compact();
    if (!changed) break;
    is_po.assign(net.raw_size(), false);
    for (const auto& [name, driver] : net.outputs()) {
      if (driver != net::kNoNode) is_po[driver] = true;
    }
  }
  return collapsed;
}

std::size_t extract_divisors(Network& net) {
  std::size_t created = 0;
  for (unsigned pass = 0; pass < kExtractPasses; ++pass) {
    struct Candidate {
      SparseSop divisor;
      std::vector<NodeId> users;
      long long value = 0;
    };
    std::map<std::string, Candidate> candidates;

    const auto order = net.topo_order();
    for (const NodeId id : order) {
      const SparseSop f = sparse_cover(net, id);
      if (f.cubes.size() < 2) continue;
      // Kernel divisors.
      for (KernelPair& kp : all_kernels(f)) {
        if (kp.kernel.cubes.size() < 2) continue;
        Candidate& c = candidates[kp.kernel.key()];
        if (c.divisor.cubes.empty()) c.divisor = kp.kernel;
        c.users.push_back(id);
      }
      // Single-cube divisors: pairwise common cubes within the node, plus
      // each multi-literal cube itself (shared cubes across nodes).
      const std::size_t limit = std::min<std::size_t>(f.cubes.size(), 24);
      for (std::size_t i = 0; i < limit; ++i) {
        if (f.cubes[i].size() >= 2) {
          SparseSop d;
          d.cubes.push_back(f.cubes[i]);
          Candidate& c = candidates[d.key()];
          if (c.divisor.cubes.empty()) c.divisor = d;
          c.users.push_back(id);
        }
        for (std::size_t j = i + 1; j < limit; ++j) {
          SparseCube cc = cube_intersect(f.cubes[i], f.cubes[j]);
          if (cc.size() < 2) continue;
          SparseSop d;
          d.cubes.push_back(std::move(cc));
          Candidate& c = candidates[d.key()];
          if (c.divisor.cubes.empty()) c.divisor = d;
          c.users.push_back(id);
        }
      }
    }

    // Value estimate, then greedy application with revalidation.
    std::vector<Candidate*> ranked;
    for (auto& [key, c] : candidates) {
      std::sort(c.users.begin(), c.users.end());
      c.users.erase(std::unique(c.users.begin(), c.users.end()),
                    c.users.end());
      // A divisor pays off through repeated use -- across nodes, or
      // several times inside one; the value accounting decides.
      long long value =
          -static_cast<long long>(c.divisor.literal_count());
      for (const NodeId u : c.users) {
        const SparseSop f = sparse_cover(net, u);
        const auto [q, r] = divide(f, c.divisor);
        if (q.is_zero()) continue;
        value += static_cast<long long>(f.literal_count()) -
                 static_cast<long long>(q.literal_count() + q.cubes.size() +
                                        r.literal_count());
      }
      c.value = value;
      if (value > 0) ranked.push_back(&c);
    }
    std::sort(ranked.begin(), ranked.end(),
              [](const Candidate* a, const Candidate* b) {
                return a->value > b->value;
              });

    std::size_t created_this_pass = 0;
    for (Candidate* c : ranked) {
      // Revalidate per user (earlier extractions may have changed them).
      std::vector<std::pair<NodeId, SparseSop>> rewrites;
      long long value = -static_cast<long long>(c->divisor.literal_count());
      for (const NodeId u : c->users) {
        const SparseSop f = sparse_cover(net, u);
        const auto [q, r] = divide(f, c->divisor);
        if (q.is_zero()) continue;
        const long long saving =
            static_cast<long long>(f.literal_count()) -
            static_cast<long long>(q.literal_count() + q.cubes.size() +
                                   r.literal_count());
        if (saving <= 0) continue;
        value += saving;
        rewrites.emplace_back(u, SparseSop{});
      }
      if (value <= 0 || rewrites.empty()) continue;

      const NodeId nd = net.add_node(net.fresh_name("d"), {}, Sop(0));
      set_from_sparse(net, nd, c->divisor);
      for (auto& [u, unused] : rewrites) {
        const SparseSop f = sparse_cover(net, u);
        const auto [q, r] = divide(f, c->divisor);
        SparseSop rebuilt = r;
        SparseCube tmp;
        for (const SparseCube& qc : q.cubes) {
          if (cube_product(qc, {lit(nd, false)}, tmp)) {
            rebuilt.cubes.push_back(tmp);
          }
        }
        rebuilt.normalize();
        set_from_sparse(net, u, rebuilt);
      }
      ++created;
      ++created_this_pass;
    }
    if (created_this_pass == 0) break;
  }
  net.compact();
  return created;
}

namespace {

/// True if `maybe_ancestor` is in the transitive fanin cone of `id`.
bool depends_on(const Network& net, NodeId id, NodeId maybe_ancestor) {
  std::vector<NodeId> stack{id};
  std::vector<bool> seen(net.raw_size(), false);
  while (!stack.empty()) {
    const NodeId cur = stack.back();
    stack.pop_back();
    if (cur == maybe_ancestor) return true;
    if (seen[cur]) continue;
    seen[cur] = true;
    for (const NodeId fi : net.node(cur).fanins) stack.push_back(fi);
  }
  return false;
}

}  // namespace

std::size_t resubstitute(Network& net) {
  std::size_t substituted = 0;
  const auto order = net.topo_order();

  // signal -> nodes whose support contains it (divisor candidates).
  std::unordered_map<std::uint32_t, std::vector<NodeId>> by_signal;
  for (const NodeId id : order) {
    for (const NodeId fi : net.node(id).fanins) {
      by_signal[fi].push_back(id);
    }
  }

  for (const NodeId f_id : order) {
    const SparseSop f = sparse_cover(net, f_id);
    if (f.cubes.size() < 2) continue;
    const auto f_support = f.support();
    if (f_support.empty()) continue;
    // Candidate divisors: nodes sharing f's first support signal, defined
    // earlier in topological order, with support contained in f's.
    const auto it = by_signal.find(f_support.front());
    if (it == by_signal.end()) continue;
    for (const NodeId g_id : it->second) {
      if (g_id == f_id || net.node(g_id).kind != net::NodeKind::kLogic) {
        continue;
      }
      const SparseSop g = sparse_cover(net, g_id);
      if (g.cubes.size() < 2) continue;
      const auto g_support = g.support();
      if (!std::includes(f_support.begin(), f_support.end(),
                         g_support.begin(), g_support.end())) {
        continue;
      }
      const auto [q, r] = divide(f, g);
      if (q.is_zero()) continue;
      const long long saving =
          static_cast<long long>(f.literal_count()) -
          static_cast<long long>(q.literal_count() + q.cubes.size() +
                                 r.literal_count());
      if (saving <= 0) continue;
      // Acyclicity: g must not depend on f.
      if (depends_on(net, g_id, f_id)) continue;
      SparseSop rebuilt = r;
      SparseCube tmp;
      for (const SparseCube& qc : q.cubes) {
        if (cube_product(qc, {lit(g_id, false)}, tmp)) {
          rebuilt.cubes.push_back(tmp);
        }
      }
      rebuilt.normalize();
      set_from_sparse(net, f_id, rebuilt);
      ++substituted;
      break;  // one substitution per node per call
    }
  }
  return substituted;
}

void simplify_nodes(Network& net) {
  for (const NodeId id : net.topo_order()) {
    net.node(id).func.merge_adjacent();
    const Sop minimized =
        espresso_lite(net.node(id).func, Sop(net.node(id).func.num_vars()));
    if (minimized.literal_count() < net.node(id).func.literal_count()) {
      net.rewrite_node(id, net.node(id).fanins, minimized);
    }
  }
}

}  // namespace bds::sis
