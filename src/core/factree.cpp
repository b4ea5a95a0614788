#include "core/factree.hpp"

#include <cassert>
#include <unordered_map>

namespace bds::core {

namespace {

/// Children of a node in left-to-right order; returns the count written
/// into `out`. Shared helper of the explicit-stack traversals below (the
/// trees reach BDD-chain depths, so no traversal here may recurse).
std::size_t children_of(const FactNode& n, FactId out[3]) {
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

FactoringForest::FactoringForest() {
  nodes_.push_back({FactKind::kConst0, 0, kNoFact, kNoFact, kNoFact});
  nodes_.push_back({FactKind::kConst1, 0, kNoFact, kNoFact, kNoFact});
  buckets_.assign(64, 0xffffffffu);
  next_.assign(nodes_.size(), 0xffffffffu);
}

std::size_t FactoringForest::hash_node(const FactNode& n) const {
  std::uint64_t h = static_cast<std::uint64_t>(n.kind);
  h = h * 0x9e3779b97f4a7c15ULL + n.var;
  h = h * 0x9e3779b97f4a7c15ULL + n.a;
  h = h * 0x9e3779b97f4a7c15ULL + n.b;
  h = h * 0x9e3779b97f4a7c15ULL + n.c;
  h ^= h >> 31;
  return static_cast<std::size_t>(h) & (buckets_.size() - 1);
}

void FactoringForest::rehash() {
  buckets_.assign(buckets_.size() * 2, 0xffffffffu);
  for (std::uint32_t i = 0; i < nodes_.size(); ++i) {
    const std::size_t b = hash_node(nodes_[i]);
    next_[i] = buckets_[b];
    buckets_[b] = i;
  }
}

FactId FactoringForest::intern(FactNode n) {
  const std::size_t b = hash_node(n);
  for (std::uint32_t i = buckets_[b]; i != 0xffffffffu; i = next_[i]) {
    const FactNode& m = nodes_[i];
    if (m.kind == n.kind && m.var == n.var && m.a == n.a && m.b == n.b &&
        m.c == n.c) {
      return i;
    }
  }
  const FactId id = static_cast<FactId>(nodes_.size());
  nodes_.push_back(n);
  next_.push_back(buckets_[b]);
  buckets_[b] = id;
  if (nodes_.size() > buckets_.size() * 2) rehash();
  return id;
}

FactId FactoringForest::mk_var(bdd::Var v) {
  return intern({FactKind::kVar, v, kNoFact, kNoFact, kNoFact});
}

FactId FactoringForest::mk_not(FactId a) {
  if (a == const0()) return const1();
  if (a == const1()) return const0();
  if (nodes_[a].kind == FactKind::kNot) return nodes_[a].a;
  return intern({FactKind::kNot, 0, a, kNoFact, kNoFact});
}

FactId FactoringForest::mk_and(FactId a, FactId b) {
  if (a > b) std::swap(a, b);  // commutative: canonical operand order
  if (a == const0()) return const0();
  if (a == const1()) return b;
  if (a == b) return a;
  if (nodes_[b].kind == FactKind::kNot && nodes_[b].a == a) return const0();
  if (nodes_[a].kind == FactKind::kNot && nodes_[a].a == b) return const0();
  return intern({FactKind::kAnd, 0, a, b, kNoFact});
}

FactId FactoringForest::mk_or(FactId a, FactId b) {
  if (a > b) std::swap(a, b);
  if (a == const0()) return b;
  if (a == const1()) return const1();
  if (a == b) return a;
  if (nodes_[b].kind == FactKind::kNot && nodes_[b].a == a) return const1();
  if (nodes_[a].kind == FactKind::kNot && nodes_[a].a == b) return const1();
  return intern({FactKind::kOr, 0, a, b, kNoFact});
}

FactId FactoringForest::mk_xor(FactId a, FactId b) {
  if (a > b) std::swap(a, b);
  if (a == const0()) return b;
  if (a == const1()) return mk_not(b);
  if (a == b) return const0();
  // Push complements out: !a ^ b == !(a ^ b).
  bool invert = false;
  if (nodes_[a].kind == FactKind::kNot) {
    a = nodes_[a].a;
    invert = !invert;
  }
  if (nodes_[b].kind == FactKind::kNot) {
    b = nodes_[b].a;
    invert = !invert;
  }
  if (a > b) std::swap(a, b);
  if (a == b) return invert ? const1() : const0();
  const FactId x = intern({FactKind::kXor, 0, a, b, kNoFact});
  return invert ? intern({FactKind::kXnor, 0, a, b, kNoFact}) : x;
}

FactId FactoringForest::mk_xnor(FactId a, FactId b) {
  const FactId x = mk_xor(a, b);
  const FactNode& n = nodes_[x];
  if (n.kind == FactKind::kXor) {
    return intern({FactKind::kXnor, 0, n.a, n.b, kNoFact});
  }
  if (n.kind == FactKind::kXnor) {
    return intern({FactKind::kXor, 0, n.a, n.b, kNoFact});
  }
  return mk_not(x);
}

bool FactoringForest::eval(FactId id, const std::vector<bool>& a) const {
  const FactNode& n = nodes_[id];
  switch (n.kind) {
    case FactKind::kConst0:
      return false;
    case FactKind::kConst1:
      return true;
    case FactKind::kVar:
      return a[n.var];
    case FactKind::kNot:
      return !eval(n.a, a);
    case FactKind::kAnd:
      return eval(n.a, a) && eval(n.b, a);
    case FactKind::kOr:
      return eval(n.a, a) || eval(n.b, a);
    case FactKind::kXor:
      return eval(n.a, a) != eval(n.b, a);
    case FactKind::kXnor:
      return eval(n.a, a) == eval(n.b, a);
    case FactKind::kMux:
      return eval(n.a, a) ? eval(n.b, a) : eval(n.c, a);
  }
  return false;
}

FactId FactoringForest::mk_mux(FactId sel, FactId hi, FactId lo) {
  if (sel == const1()) return hi;
  if (sel == const0()) return lo;
  if (hi == lo) return hi;
  if (hi == const1() && lo == const0()) return sel;
  if (hi == const0() && lo == const1()) return mk_not(sel);
  if (hi == const1()) return mk_or(sel, lo);
  if (hi == const0()) return mk_and(mk_not(sel), lo);
  if (lo == const1()) return mk_or(mk_not(sel), hi);
  if (lo == const0()) return mk_and(sel, hi);
  if (nodes_[hi].kind == FactKind::kNot && nodes_[hi].a == lo) {
    return mk_xor(sel, lo);  // sel ? !lo : lo  ==  sel ^ lo
  }
  if (nodes_[lo].kind == FactKind::kNot && nodes_[lo].a == hi) {
    return mk_xnor(sel, hi);  // sel ? hi : !hi  ==  sel xnor hi
  }
  return intern({FactKind::kMux, 0, sel, hi, lo});
}

std::size_t FactoringForest::gate_count(const std::vector<FactId>& roots) const {
  std::vector<bool> seen(nodes_.size(), false);
  std::vector<FactId> stack;
  std::size_t gates = 0;
  for (const FactId r : roots) stack.push_back(r);
  while (!stack.empty()) {
    const FactId id = stack.back();
    stack.pop_back();
    if (seen[id]) continue;
    seen[id] = true;
    const FactNode& n = nodes_[id];
    FactId kids[3];
    const std::size_t nkids = children_of(n, kids);
    if (nkids > 0) ++gates;  // every operator node, NOT included, is a gate
    for (std::size_t i = 0; i < nkids; ++i) stack.push_back(kids[i]);
  }
  return gates;
}

std::size_t FactoringForest::literal_count(
    const std::vector<FactId>& roots) const {
  std::vector<bool> seen(nodes_.size(), false);
  std::vector<FactId> stack;
  std::size_t lits = 0;
  for (const FactId r : roots) stack.push_back(r);
  while (!stack.empty()) {
    const FactId id = stack.back();
    stack.pop_back();
    if (seen[id]) continue;
    seen[id] = true;
    const FactNode& n = nodes_[id];
    if (n.kind == FactKind::kVar) {
      ++lits;
      continue;
    }
    FactId kids[3];
    const std::size_t nkids = children_of(n, kids);
    for (std::size_t i = 0; i < nkids; ++i) stack.push_back(kids[i]);
  }
  return lits;
}

std::string FactoringForest::to_string(
    FactId id, const std::vector<std::string>& var_names) const {
  const FactNode& n = nodes_[id];
  const auto name = [&](bdd::Var v) {
    return v < var_names.size() ? var_names[v] : "x" + std::to_string(v);
  };
  switch (n.kind) {
    case FactKind::kConst0:
      return "0";
    case FactKind::kConst1:
      return "1";
    case FactKind::kVar:
      return name(n.var);
    case FactKind::kNot:
      return "!" + to_string(n.a, var_names);
    case FactKind::kAnd:
      return "(" + to_string(n.a, var_names) + " & " +
             to_string(n.b, var_names) + ")";
    case FactKind::kOr:
      return "(" + to_string(n.a, var_names) + " | " +
             to_string(n.b, var_names) + ")";
    case FactKind::kXor:
      return "(" + to_string(n.a, var_names) + " ^ " +
             to_string(n.b, var_names) + ")";
    case FactKind::kXnor:
      return "(" + to_string(n.a, var_names) + " xnor " +
             to_string(n.b, var_names) + ")";
    case FactKind::kMux:
      return "mux(" + to_string(n.a, var_names) + ", " +
             to_string(n.b, var_names) + ", " + to_string(n.c, var_names) +
             ")";
  }
  return "?";
}

FactId FactoringForest::copy_into(FactoringForest& dst, FactId root,
                                  const std::vector<FactId>& leaf_map) const {
  // Two-visit post-order on an explicit stack: the first visit pushes
  // unresolved children in reverse (so they resolve left-to-right, keeping
  // dst's interning order identical to the old recursion), the second
  // rebuilds the node from the memo.
  std::unordered_map<FactId, FactId> memo;
  std::vector<FactId> stack{root};
  while (!stack.empty()) {
    const FactId id = stack.back();
    if (memo.find(id) != memo.end()) {
      stack.pop_back();
      continue;
    }
    const FactNode& n = nodes_[id];
    FactId kids[3];
    const std::size_t nkids = children_of(n, kids);
    bool ready = true;
    for (std::size_t i = nkids; i-- > 0;) {
      if (memo.find(kids[i]) == memo.end()) {
        stack.push_back(kids[i]);
        ready = false;
      }
    }
    if (!ready) continue;
    FactId result = kNoFact;
    switch (n.kind) {
      case FactKind::kConst0:
        result = dst.const0();
        break;
      case FactKind::kConst1:
        result = dst.const1();
        break;
      case FactKind::kVar:
        assert(n.var < leaf_map.size());
        result = leaf_map[n.var];
        break;
      case FactKind::kNot:
        result = dst.mk_not(memo.at(n.a));
        break;
      case FactKind::kAnd:
        result = dst.mk_and(memo.at(n.a), memo.at(n.b));
        break;
      case FactKind::kOr:
        result = dst.mk_or(memo.at(n.a), memo.at(n.b));
        break;
      case FactKind::kXor:
        result = dst.mk_xor(memo.at(n.a), memo.at(n.b));
        break;
      case FactKind::kXnor:
        result = dst.mk_xnor(memo.at(n.a), memo.at(n.b));
        break;
      case FactKind::kMux:
        result = dst.mk_mux(memo.at(n.a), memo.at(n.b), memo.at(n.c));
        break;
    }
    memo.emplace(id, result);
    stack.pop_back();
  }
  return memo.at(root);
}

bdd::Bdd FactoringForest::to_bdd(FactId id, bdd::Manager& mgr) const {
  std::unordered_map<FactId, bdd::Bdd> memo;
  std::vector<FactId> stack{id};
  while (!stack.empty()) {
    const FactId cur = stack.back();
    if (memo.find(cur) != memo.end()) {
      stack.pop_back();
      continue;
    }
    const FactNode& n = nodes_[cur];
    FactId kids[3];
    const std::size_t nkids = children_of(n, kids);
    bool ready = true;
    for (std::size_t i = nkids; i-- > 0;) {
      if (memo.find(kids[i]) == memo.end()) {
        stack.push_back(kids[i]);
        ready = false;
      }
    }
    if (!ready) continue;
    bdd::Bdd result;
    switch (n.kind) {
      case FactKind::kConst0:
        result = mgr.zero();
        break;
      case FactKind::kConst1:
        result = mgr.one();
        break;
      case FactKind::kVar:
        result = mgr.var(n.var);
        break;
      case FactKind::kNot:
        result = !memo.at(n.a);
        break;
      case FactKind::kAnd:
        result = memo.at(n.a) & memo.at(n.b);
        break;
      case FactKind::kOr:
        result = memo.at(n.a) | memo.at(n.b);
        break;
      case FactKind::kXor:
        result = memo.at(n.a) ^ memo.at(n.b);
        break;
      case FactKind::kXnor:
        result = memo.at(n.a).xnor(memo.at(n.b));
        break;
      case FactKind::kMux:
        result = memo.at(n.a).ite(memo.at(n.b), memo.at(n.c));
        break;
    }
    memo.emplace(cur, result);
    stack.pop_back();
  }
  return memo.at(id);
}

}  // namespace bds::core
