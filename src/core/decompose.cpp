#include "core/decompose.hpp"

#include <cassert>

namespace bds::core {

using bdd::Bdd;
using bdd::Edge;

Decomposer::Decomposer(bdd::Manager& mgr, FactoringForest& forest,
                       DecomposeOptions opts)
    : mgr_(mgr), forest_(forest), opts_(opts) {}

namespace {
Edge minimize_with_care(bdd::Manager& mgr, Edge f, Edge care,
                        DcMinimizer which) {
  return which == DcMinimizer::kConstrain ? mgr.constrain(f, care)
                                          : mgr.restrict_(f, care);
}
}  // namespace

FactId Decomposer::decompose(const Bdd& f) {
  if (f.is_zero()) return forest_.const0();
  if (f.is_one()) return forest_.const1();
  const Edge e = f.edge();
  const Edge regular = e.regular();
  const auto it = memo_.find(regular.bits());
  FactId id;
  if (it != memo_.end()) {
    id = it->second;
  } else {
    const Bdd fr = mgr_.wrap(regular);
    id = decompose_regular(fr);
    memo_.emplace(regular.bits(), id);
    anchors_.push_back(fr);
  }
  return e.complemented() ? forest_.mk_not(id) : id;
}

FactId Decomposer::decompose_regular(const Bdd& f) {
  // A regular non-constant function of a single node is a positive literal
  // (canonical form: (v, 1, 0); the complemented forms arrive as NOT).
  if (mgr_.hi_of(f.edge()).is_constant() &&
      mgr_.lo_of(f.edge()).is_constant()) {
    return forest_.mk_var(f.top_var());
  }

  const BddStructure structure(mgr_, f.edge());

  if (opts_.use_simple_dominators) {
    if (const auto r = try_simple_dominators(f, structure)) return *r;
  }

  const std::vector<CutInfo> cuts = enumerate_cuts(structure);
  if (opts_.use_mux) {
    if (const auto r = try_functional_mux(f, cuts)) return *r;
  }
  if (opts_.use_generalized) {
    if (const auto r = try_generalized_dominator(f, cuts)) return *r;
  }
  if (opts_.use_xdom) {
    if (const auto r = try_generalized_xdominator(f, structure)) return *r;
  }
  return shannon(f);
}

std::optional<FactId> Decomposer::try_simple_dominators(
    const Bdd& f, const BddStructure& s) {
  const SimpleDominators doms = find_simple_dominators(s);
  const std::size_t fsize = f.size();

  if (doms.one_dominator) {
    // F = func(e) & redirect(F, e -> 1)   (conjunctive algebraic, Fig. 2a)
    const Edge e = *doms.one_dominator;
    const Bdd h = mgr_.wrap(e);
    const Bdd g = mgr_.wrap(redirect(mgr_, f.edge(), {{e, Edge::one()}}));
    if (g.size() < fsize && h.size() < fsize && (g & h) == f) {
      ++stats_.one_dominator;
      const FactId gid = decompose(g);
      const FactId hid = decompose(h);
      return forest_.mk_and(gid, hid);
    }
  }
  if (doms.zero_dominator) {
    // F = func(e) | redirect(F, e -> 0)   (disjunctive algebraic, Fig. 2b)
    const Edge e = *doms.zero_dominator;
    const Bdd h = mgr_.wrap(e);
    const Bdd g = mgr_.wrap(redirect(mgr_, f.edge(), {{e, Edge::zero()}}));
    if (g.size() < fsize && h.size() < fsize && (g | h) == f) {
      ++stats_.zero_dominator;
      const FactId gid = decompose(g);
      const FactId hid = decompose(h);
      return forest_.mk_or(gid, hid);
    }
  }
  if (doms.x_dominator) {
    // F = func(v) xnor redirect(F, (v,+) -> 1, (v,-) -> 0)  (Theorem 5)
    const Edge v = *doms.x_dominator;
    const Bdd g = mgr_.wrap(v);
    const Bdd h = mgr_.wrap(
        redirect(mgr_, f.edge(), {{v, Edge::one()}, {!v, Edge::zero()}}));
    if (g.size() < fsize && h.size() < fsize && g.xnor(h) == f) {
      ++stats_.x_dominator;
      const FactId gid = decompose(g);
      const FactId hid = decompose(h);
      return forest_.mk_xnor(gid, hid);
    }
  }
  return std::nullopt;
}

std::optional<FactId> Decomposer::try_generalized_dominator(
    const Bdd& f, const std::vector<CutInfo>& cuts) {
  const std::size_t fsize = f.size();
  struct Best {
    bool is_and = true;
    Bdd divisor;
    Bdd quotient;
    std::size_t cost = ~std::size_t{0};
  } best;

  std::size_t examined = 0;
  for (const CutInfo& cut : conjunctive_cuts(cuts)) {
    if (++examined > kMaxCuts) break;
    // Lemma 1: D from the generalized dominator with free edges -> 1;
    // Q = F minimized with the offset of D as don't care. restrict
    // guarantees Q & D == F & D == F (D >= F by construction).
    const Bdd d =
        mgr_.wrap(cut_divisor(mgr_, f.edge(), cut.level, Edge::one()));
    if (d.is_constant()) continue;
    const Bdd q = mgr_.wrap(
        minimize_with_care(mgr_, f.edge(), d.edge(), opts_.dc_minimizer));
    const std::size_t cost = d.size() + q.size();
    if (d.size() >= fsize || q.size() >= fsize || cost >= best.cost) continue;
    if (!((d & q) == f)) continue;  // defensive; construction guarantees it
    best = {true, d, q, cost};
  }
  examined = 0;
  for (const CutInfo& cut : disjunctive_cuts(cuts)) {
    if (++examined > kMaxCuts) break;
    // Lemma 2: G from the generalized dominator with free edges -> 0;
    // H = F minimized with the onset of G as don't care.
    const Bdd g =
        mgr_.wrap(cut_divisor(mgr_, f.edge(), cut.level, Edge::zero()));
    if (g.is_constant()) continue;
    const Bdd care = !g;
    if (care.is_zero()) continue;
    const Bdd h = mgr_.wrap(
        minimize_with_care(mgr_, f.edge(), care.edge(), opts_.dc_minimizer));
    const std::size_t cost = g.size() + h.size();
    if (g.size() >= fsize || h.size() >= fsize || cost >= best.cost) continue;
    if (!((g | h) == f)) continue;
    best = {false, g, h, cost};
  }

  if (best.cost == ~std::size_t{0}) return std::nullopt;
  if (best.is_and) {
    ++stats_.generalized_and;
    const FactId did = decompose(best.divisor);
    const FactId qid = decompose(best.quotient);
    return forest_.mk_and(did, qid);
  }
  ++stats_.generalized_or;
  const FactId gid = decompose(best.divisor);
  const FactId hid = decompose(best.quotient);
  return forest_.mk_or(gid, hid);
}

FactId Decomposer::shannon(const Bdd& f) {
  ++stats_.shannon;
  const bdd::Var v = f.top_var();
  const Bdd f1 = mgr_.wrap(mgr_.hi_of(f.edge()));
  const Bdd f0 = mgr_.wrap(mgr_.lo_of(f.edge()));
  const FactId sel = forest_.mk_var(v);
  const FactId hi = decompose(f1);
  const FactId lo = decompose(f0);
  return forest_.mk_mux(sel, hi, lo);
}

}  // namespace bds::core
