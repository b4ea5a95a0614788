// Functional MUX decomposition (Section III-E, Theorem 7).
//
// When two expanded nodes u, v jointly cover every path of the BDD, the
// function decomposes as F = h ? func(u) : func(v), where the functional
// control h is F with u redirected to 1 and v to 0. This subsumes
// Ashenhurst simple disjoint decomposition with column multiplicity two;
// the control is a function, not a single variable. The candidate pairs
// are exactly the cuts whose crossing edges land on two distinct targets.
#include "core/decompose.hpp"

namespace bds::core {

using bdd::Bdd;
using bdd::Edge;

std::optional<FactId> Decomposer::try_functional_mux(
    const Bdd& f, const std::vector<CutInfo>& cuts) {
  const std::size_t fsize = f.size();
  struct Best {
    Bdd control;
    Bdd hi;
    Bdd lo;
    std::size_t cost = ~std::size_t{0};
  } best;

  std::size_t examined = 0;
  for (const CutInfo& cut : mux_cuts(cuts)) {
    if (++examined > kMaxCuts) break;
    const Edge u = cut.crossing_targets[0];
    const Edge v = cut.crossing_targets[1];
    const Bdd fu = mgr_.wrap(u);
    const Bdd fv = mgr_.wrap(v);
    const Bdd h = mgr_.wrap(
        redirect(mgr_, f.edge(), {{u, Edge::one()}, {v, Edge::zero()}}));
    if (h.is_constant()) continue;
    const std::size_t cost = h.size() + fu.size() + fv.size();
    if (h.size() >= fsize || fu.size() >= fsize || fv.size() >= fsize ||
        cost >= best.cost) {
      continue;
    }
    if (!(h.ite(fu, fv) == f)) continue;  // exactness check (Theorem 7)
    best = {h, fu, fv, cost};
  }

  if (best.cost == ~std::size_t{0}) return std::nullopt;
  ++stats_.functional_mux;
  const FactId sel = decompose(best.control);
  const FactId hi = decompose(best.hi);
  const FactId lo = decompose(best.lo);
  return forest_.mk_mux(sel, hi, lo);
}

}  // namespace bds::core
