// Generalized x-dominator decomposition (Section III-D, Theorem 6).
//
// Any function G yields a Boolean XNOR decomposition F = G xnor (G xnor F);
// the art is picking G so that both parts shrink. Following Definition 10,
// good candidates are nodes whose function appears in both polarities
// inside F's BDD (reached through at least one complement and one regular
// incoming path), because their structure is already "shared" between the
// two phases and factors out through the XNOR.
#include "core/decompose.hpp"

namespace bds::core {

using bdd::Bdd;
using bdd::Edge;

std::optional<FactId> Decomposer::try_generalized_xdominator(
    const Bdd& f, const BddStructure& s) {
  const std::size_t fsize = f.size();
  struct Best {
    Bdd g;
    Bdd h;
    std::size_t cost = ~std::size_t{0};
  } best;

  std::size_t examined = 0;
  for (const Edge e : s.nodes()) {
    if (e.complemented()) continue;  // consider each physical node once
    if (e == s.root().regular()) continue;
    // Generalized x-dominator: reached in both phases.
    if (s.paths_to(e) == 0 || s.paths_to(!e) == 0) continue;
    if (++examined > kMaxCuts) break;
    const Bdd g = mgr_.wrap(e);
    const Bdd h = g.xnor(f);  // Theorem 6: H = G xnor F
    const std::size_t cost = g.size() + h.size();
    if (g.size() >= fsize || h.size() >= fsize || cost >= best.cost) continue;
    best = {g, h, cost};
  }

  if (best.cost == ~std::size_t{0}) return std::nullopt;
  ++stats_.generalized_xnor;
  const FactId gid = decompose(best.g);
  const FactId hid = decompose(best.h);
  return forest_.mk_xnor(gid, hid);
}

}  // namespace bds::core
