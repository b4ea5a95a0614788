// The iterative BDD decomposition engine (Sections III and IV-C).
//
// A BDD is recursively decomposed into a factoring tree. Decomposition
// types are tried in the paper's empirical priority order:
//   1. simple dominators (1-, 0-, x-dominator)      -- algebraic
//   2. functional MUX decomposition
//   3. generalized dominator (conjunctive/disjunctive Boolean)
//   4. generalized x-dominator (Boolean XNOR)
//   5. simple Shannon cofactor w.r.t. the top variable (always applicable)
//
// Every accepted step is verified by recomposing the parts with BDD
// operations and checking canonical equality against the original
// function, mirroring the paper's step-by-step verification.
#pragma once

#include <cstdint>
#include <optional>
#include <unordered_map>
#include <vector>

#include "bdd/bdd.hpp"
#include "core/cuts.hpp"
#include "core/dominators.hpp"
#include "core/factree.hpp"

namespace bds::core {

/// Which heuristic minimizes quotients against don't cares (the paper
/// calls BDD minimization with don't cares "an open and difficult
/// problem"; both classic Coudert-Madre operators are available).
enum class DcMinimizer : std::uint8_t { kRestrict, kConstrain };

struct DecomposeOptions {
  DcMinimizer dc_minimizer = DcMinimizer::kRestrict;
  bool use_simple_dominators = true;
  bool use_mux = true;
  bool use_generalized = true;
  bool use_xdom = true;
};

struct DecomposeStats {
  std::size_t one_dominator = 0;
  std::size_t zero_dominator = 0;
  std::size_t x_dominator = 0;
  std::size_t functional_mux = 0;
  std::size_t generalized_and = 0;
  std::size_t generalized_or = 0;
  std::size_t generalized_xnor = 0;
  std::size_t shannon = 0;
  std::size_t total() const {
    return one_dominator + zero_dominator + x_dominator + functional_mux +
           generalized_and + generalized_or + generalized_xnor + shannon;
  }
};

class Decomposer {
 public:
  Decomposer(bdd::Manager& mgr, FactoringForest& forest,
             DecomposeOptions opts = {});

  /// Decomposes a function into the forest and returns its root. Results
  /// are memoized per canonical node, so repeated and shared subfunctions
  /// decompose once.
  FactId decompose(const bdd::Bdd& f);

  const DecomposeStats& stats() const { return stats_; }

 private:
  /// Cap on examined representative cuts per function and cut kind (a
  /// safety valve; the equivalence pruning usually leaves only a handful).
  static constexpr std::size_t kMaxCuts = 64;

  FactId decompose_regular(const bdd::Bdd& f);

  // Implemented in decompose.cpp:
  std::optional<FactId> try_simple_dominators(const bdd::Bdd& f,
                                              const BddStructure& s);
  std::optional<FactId> try_generalized_dominator(
      const bdd::Bdd& f, const std::vector<CutInfo>& cuts);
  FactId shannon(const bdd::Bdd& f);

  // Implemented in muxdecomp.cpp:
  std::optional<FactId> try_functional_mux(const bdd::Bdd& f,
                                           const std::vector<CutInfo>& cuts);
  // Implemented in xdecomp.cpp:
  std::optional<FactId> try_generalized_xdominator(const bdd::Bdd& f,
                                                   const BddStructure& s);

  bdd::Manager& mgr_;
  FactoringForest& forest_;
  DecomposeOptions opts_;
  DecomposeStats stats_;
  std::unordered_map<std::uint32_t, FactId> memo_;  // regular edge bits -> id
  std::vector<bdd::Bdd> anchors_;  // pins memoized functions against GC
};

}  // namespace bds::core
