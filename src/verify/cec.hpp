// Combinational equivalence checking (the paper's internal verifier,
// "BDS with option -verify"). A check runs in three steps:
//  1. Simulation: a fixed-seed 256-vector word-parallel simulation of both
//     networks (inputs and outputs matched by name). A differing bit
//     refutes at once, with that bit's input vector as the counterexample;
//     no BDD is built.
//  2. Global BDDs: otherwise both networks are built over a shared variable
//     space and compared per output through BDD canonicity, which proves
//     equivalence or refutes a difference simulation missed.
//  3. Abort: like the paper's verifier, the BDD step gives up gracefully
//     when global BDDs blow up (C6288-class circuits) and reports
//     kAborted; longer random simulation covers that case.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "net/network.hpp"
#include "util/budget.hpp"

namespace bds::verify {

enum class CecStatus {
  kEquivalent,
  kInequivalent,
  kAborted,  ///< global BDD exceeded the node budget
};

struct CecResult {
  CecStatus status = CecStatus::kAborted;
  /// On inequivalence: name of the first differing output and one input
  /// assignment (by a's input order) that distinguishes the networks.
  std::string failing_output;
  std::vector<bool> counterexample;

  explicit operator bool() const { return status == CecStatus::kEquivalent; }
};

/// Checks a == b. Inputs and outputs are matched by name; both networks
/// must expose identical input/output name sets. Simulation refutes first;
/// only a pair it cannot tell apart reaches the BDD step. When `budget` is
/// given it is installed on the verifier's BDD manager, so its ceilings and
/// deadline also abort to kAborted (the caller's cue to fall back to
/// simulation) rather than failing the run.
CecResult check_equivalence(
    const net::Network& a, const net::Network& b,
    std::size_t max_live_nodes = 2'000'000,
    std::shared_ptr<const util::ResourceBudget> budget = nullptr);

/// 64-way parallel random simulation of `num_vectors` patterns drawn from
/// Rng(seed), along `order_a`/`order_b` (the networks' topo_order()).
/// Returns a kInequivalent result on the first differing output in a's
/// order, with the lowest differing pattern as the counterexample (in a's
/// input order), or on an input/output name mismatch; nullopt when every
/// pattern agrees (not a proof of equivalence).
std::optional<CecResult> find_mismatch(const net::Network& a,
                                       const std::vector<net::NodeId>& order_a,
                                       const net::Network& b,
                                       const std::vector<net::NodeId>& order_b,
                                       std::size_t num_vectors,
                                       std::uint64_t seed);

/// 64-way parallel random simulation; returns false iff a mismatch was
/// observed (a sound inequivalence witness, not a proof of equivalence).
bool random_simulation_equal(const net::Network& a, const net::Network& b,
                             std::size_t num_vectors = 4096,
                             std::uint64_t seed = 1);

/// Word-parallel simulation of one network: returns per-output words where
/// bit i is the output value under input pattern bit i.
std::vector<std::uint64_t> simulate64(
    const net::Network& net, const std::vector<std::uint64_t>& pi_words);

}  // namespace bds::verify
