// 64-way bit-parallel random simulation: each signal carries a 64-bit word,
// one simulation pattern per bit. check_equivalence runs it before building
// any BDD, so a mismatch costs a few network walks instead of global BDDs;
// it also cross-checks optimized networks when global BDDs are infeasible
// (e.g. large multipliers, as with the paper's C6288).
#include "verify/cec.hpp"

#include <bit>
#include <cassert>
#include <string_view>
#include <unordered_map>

#include "util/rng.hpp"

namespace bds::verify {

using net::Network;
using net::NodeId;

namespace {

/// Evaluates every node of `order` (net's topo_order()) into `value`,
/// which is indexed by node id and already holds the input words.
void simulate_nodes(const Network& net, const std::vector<NodeId>& order,
                    std::vector<std::uint64_t>& value) {
  for (const NodeId id : order) {
    const net::Node& n = net.node(id);
    std::uint64_t f = 0;
    for (const sop::Cube& c : n.func.cubes()) {
      std::uint64_t term = ~0ULL;
      for (unsigned i = 0; i < c.num_vars(); ++i) {
        switch (c.get(i)) {
          case sop::Literal::kPos:
            term &= value[n.fanins[i]];
            break;
          case sop::Literal::kNeg:
            term &= ~value[n.fanins[i]];
            break;
          case sop::Literal::kEmpty:
            term = 0;
            break;
          case sop::Literal::kAbsent:
            break;
        }
      }
      f |= term;
    }
    value[id] = f;
  }
}

std::uint64_t output_word(const std::vector<std::uint64_t>& value,
                          NodeId driver) {
  return driver == net::kNoNode ? 0 : value[driver];
}

CecResult interface_mismatch(std::string what) {
  CecResult r;
  r.status = CecStatus::kInequivalent;
  r.failing_output = "<" + std::move(what) + ">";
  return r;
}

}  // namespace

std::vector<std::uint64_t> simulate64(
    const Network& net, const std::vector<std::uint64_t>& pi_words) {
  assert(pi_words.size() == net.num_inputs());
  std::vector<std::uint64_t> value(net.raw_size(), 0);
  for (std::size_t i = 0; i < net.inputs().size(); ++i) {
    value[net.inputs()[i]] = pi_words[i];
  }
  simulate_nodes(net, net.topo_order(), value);
  std::vector<std::uint64_t> po;
  po.reserve(net.outputs().size());
  for (const auto& [name, driver] : net.outputs()) {
    po.push_back(output_word(value, driver));
  }
  return po;
}

std::optional<CecResult> find_mismatch(const Network& a,
                                       const std::vector<NodeId>& order_a,
                                       const Network& b,
                                       const std::vector<NodeId>& order_b,
                                       std::size_t num_vectors,
                                       std::uint64_t seed) {
  if (a.num_inputs() != b.num_inputs() || a.num_outputs() != b.num_outputs()) {
    return interface_mismatch("interface mismatch");
  }
  // Match b's inputs and outputs to a's by name through hash maps, so the
  // matching stays linear in the interface width (20k-input networks).
  std::vector<NodeId> b_input(a.num_inputs());
  {
    std::unordered_map<std::string_view, NodeId> by_name;
    by_name.reserve(b.num_inputs());
    for (const NodeId pi : b.inputs()) by_name.emplace(b.node(pi).name, pi);
    for (std::size_t i = 0; i < a.num_inputs(); ++i) {
      const std::string& name = a.node(a.inputs()[i]).name;
      const auto it = by_name.find(name);
      if (it == by_name.end()) {
        return interface_mismatch("input name mismatch: " + name);
      }
      b_input[i] = it->second;
    }
  }
  std::vector<NodeId> b_driver(a.num_outputs());
  {
    std::unordered_map<std::string_view, NodeId> by_name;
    by_name.reserve(b.num_outputs());
    for (const auto& [name, driver] : b.outputs()) {
      by_name.emplace(name, driver);
    }
    for (std::size_t i = 0; i < a.num_outputs(); ++i) {
      const std::string& name = a.outputs()[i].first;
      const auto it = by_name.find(name);
      if (it == by_name.end()) {
        return interface_mismatch("output name mismatch: " + name);
      }
      b_driver[i] = it->second;
    }
  }

  Rng rng(seed);
  std::vector<std::uint64_t> value_a(a.raw_size(), 0);
  std::vector<std::uint64_t> value_b(b.raw_size(), 0);
  for (std::size_t done = 0; done < num_vectors; done += 64) {
    for (std::size_t i = 0; i < a.num_inputs(); ++i) {
      const std::uint64_t w = rng.next();
      value_a[a.inputs()[i]] = w;
      value_b[b_input[i]] = w;
    }
    simulate_nodes(a, order_a, value_a);
    simulate_nodes(b, order_b, value_b);
    for (std::size_t o = 0; o < a.num_outputs(); ++o) {
      const std::uint64_t diff = output_word(value_a, a.outputs()[o].second) ^
                                 output_word(value_b, b_driver[o]);
      if (diff == 0) continue;
      const int bit = std::countr_zero(diff);
      CecResult r;
      r.status = CecStatus::kInequivalent;
      r.failing_output = a.outputs()[o].first;
      r.counterexample.reserve(a.num_inputs());
      for (const NodeId pi : a.inputs()) {
        r.counterexample.push_back(((value_a[pi] >> bit) & 1) != 0);
      }
      return r;
    }
  }
  return std::nullopt;
}

bool random_simulation_equal(const Network& a, const Network& b,
                             std::size_t num_vectors, std::uint64_t seed) {
  return !find_mismatch(a, a.topo_order(), b, b.topo_order(), num_vectors,
                        seed);
}

}  // namespace bds::verify
