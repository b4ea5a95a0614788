// Quickstart: the BDS public API in one page.
//
//   1. Build (or parse) a Boolean network.
//   2. Optimize it with the registered `bds` flow (sweep -> eliminate ->
//      reorder -> decompose -> share), the one entry point every tool uses.
//   3. Map it onto the gate library.
//   4. Verify the result formally.
//
// Build & run:  ./build/examples/quickstart
#include <iostream>

#include "map/mapper.hpp"
#include "net/network.hpp"
#include "opt/bds_passes.hpp"
#include "opt/manager.hpp"
#include "verify/cec.hpp"

int main() {
  using namespace bds;

  // A 1-bit full adder, straight from BLIF text.
  const net::Network input = net::parse_blif_string(R"(
.model full_adder
.inputs a b cin
.outputs sum cout
.names a b t
10 1
01 1
.names t cin sum
10 1
01 1
.names a b g
11 1
.names t cin p
11 1
.names g p cout
1- 1
-1 1
.end
)");
  std::cout << "input: " << input.num_logic_nodes() << " nodes, "
            << input.total_literals() << " literals\n";

  // --- the BDS flow: sweep -> eliminate -> reorder -> decompose -> share ---
  net::Network optimized = input;
  opt::PassContext ctx;
  opt::PassManager::from_script("bds").run(optimized, {}, ctx);
  const core::DecomposeStats& dec = ctx.state<opt::BdsFlowState>().decompose;
  std::cout << "bds: " << optimized.num_logic_nodes() << " gates after "
            << dec.total() << " decompositions (" << dec.x_dominator
            << " x-dominator, " << dec.functional_mux << " functional-MUX, "
            << dec.one_dominator + dec.zero_dominator << " simple AND/OR)\n";
  std::cout << net::to_blif_string(optimized);

  // --- technology mapping onto the MCNC-like library ---
  const map::MapResult mapped = map::map_network(optimized);
  std::cout << "mapped: " << mapped.num_gates << " gates, area "
            << mapped.area << ", delay " << mapped.delay << " ns\n";
  for (const auto& [gate, count] : mapped.gate_histogram) {
    std::cout << "  " << gate << " x" << count << "\n";
  }

  // --- formal verification, as BDS -verify does ---
  const auto cec = verify::check_equivalence(input, mapped.netlist);
  std::cout << "verification: "
            << (cec.status == verify::CecStatus::kEquivalent ? "EQUIVALENT"
                                                             : "FAILED")
            << "\n";
  return cec.status == verify::CecStatus::kEquivalent ? 0 : 1;
}
