// FPGA extension benchmark (the paper's future-work item 4 / [35]):
// 4-LUT counts after the BDS flow vs after the algebraic baseline, plus
// the unoptimized input as a reference. [35] reports >30% LUT improvement
// for BDS on FPGA circuits; with our (deliberately simple) greedy cone
// mapper the win concentrates on the XOR/MUX-regular circuits.
#include <iomanip>
#include <iostream>

#include "gen/gen.hpp"
#include "map/lutmap.hpp"
#include "opt/manager.hpp"
#include "verify/cec.hpp"

int main() {
  using namespace bds;
  std::cout << "\n== FPGA extension: 4-LUT counts (raw / SIS flow / BDS "
               "flow) ==\n"
            << std::left << std::setw(12) << "circuit" << std::right
            << std::setw(10) << "rawLUTs" << std::setw(10) << "SIS LUTs"
            << std::setw(10) << "BDS LUTs" << std::setw(12) << "depth r/s/b"
            << "  verified\n";

  struct Case {
    std::string name;
    net::Network circuit;
  };
  std::vector<Case> cases;
  cases.push_back({"parity32", gen::parity_tree(32)});
  cases.push_back({"bshift32", gen::barrel_shifter(32)});
  cases.push_back({"bshift64", gen::barrel_shifter(64)});
  cases.push_back({"rot32", gen::rotator(32)});
  cases.push_back({"ecc15", gen::hamming_corrector(4)});
  cases.push_back({"alu8", gen::alu(8)});
  cases.push_back({"m6x6", gen::array_multiplier(6)});
  cases.push_back({"prio16", gen::priority_controller(16)});

  double total_sis = 0, total_bds = 0;
  for (const Case& c : cases) {
    net::Network bds_net = c.circuit;
    opt::PassManager::from_script("bds").run(bds_net);
    net::Network sis_net = c.circuit;
    opt::PassManager::from_script("rugged").run(sis_net);
    const map::LutMapResult lr = map::map_luts(c.circuit, 4);
    const map::LutMapResult ls = map::map_luts(sis_net, 4);
    const map::LutMapResult lb = map::map_luts(bds_net, 4);
    const auto verified = [&](const net::Network& mapped) {
      const auto r = verify::check_equivalence(c.circuit, mapped);
      if (r.status == verify::CecStatus::kAborted) {
        return verify::random_simulation_equal(c.circuit, mapped, 1 << 14,
                                               99);
      }
      return r.status == verify::CecStatus::kEquivalent;
    };
    const bool ok = verified(ls.netlist) && verified(lb.netlist);
    std::cout << std::left << std::setw(12) << c.name << std::right
              << std::setw(10) << lr.num_luts << std::setw(10) << ls.num_luts
              << std::setw(10) << lb.num_luts << std::setw(7) << lr.depth
              << "/" << ls.depth << "/" << lb.depth << "      "
              << (ok ? "yes" : "NO!") << "\n";
    total_sis += static_cast<double>(ls.num_luts);
    total_bds += static_cast<double>(lb.num_luts);
  }
  std::cout << std::string(70, '-') << "\n"
            << "totals: SIS " << total_sis << " LUTs, BDS " << total_bds
            << " LUTs (" << std::fixed << std::setprecision(1)
            << 100.0 * (total_sis - total_bds) / total_sis
            << "% fewer with BDS; [35] reports >30% on FPGA circuits)\n";
  return 0;
}
