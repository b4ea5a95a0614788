// Arithmetic showcase: the paper's motivating scenario. Runs both flows on
// XOR-intensive circuits (multiplier, ECC, ALU) and on AND/OR-intensive
// control logic, printing the literal/gate/XOR comparison that motivates
// BDD-based decomposition (Section I).
//
// Build & run:  ./build/examples/arithmetic_showcase  (exits 1 when any
// mapped result fails verification)
#include <iomanip>
#include <iostream>

#include "gen/gen.hpp"
#include "map/mapper.hpp"
#include "opt/manager.hpp"
#include "util/timer.hpp"
#include "verify/cec.hpp"

namespace {

using namespace bds;

struct Row {
  std::string name;
  std::size_t bds_gates, sis_gates;
  double bds_area, sis_area;
  double bds_xor_share, sis_xor_share;
  double bds_cpu, sis_cpu;
  bool verified;
};

Row run(const std::string& name, const net::Network& input) {
  Row row;
  row.name = name;

  Timer tb;
  net::Network bds_net = input;
  opt::PassManager::from_script("bds").run(bds_net);
  const map::MapResult bds_map = map::map_network(bds_net);
  row.bds_cpu = tb.seconds();

  Timer ts;
  net::Network sis_net = input;
  opt::PassManager::from_script("rugged").run(sis_net);
  const map::MapResult sis_map = map::map_network(sis_net);
  row.sis_cpu = ts.seconds();

  const auto xor_share = [](const map::MapResult& m) {
    std::size_t x = 0;
    for (const auto& [g, n] : m.gate_histogram) {
      if (g == "xor2" || g == "xnor2") x += n;
    }
    return m.num_gates == 0 ? 0.0
                            : 100.0 * static_cast<double>(x) /
                                  static_cast<double>(m.num_gates);
  };
  row.bds_gates = bds_map.num_gates;
  row.sis_gates = sis_map.num_gates;
  row.bds_area = bds_map.area;
  row.sis_area = sis_map.area;
  row.bds_xor_share = xor_share(bds_map);
  row.sis_xor_share = xor_share(sis_map);
  row.verified =
      static_cast<bool>(verify::check_equivalence(input, bds_map.netlist)) &&
      static_cast<bool>(verify::check_equivalence(input, sis_map.netlist));
  return row;
}

}  // namespace

int main() {
  std::cout << "== XOR-intensive vs AND/OR-intensive circuits: BDS vs "
               "algebraic baseline ==\n\n";
  std::vector<Row> rows;
  rows.push_back(run("m4x4 multiplier", gen::array_multiplier(4)));
  rows.push_back(run("m6x6 multiplier", gen::array_multiplier(6)));
  rows.push_back(run("ecc15 (Hamming)", gen::hamming_corrector(4)));
  rows.push_back(run("alu8", gen::alu(8)));
  rows.push_back(run("parity16", gen::parity_tree(16)));
  rows.push_back(run("prio12 (control)", gen::priority_controller(12)));
  rows.push_back(run("ctl16 (control)", gen::random_control(16, 8, 12, 7)));

  std::cout << std::left << std::setw(18) << "circuit" << std::right
            << std::setw(10) << "BDS gates" << std::setw(10) << "SIS gates"
            << std::setw(10) << "BDS area" << std::setw(10) << "SIS area"
            << std::setw(9) << "BDS x%" << std::setw(9) << "SIS x%"
            << std::setw(10) << "BDS s" << std::setw(10) << "SIS s"
            << "  ok\n";
  bool all_verified = true;
  for (const Row& r : rows) {
    all_verified = all_verified && r.verified;
    std::cout << std::left << std::setw(18) << r.name << std::right
              << std::setw(10) << r.bds_gates << std::setw(10) << r.sis_gates
              << std::setw(10) << r.bds_area << std::setw(10) << r.sis_area
              << std::setw(8) << std::fixed << std::setprecision(1)
              << r.bds_xor_share << "%" << std::setw(8) << r.sis_xor_share
              << "%" << std::setw(10) << std::setprecision(3) << r.bds_cpu
              << std::setw(10) << r.sis_cpu << "  "
              << (r.verified ? "yes" : "NO") << "\n";
  }
  std::cout << "\n(x% = share of mapped gates that are XOR/XNOR; the BDS "
               "advantage concentrates in the XOR-intensive rows, as in "
               "Section V.)\n";
  return all_verified ? 0 : 1;
}
