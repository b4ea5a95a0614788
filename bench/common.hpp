// Shared harness for the table benchmarks: runs a circuit through both
// complete flows (BDS and the SIS-style baseline), maps both onto the same
// library, verifies both results, and collects the columns the paper's
// Tables I and II report.
#pragma once

#include <iomanip>
#include <iostream>
#include <string>

#include "bdd/bdd.hpp"
#include "map/mapper.hpp"
#include "net/network.hpp"
#include "opt/bds_passes.hpp"
#include "opt/manager.hpp"
#include "util/timer.hpp"
#include "verify/cec.hpp"

namespace bds::bench {

struct FlowMetrics {
  std::size_t gates = 0;
  double area = 0.0;
  double delay = 0.0;
  double cpu_seconds = 0.0;
  double mem_mb = 0.0;  ///< peak live BDD nodes of the flow, in node-MB
  std::size_t xor_gates = 0;
  bool verified = false;
  bool verified_by_simulation = false;  ///< global BDDs infeasible: simulated
};

inline FlowMetrics finish(const net::Network& input,
                          const map::MapResult& mapped, double cpu,
                          double mem_mb) {
  FlowMetrics m;
  m.gates = mapped.num_gates;
  m.area = mapped.area;
  m.delay = mapped.delay;
  m.cpu_seconds = cpu;
  m.mem_mb = mem_mb;
  for (const auto& [g, n] : mapped.gate_histogram) {
    if (g == "xor2" || g == "xnor2") m.xor_gates += n;
  }
  const auto cec = verify::check_equivalence(input, mapped.netlist);
  if (cec.status == verify::CecStatus::kAborted) {
    // The paper could not verify C6288 with global BDDs either; fall back
    // to heavy random simulation, as it did to per-step checks.
    m.verified = verify::random_simulation_equal(input, mapped.netlist,
                                                 1 << 14, 1234);
    m.verified_by_simulation = true;
  } else {
    m.verified = cec.status == verify::CecStatus::kEquivalent;
  }
  return m;
}

// Memory columns compare peak *live BDD nodes* -- the quantity the paper's
// partitioned-vs-global comparison is about, independent of fixed table
// allocations. The per-node byte cost is derived from the store's element
// types (bdd.hpp), not hand-maintained: its predecessor (a literal 24.0)
// went stale the moment the node layout changed.
inline constexpr double kBytesPerNode =
    static_cast<double>(bdd::kBytesPerNode);

inline double node_mb(std::size_t nodes) {
  return static_cast<double>(nodes) * kBytesPerNode / (1024.0 * 1024.0);
}

inline FlowMetrics run_bds_flow(const net::Network& input) {
  Timer t;
  net::Network optimized = input;
  opt::PassContext ctx;
  opt::PassManager::from_script("bds").run(optimized, {}, ctx);
  const map::MapResult mapped = map::map_network(optimized);
  const double cpu = t.seconds();
  return finish(input, mapped, cpu,
                node_mb(ctx.state<opt::BdsFlowState>().peak_bdd_nodes()));
}

inline FlowMetrics run_sis_flow(const net::Network& input) {
  Timer t;
  net::Network net = input;
  const opt::PipelineStats stats =
      opt::PassManager::from_script("rugged").run(net);
  const map::MapResult mapped = map::map_network(net);
  const double cpu = t.seconds();
  return finish(input, mapped, cpu,
                node_mb(static_cast<std::size_t>(
                    stats.counter("peak_bdd_nodes"))));
}

inline void print_row(const std::string& name, const FlowMetrics& sis,
                      const FlowMetrics& bds) {
  const auto mark = [](const FlowMetrics& m) {
    return m.verified ? (m.verified_by_simulation ? "sim" : "yes") : "NO!";
  };
  std::cout << std::left << std::setw(12) << name << std::right << std::fixed
            << std::setw(9) << std::setprecision(0) << sis.area
            << std::setw(8) << std::setprecision(2) << sis.delay
            << std::setw(10) << std::setprecision(2) << sis.cpu_seconds
            << std::setw(9) << std::setprecision(2) << sis.mem_mb << " |"
            << std::setw(9) << std::setprecision(0) << bds.area
            << std::setw(8) << std::setprecision(2) << bds.delay
            << std::setw(10) << std::setprecision(2) << bds.cpu_seconds
            << std::setw(9) << std::setprecision(2) << bds.mem_mb
            << std::setw(9) << std::setprecision(1)
            << (bds.cpu_seconds > 0 ? sis.cpu_seconds / bds.cpu_seconds : 0.0)
            << "  " << mark(sis) << "/" << mark(bds) << "\n";
}

inline void print_header(const std::string& title) {
  std::cout << "\n== " << title << " ==\n"
            << std::left << std::setw(12) << "circuit" << std::right
            << std::setw(9) << "SISarea" << std::setw(8) << "delay"
            << std::setw(10) << "CPU[s]" << std::setw(9) << "Mem[MB]"
            << "  |" << std::setw(8) << "BDSarea" << std::setw(8) << "delay"
            << std::setw(10) << "CPU[s]" << std::setw(9) << "Mem[MB]"
            << std::setw(9) << "speedup"
            << "  verified\n";
}

}  // namespace bds::bench
