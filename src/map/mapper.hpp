// Area-oriented tree covering onto a gate library (the SIS tree mapper of
// the experiments). Library gates are pre-decomposed into NAND2/INV
// pattern trees; dynamic programming over the subject graph picks the
// cheapest cover per tree, with multi-fanout nodes as tree boundaries.
// Delay is reported from per-gate block delays over the chosen cover.
#pragma once

#include <iosfwd>
#include <map>
#include <string>
#include <vector>

#include "map/genlib.hpp"
#include "map/subject.hpp"
#include "net/network.hpp"
#include "util/telemetry.hpp"

namespace bds::map {

/// Cover-selection objective: minimal area (the paper's experiments) or
/// minimal arrival time with area as the tie-breaker.
enum class MapObjective : std::uint8_t { kArea, kDelay };

/// Library gate of each node of a mapped netlist, indexed by NodeId:
/// null for primary inputs and constant nodes.
using InstanceTable = std::vector<const Gate*>;

/// Outcome of map_network(): the gate-level netlist plus the mapped
/// area/delay figures every reporting surface (the `map` pass counters,
/// -stats, bench_suite) reads.
struct MapResult {
  net::Network netlist;  ///< gate-level network (one node per instance)
  double area = 0.0;     ///< total area of the chosen cover
  double delay = 0.0;  ///< critical path through gate block delays
  std::size_t num_gates = 0;  ///< gate instances in the cover
  /// Instances per library gate name (for histograms in reports).
  std::map<std::string, std::size_t> gate_histogram;
  /// Library gate of each netlist node (see InstanceTable).
  InstanceTable instance_gate;
};

/// Writes a mapped netlist in BLIF ".gate" form (as SIS write_blif does
/// for mapped networks): one `.gate <name> <pin>=<signal> ... <out>=<sig>`
/// line per instance. `instance_gate` is the table map_network() returned
/// with `netlist`; throws std::invalid_argument when its size does not
/// match the netlist's.
void write_gate_blif(std::ostream& os, const net::Network& netlist,
                     const InstanceTable& instance_gate);

/// Maps `net` onto `lib`. The returned netlist is functionally equivalent
/// to the input (each instance node carries the gate's SOP), so the result
/// can be verified with the usual equivalence checks.
MapResult map_network(const net::Network& net,
                      const Library& lib = mcnc_like_library(),
                      MapObjective objective = MapObjective::kArea);

/// map_network() for the `map` pass: replaces `net` with the mapped
/// netlist, so the returned MapResult's `netlist` is empty. With a
/// telemetry recorder the three phases are timed as child spans of its
/// open span: `map:subject` (subject-graph build), `map:cover` (pattern
/// matching and the covering DP) and `map:netlist` (netlist build and the
/// release of the replaced network).
MapResult map_in_place(net::Network& net, const Library& lib,
                       MapObjective objective,
                       util::TelemetryRecorder* telemetry);

}  // namespace bds::map
