// Technology-mapping passes: `map` (genlib gate mapping, src/map/mapper)
// and `lutmap` (k-LUT covering, src/map/lutmap) registered under the
// script/parameter API, so any flow can end in a mapped netlist --
// `-script bds -map lib.genlib`, `bds_decompose; ...; map -lib mcnc`, or a
// daemon request carrying RequestOptions::map_lib. The passes replace the
// network with the mapped netlist in place (instance nodes keep their gate
// SOPs, so per-pass CEC checkpoints verify the mapping like any other
// pass) and report mapped area/delay/gate counts through the standard
// counter path consumed by -stats, -profile, traces, and bench_suite.
#pragma once

#include <memory>

#include "map/genlib.hpp"
#include "map/mapper.hpp"
#include "opt/pass.hpp"

namespace bds::opt {

/// Blackboard state left behind by the `map` pass: the library gate of
/// each node of the network the pass returned, and the library those
/// gates live in. optimize_blif reads it with that network to serve
/// `-gates` (.gate-form BLIF), which is why a later pass that rewrites
/// the network makes it stale. Absent from the context when no `map`
/// pass ran.
struct MapFlowState {
  std::shared_ptr<const map::Library> lib;  ///< keeps instance_gate valid
  map::InstanceTable instance_gate;  ///< gate per node of the mapped network
  bool mapped = false;  ///< true once the `map` pass has run
};

}  // namespace bds::opt
