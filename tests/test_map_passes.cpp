// The technology-mapping pipeline stage: the reserved `map`/`lut_k`
// script parameters append the map/lutmap passes to any script, the
// mapped netlist is CEC-equivalent to the pre-map network on the
// generator families, mapped area/delay land in the pass counters (the
// one instrumentation path -stats/-profile/bench read), the mapped BLIF
// and .gate text match golden hashes, and bad library specs or LUT widths
// are rejected as typed script errors.
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "gen/gen.hpp"
#include "map/mapper.hpp"
#include "net/network.hpp"
#include "opt/manager.hpp"
#include "opt/map_passes.hpp"
#include "opt/script.hpp"
#include "verify/cec.hpp"

namespace bds::opt {
namespace {

std::vector<net::Network> map_circuits() {
  std::vector<net::Network> circuits;
  circuits.push_back(gen::ripple_adder(5));
  circuits.push_back(gen::alu(4));
  circuits.push_back(gen::barrel_shifter(8));
  circuits.push_back(gen::comparator(4));
  return circuits;
}

// The tentpole acceptance criterion: on every generator family, the
// pipeline with a `map` stage emits a gate-level netlist equivalent to
// the input, and the pass reports nonzero mapped area/delay counters.
TEST(MapPasses, MappedOutputIsEquivalentAcrossFamilies) {
  for (const net::Network& input : map_circuits()) {
    net::Network net = input;
    PassManager pm = PassManager::from_script("bds", {{"map", "mcnc"}});
    PassContext ctx;
    const PipelineStats ps = pm.run(net, {}, ctx);

    ASSERT_FALSE(ps.passes.empty());
    EXPECT_EQ(ps.passes.back().name, "map") << input.name();
    EXPECT_GT(ps.counter("mapped_gates"), 0.0) << input.name();
    EXPECT_GT(ps.counter("mapped_area"), 0.0) << input.name();
    EXPECT_GT(ps.counter("mapped_delay"), 0.0) << input.name();

    const MapFlowState* st = ctx.find_state<MapFlowState>();
    ASSERT_NE(st, nullptr) << input.name();
    EXPECT_TRUE(st->mapped) << input.name();
    // The instance table describes the network the pass returned.
    ASSERT_EQ(st->instance_gate.size(), net.raw_size()) << input.name();
    EXPECT_EQ(static_cast<double>(std::count_if(
                  st->instance_gate.begin(), st->instance_gate.end(),
                  [](const map::Gate* g) { return g != nullptr; })),
              ps.counter("mapped_gates"))
        << input.name();

    EXPECT_TRUE(static_cast<bool>(verify::check_equivalence(input, net)))
        << input.name() << ": mapped netlist is not equivalent";
  }
}

TEST(MapPasses, LutMapPassCoversAndStaysEquivalent) {
  for (const net::Network& input : map_circuits()) {
    net::Network net = input;
    PassManager pm = PassManager::from_script("bds", {{"lut_k", "4"}});
    const PipelineStats ps = pm.run(net);

    ASSERT_FALSE(ps.passes.empty());
    EXPECT_EQ(ps.passes.back().name, "lutmap") << input.name();
    EXPECT_GT(ps.counter("lut_count"), 0.0) << input.name();
    EXPECT_GT(ps.counter("lut_depth"), 0.0) << input.name();
    // Every LUT is an SOP over at most k fanins.
    for (net::NodeId id : net.topo_order()) {
      EXPECT_LE(net.node(id).fanins.size(), 4u) << input.name();
    }
    EXPECT_TRUE(static_cast<bool>(verify::check_equivalence(input, net)))
        << input.name() << ": LUT netlist is not equivalent";
  }
}

// `map`/`lut_k` are reserved keys: they append to ANY script, including
// the SIS-style baselines, and gate mapping always precedes LUT covering
// regardless of parameter order.
TEST(MapPasses, ReservedKeysAppendToAnyScript) {
  for (const char* script : {"bds", "rugged", "sis"}) {
    const net::Network input = gen::alu(3);
    net::Network net = input;
    PassManager pm = PassManager::from_script(
        script, {{"lut_k", "4"}, {"map", "mcnc"}});
    const PipelineStats ps = pm.run(net);
    ASSERT_GE(ps.passes.size(), 2u) << script;
    EXPECT_EQ(ps.passes[ps.passes.size() - 2].name, "map") << script;
    EXPECT_EQ(ps.passes.back().name, "lutmap") << script;
    EXPECT_TRUE(static_cast<bool>(verify::check_equivalence(input, net)))
        << script;
  }
}

// With -check, the map passes get the same per-pass CEC checkpoint as any
// network-modifying pass (modifies_network() defaults to true).
TEST(MapPasses, PerPassCheckCoversTheMapStage) {
  net::Network net = gen::ripple_adder(4);
  PassManager pm = PassManager::from_script("bds", {{"map", "mcnc"}});
  PipelineOptions popts;
  popts.check = true;
  const PipelineStats ps = pm.run(net, popts);
  EXPECT_EQ(ps.check_failures, 0u);
  EXPECT_NE(ps.passes.back().check, PassStats::Check::kSkipped);
}

TEST(MapPasses, MapsOntoAGenlibFile) {
  const std::string path =
      "/tmp/bds-test-maplib-" + std::to_string(::getpid()) + ".genlib";
  {
    std::ofstream out(path);
    out << "GATE not1  2 O=!a;      PIN * INV 1 999 0.5 0.1 0.5 0.1\n"
        << "GATE nd2   3 O=!(a*b);  PIN * INV 1 999 1.0 0.2 1.0 0.2\n"
        << "GATE zero  0 O=CONST0;\n"
        << "GATE one   0 O=CONST1;\n";
  }
  const net::Network input = gen::comparator(4);
  net::Network net = input;
  PassManager pm = PassManager::from_script("bds", {{"map", path}});
  const PipelineStats ps = pm.run(net);
  EXPECT_GT(ps.counter("mapped_gates"), 0.0);
  EXPECT_TRUE(static_cast<bool>(verify::check_equivalence(input, net)));
  std::remove(path.c_str());
}

// 64-bit FNV-1a: a hash of the output text that is the same on every
// platform and standard library, so golden constants can be checked in.
std::uint64_t fnv1a(const std::string& text) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const char c : text) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ull;
  }
  return h;
}

// Golden mapped output: `bds` + `map -lib mcnc` on four ladder-style
// circuits must give byte for byte the BLIF and `.gate` text these hashes
// were taken from. A change to the optimizer or the mapper that changes a
// result, or an instance name, fails here.
TEST(MapPasses, MappedOutputMatchesGoldenHashes) {
  struct Golden {
    const char* name;
    net::Network input;
    std::uint64_t blif;
    std::uint64_t gates;
  };
  const Golden cases[] = {
      {"array_multiplier(8)", gen::array_multiplier(8),
       0x0eeb665261b1d0e3ull, 0x14b6c6cf6ed82c98ull},
      {"ripple_adder(32)", gen::ripple_adder(32), 0x80084846bc2152f6ull,
       0xa33425ab53c74824ull},
      {"barrel_shifter(16)", gen::barrel_shifter(16), 0x70ff19ba13ec7685ull,
       0x0fba6667cd1aa745ull},
      {"random_multilevel(64,40,60,32,1)",
       gen::random_multilevel(64, 40, 60, 32, 1), 0x75931403391e2508ull,
       0x67a59c43d5c0fc9eull},
  };
  for (const Golden& c : cases) {
    net::Network net = c.input;
    PassManager pm = PassManager::from_script("bds", {{"map", "mcnc"}});
    PassContext ctx;
    pm.run(net, {}, ctx);
    const MapFlowState* st = ctx.find_state<MapFlowState>();
    ASSERT_NE(st, nullptr) << c.name;
    std::ostringstream gates;
    map::write_gate_blif(gates, net, st->instance_gate);
    EXPECT_EQ(fnv1a(net::to_blif_string(net)), c.blif) << c.name;
    EXPECT_EQ(fnv1a(gates.str()), c.gates) << c.name;
  }
}

TEST(MapPasses, BadSpecsAreTypedScriptErrors) {
  // A missing library file fails at pipeline construction, naming the spec.
  EXPECT_THROW(PassManager::from_script(
                   "bds", {{"map", "/no/such/file.genlib"}}),
               ScriptError);
  // LUT widths outside 2..6 are rejected up front.
  EXPECT_THROW(PassManager::from_script("bds", {{"lut_k", "1"}}),
               ScriptError);
  EXPECT_THROW(PassManager::from_script("bds", {{"lut_k", "9"}}),
               ScriptError);
}

}  // namespace
}  // namespace bds::opt
