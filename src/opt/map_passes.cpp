// The `map` and `lutmap` passes (see map_passes.hpp). The gate library is
// resolved in the pass factory -- "mcnc" names the embedded MCNC-like
// library, anything else is a genlib file path -- so a missing or
// malformed library surfaces as a ScriptError at from_script() time, with
// the genlib parser's line-numbered diagnostic attached, not halfway
// through a pipeline run.
#include "opt/map_passes.hpp"

#include <fstream>
#include <sstream>
#include <utility>

#include "map/lutmap.hpp"
#include "opt/registry.hpp"

namespace bds::opt {

namespace {

std::shared_ptr<const map::Library> load_library(const std::string& spec) {
  if (spec == "mcnc") {
    // The embedded library has static storage; alias it without ownership.
    return {std::shared_ptr<const map::Library>{},
            &map::mcnc_like_library()};
  }
  std::ifstream in(spec);
  if (!in) {
    throw ScriptError("map: cannot open gate library '" + spec + "'");
  }
  std::ostringstream text;
  text << in.rdbuf();
  try {
    return std::make_shared<const map::Library>(
        map::parse_genlib(text.str()));
  } catch (const std::exception& e) {
    throw ScriptError("map: " + spec + ": " + e.what());
  }
}

class TechMapPass final : public Pass {
 public:
  explicit TechMapPass(const std::vector<std::string>& args) {
    validate_args("map", args, 0, {"-lib"}, {});
    lib_spec_ = flag_value("map", args, "-lib", "mcnc");
    lib_ = load_library(lib_spec_);
  }
  std::string_view name() const override { return "map"; }
  std::string args() const override { return "-lib " + lib_spec_; }
  void run(net::Network& net, PassContext& ctx) override {
    map::MapResult result = map::map_in_place(
        net, *lib_, map::MapObjective::kArea, ctx.telemetry());
    ctx.count("mapped_gates", static_cast<double>(result.num_gates));
    ctx.count("mapped_area", result.area);
    ctx.count("mapped_delay", result.delay);
    MapFlowState& state = ctx.state<MapFlowState>();
    state.lib = lib_;
    state.instance_gate = std::move(result.instance_gate);
    state.mapped = true;
  }

 private:
  std::string lib_spec_;
  std::shared_ptr<const map::Library> lib_;
};

class LutMapPass final : public Pass {
 public:
  explicit LutMapPass(const std::vector<std::string>& args) {
    validate_args("lutmap", args, 0, {"-k"}, {});
    const std::size_t k =
        parse_size_arg("lutmap", flag_value("lutmap", args, "-k", "4"));
    if (k < 2 || k > 6) {
      throw ScriptError("lutmap: -k must be in [2, 6]");
    }
    k_ = static_cast<unsigned>(k);
  }
  std::string_view name() const override { return "lutmap"; }
  std::string args() const override { return "-k " + std::to_string(k_); }
  void run(net::Network& net, PassContext& ctx) override {
    const map::LutMapResult result = map::map_luts(net, k_);
    ctx.count("lut_count", static_cast<double>(result.num_luts));
    ctx.count("lut_depth", static_cast<double>(result.depth));
    net = result.netlist;
  }

 private:
  unsigned k_ = 4;
};

}  // namespace

void register_map_passes(PassRegistry& registry) {
  registry.add(
      "map",
      "map [-lib PATH|mcnc]: tree-cover onto a genlib gate library; "
      "replaces the network with the mapped netlist and reports "
      "mapped_gates/mapped_area/mapped_delay",
      [](const std::vector<std::string>& args) {
        return std::make_unique<TechMapPass>(args);
      });
  registry.add(
      "lutmap",
      "lutmap [-k N]: cover with k-input LUTs (2 <= k <= 6, default 4); "
      "replaces the network with the LUT netlist and reports "
      "lut_count/lut_depth",
      [](const std::vector<std::string>& args) {
        return std::make_unique<LutMapPass>(args);
      });
}

}  // namespace bds::opt
