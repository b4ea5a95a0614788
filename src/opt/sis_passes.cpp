// Registered pass wrappers for the network-level algebraic passes: sweep,
// eliminate, simplify, gkx (fast-extract), resub, and full_simplify. Each
// pass holds its own option struct built from script arguments, runs the
// corresponding engine entry point, and reports its effect as counters.
#include <limits>
#include <memory>

#include "opt/registry.hpp"
#include "sis/optimize.hpp"

namespace bds::opt {

namespace {

class SweepPass final : public Pass {
 public:
  std::string_view name() const override { return "sweep"; }
  void run(net::Network& net, PassContext& ctx) override {
    const net::SweepStats s = net::sweep(net);
    ctx.count("constants", static_cast<double>(s.constants_propagated));
    ctx.count("collapsed", static_cast<double>(s.trivial_collapsed));
    ctx.count("merged", static_cast<double>(s.duplicates_merged));
    ctx.count("dead", static_cast<double>(s.dead_removed));
  }
};

/// Ceiling of the counts stored in `unsigned` option fields.
constexpr std::size_t kMaxUnsigned = std::numeric_limits<unsigned>::max();

/// Shared flag handling for the passes parameterized by SisOptions.
sis::SisOptions sis_options_from(std::string_view pass,
                                 const std::vector<std::string>& args) {
  sis::SisOptions opts;
  opts.eliminate_passes = static_cast<unsigned>(parse_size_arg(
      pass, flag_value(pass, args, "-passes",
                       std::to_string(opts.eliminate_passes)),
      kMaxUnsigned));
  opts.max_node_cubes = parse_size_arg(
      pass, flag_value(pass, args, "-max_cubes",
                       std::to_string(opts.max_node_cubes)));
  opts.max_kernels = parse_size_arg(
      pass,
      flag_value(pass, args, "-kernels", std::to_string(opts.max_kernels)));
  return opts;
}

class EliminatePass final : public Pass {
 public:
  EliminatePass(const std::vector<std::string>& args) {
    validate_args("eliminate", args, /*max_positional=*/1,
                  {"-passes", "-max_cubes"}, {});
    opts_ = sis_options_from("eliminate", args);
    opts_.eliminate_threshold = -1;
    if (!args.empty() && args[0] != "-passes" && args[0] != "-max_cubes") {
      opts_.eliminate_threshold = parse_int_arg("eliminate", args[0]);
    }
  }
  std::string_view name() const override { return "eliminate"; }
  std::string args() const override {
    return std::to_string(opts_.eliminate_threshold);
  }
  void run(net::Network& net, PassContext& ctx) override {
    ctx.count("eliminated",
              static_cast<double>(sis::eliminate_literals(net, opts_)));
  }

 private:
  sis::SisOptions opts_;
};

class SimplifyPass final : public Pass {
 public:
  std::string_view name() const override { return "simplify"; }
  void run(net::Network& net, PassContext&) override {
    sis::simplify_nodes(net);
  }
};

class ExtractPass final : public Pass {
 public:
  ExtractPass(const std::vector<std::string>& args) {
    validate_args("gkx", args, 0, {"-passes", "-kernels", "-max_cubes"}, {});
    opts_ = sis_options_from("gkx", args);
    opts_.extract_passes = static_cast<unsigned>(parse_size_arg(
        "gkx", flag_value("gkx", args, "-passes",
                          std::to_string(opts_.extract_passes)),
        kMaxUnsigned));
  }
  std::string_view name() const override { return "gkx"; }
  void run(net::Network& net, PassContext& ctx) override {
    ctx.count("divisors",
              static_cast<double>(sis::extract_divisors(net, opts_)));
  }

 private:
  sis::SisOptions opts_;
};

class ResubPass final : public Pass {
 public:
  ResubPass(const std::vector<std::string>& args) {
    validate_args("resub", args, 0, {"-max_cubes"}, {});
    opts_ = sis_options_from("resub", args);
  }
  std::string_view name() const override { return "resub"; }
  void run(net::Network& net, PassContext& ctx) override {
    ctx.count("resubs", static_cast<double>(sis::resubstitute(net, opts_)));
  }

 private:
  sis::SisOptions opts_;
};

class FullSimplifyPass final : public Pass {
 public:
  FullSimplifyPass(const std::vector<std::string>& args) {
    validate_args("full_simplify", args, 0,
                  {"-max_fanins", "-max_nodes", "-max_dc_cubes"}, {});
    opts_.max_fanins = static_cast<unsigned>(parse_size_arg(
        "full_simplify", flag_value("full_simplify", args, "-max_fanins",
                                    std::to_string(opts_.max_fanins)),
        kMaxUnsigned));
    opts_.max_manager_nodes = parse_size_arg(
        "full_simplify",
        flag_value("full_simplify", args, "-max_nodes",
                   std::to_string(opts_.max_manager_nodes)));
    opts_.max_dc_cubes = parse_size_arg(
        "full_simplify", flag_value("full_simplify", args, "-max_dc_cubes",
                                    std::to_string(opts_.max_dc_cubes)));
  }
  std::string_view name() const override { return "full_simplify"; }
  void run(net::Network& net, PassContext& ctx) override {
    std::size_t peak = 0;
    const std::size_t improved = sis::full_simplify(net, opts_, &peak);
    ctx.count("simplified", static_cast<double>(improved));
    ctx.count("peak_bdd_nodes", static_cast<double>(peak));
  }

 private:
  sis::FullSimplifyOptions opts_;
};

}  // namespace

void register_sis_passes(PassRegistry& registry) {
  registry.add("sweep",
               "constant propagation, trivial-node collapse, duplicate merge",
               [](const std::vector<std::string>& args) {
                 validate_args("sweep", args, 0, {}, {});
                 return std::make_unique<SweepPass>();
               });
  registry.add(
      "eliminate",
      "eliminate <threshold> [-passes N] [-max_cubes N]: collapse nodes into "
      "fanouts when the literal growth is <= threshold",
      [](const std::vector<std::string>& args) {
        return std::make_unique<EliminatePass>(args);
      });
  registry.add("simplify",
               "per-node two-level minimization (espresso-lite)",
               [](const std::vector<std::string>& args) {
                 validate_args("simplify", args, 0, {}, {});
                 return std::make_unique<SimplifyPass>();
               });
  registry.add("gkx",
               "gkx [-passes N] [-kernels N] [-max_cubes N]: fast-extract "
               "kernel and cube divisor extraction",
               [](const std::vector<std::string>& args) {
                 return std::make_unique<ExtractPass>(args);
               });
  registry.add("resub",
               "resub [-max_cubes N]: algebraic resubstitution",
               [](const std::vector<std::string>& args) {
                 return std::make_unique<ResubPass>(args);
               });
  registry.add(
      "full_simplify",
      "full_simplify [-max_fanins N] [-max_nodes N] [-max_dc_cubes N]: "
      "don't-care minimization with global BDDs",
      [](const std::vector<std::string>& args) {
        return std::make_unique<FullSimplifyPass>(args);
      });
}

}  // namespace bds::opt
