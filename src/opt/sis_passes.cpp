// Registered pass wrappers for the network-level algebraic passes: sweep,
// eliminate, simplify, gkx (fast-extract), resub, and full_simplify. Each
// pass runs the corresponding engine entry point at its fixed settings
// (eliminate takes its threshold) and reports its effect as counters.
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

class EliminatePass final : public Pass {
 public:
  explicit EliminatePass(const std::vector<std::string>& args) {
    validate_args("eliminate", args, /*max_positional=*/1, {}, {});
    if (!args.empty()) threshold_ = parse_int_arg("eliminate", args[0]);
  }
  std::string_view name() const override { return "eliminate"; }
  std::string args() const override { return std::to_string(threshold_); }
  void run(net::Network& net, PassContext& ctx) override {
    ctx.count("eliminated",
              static_cast<double>(sis::eliminate_literals(net, threshold_)));
  }

 private:
  int threshold_ = -1;
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
  std::string_view name() const override { return "gkx"; }
  void run(net::Network& net, PassContext& ctx) override {
    ctx.count("divisors", static_cast<double>(sis::extract_divisors(net)));
  }
};

class ResubPass final : public Pass {
 public:
  std::string_view name() const override { return "resub"; }
  void run(net::Network& net, PassContext& ctx) override {
    ctx.count("resubs", static_cast<double>(sis::resubstitute(net)));
  }
};

class FullSimplifyPass final : public Pass {
 public:
  std::string_view name() const override { return "full_simplify"; }
  void run(net::Network& net, PassContext& ctx) override {
    std::size_t peak = 0;
    const std::size_t improved = sis::full_simplify(net, {}, &peak);
    ctx.count("simplified", static_cast<double>(improved));
    ctx.count("peak_bdd_nodes", static_cast<double>(peak));
  }
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
      "eliminate [threshold]: collapse nodes into fanouts when the literal "
      "growth is <= threshold (default -1)",
      [](const std::vector<std::string>& args) {
        return std::make_unique<EliminatePass>(args);
      });
  registry.add("simplify",
               "per-node two-level minimization (espresso-lite)",
               [](const std::vector<std::string>& args) {
                 validate_args("simplify", args, 0, {}, {});
                 return std::make_unique<SimplifyPass>();
               });
  registry.add("gkx", "fast-extract kernel and cube divisor extraction",
               [](const std::vector<std::string>& args) {
                 validate_args("gkx", args, 0, {}, {});
                 return std::make_unique<ExtractPass>();
               });
  registry.add("resub", "algebraic resubstitution",
               [](const std::vector<std::string>& args) {
                 validate_args("resub", args, 0, {}, {});
                 return std::make_unique<ResubPass>();
               });
  registry.add("full_simplify",
               "don't-care minimization with global BDDs",
               [](const std::vector<std::string>& args) {
                 validate_args("full_simplify", args, 0, {}, {});
                 return std::make_unique<FullSimplifyPass>();
               });
}

}  // namespace bds::opt
